#include "vacation.hh"

#include "common/logging.hh"
#include "common/rng.hh"
#include "runtime/virtual_os.hh"

namespace pmemspec::pmds
{

std::uint64_t
VacationDb::pack(std::uint16_t free_seats, std::uint16_t used,
                 std::uint32_t price)
{
    return (std::uint64_t{free_seats}) | (std::uint64_t{used} << 16) |
           (std::uint64_t{price} << 32);
}

std::uint16_t
VacationDb::freeOf(std::uint64_t rec)
{
    return static_cast<std::uint16_t>(rec & 0xffff);
}

std::uint16_t
VacationDb::usedOf(std::uint64_t rec)
{
    return static_cast<std::uint16_t>((rec >> 16) & 0xffff);
}

std::uint32_t
VacationDb::priceOf(std::uint64_t rec)
{
    return static_cast<std::uint32_t>(rec >> 32);
}

std::size_t
VacationDb::footprint(const VacationConfig &cfg,
                      std::uint64_t reservations)
{
    using runtime::PersistentMemory;
    // Resource r lives in partition r % partitionsPerTable.
    const std::size_t per_tree =
        (cfg.resourcesPerTable + cfg.partitionsPerTable - 1) /
        cfg.partitionsPerTable;
    return PersistentMemory::allocBound(cfg.customers * 8) +
           3 * cfg.partitionsPerTable * PmRbTree::footprint(per_tree) +
           PersistentMemory::allocBound(setupLogBytes) +
           reservations * PersistentMemory::allocBound(reservationBytes);
}

VacationDb::VacationDb(runtime::PersistentMemory &pm_,
                       const VacationConfig &cfg_)
    : pm(pm_), cfg(cfg_),
      customerLists(pm_.alloc(cfg_.customers * 8, 64)),
      initialSeatsPerResource(10)
{
    fatal_if(cfg.resourcesPerTable == 0 || cfg.customers == 0 ||
                 cfg.numQueries == 0 || cfg.partitionsPerTable == 0,
             "bad vacation config");
    tables.resize(3);
    for (auto &parts : tables) {
        for (unsigned p = 0; p < cfg.partitionsPerTable; ++p)
            parts.push_back(std::make_unique<PmRbTree>(pm));
    }
    for (std::size_t c = 0; c < cfg.customers; ++c)
        pm.writeU64(customerHead(c), 0);

    // Populate the three tables (setup phase, via a local runtime).
    runtime::VirtualOs os;
    runtime::FaseRuntime setup(pm, os, 1,
                               runtime::RecoveryPolicy::Lazy,
                               setupLogBytes);
    Rng price_rng(0xbadc0ffee0ddf00dULL);
    for (std::size_t r = 0; r < cfg.resourcesPerTable; ++r) {
        setup.runFase(0, [&](runtime::Transaction &tx) {
            const auto seats =
                static_cast<std::uint16_t>(initialSeatsPerResource);
            tree(ResourceKind::Car, r)
                .insert(tx, r,
                        pack(seats, 0,
                             100 + static_cast<std::uint32_t>(
                                       price_rng.below(400))));
            tree(ResourceKind::Room, r)
                .insert(tx, r,
                        pack(seats, 0,
                             50 + static_cast<std::uint32_t>(
                                      price_rng.below(300))));
            tree(ResourceKind::Flight, r)
                .insert(tx, r,
                        pack(seats, 0,
                             200 + static_cast<std::uint32_t>(
                                       price_rng.below(600))));
        });
    }
    pm.persistAll();
}

PmRbTree &
VacationDb::tree(ResourceKind k, std::uint64_t id)
{
    return *tables[static_cast<unsigned>(k)][partitionOf(id)];
}

const PmRbTree &
VacationDb::tree(ResourceKind k, std::uint64_t id) const
{
    return const_cast<VacationDb *>(this)->tree(k, id);
}

Addr
VacationDb::customerHead(std::uint64_t customer) const
{
    panic_if(customer >= cfg.customers, "bad customer id");
    return customerLists + customer * 8;
}

bool
VacationDb::makeReservation(runtime::Transaction &tx,
                            ResourceKind kind,
                            const std::vector<std::uint64_t> &candidates,
                            std::uint64_t customer)
{
    // Query phase: examine the candidates, remember the cheapest with
    // free capacity (read-dominant).
    std::optional<std::uint64_t> best_id;
    std::uint32_t best_price = ~0u;
    for (std::uint64_t id : candidates) {
        auto rec = tree(kind, id).find(tx, id);
        if (!rec)
            continue;
        if (freeOf(*rec) > 0 && priceOf(*rec) < best_price) {
            best_price = priceOf(*rec);
            best_id = id;
        }
    }
    if (!best_id)
        return false;

    // Reserve: move one seat free -> used.
    PmRbTree &tbl = tree(kind, *best_id);
    const std::uint64_t rec = *tbl.find(tx, *best_id);
    tbl.insert(tx, *best_id,
               pack(static_cast<std::uint16_t>(freeOf(rec) - 1),
                    static_cast<std::uint16_t>(usedOf(rec) + 1),
                    priceOf(rec)));

    // Record the reservation on the customer's list.
    // Node: [kind:8][resource:8][price:8][next:8]
    const Addr node = pm.alloc(reservationBytes, 64);
    pm.writeU64(node, static_cast<std::uint64_t>(kind));
    pm.writeU64(node + 8, *best_id);
    pm.writeU64(node + 16, best_price);
    pm.writeU64(node + 24, pm.readU64(customerHead(customer)));
    tx.writeU64(customerHead(customer), node);
    return true;
}

unsigned
VacationDb::deleteCustomerReservations(runtime::Transaction &tx,
                                       std::uint64_t customer)
{
    unsigned released = 0;
    Addr node = tx.readU64Dep(customerHead(customer));
    while (node != 0) {
        const auto kind =
            static_cast<ResourceKind>(tx.readU64(node));
        const std::uint64_t id = tx.readU64(node + 8);
        PmRbTree &tbl = tree(kind, id);
        const std::uint64_t rec = *tbl.find(tx, id);
        tbl.insert(tx, id,
                   pack(static_cast<std::uint16_t>(freeOf(rec) + 1),
                        static_cast<std::uint16_t>(usedOf(rec) - 1),
                        priceOf(rec)));
        ++released;
        node = tx.readU64Dep(node + 24);
    }
    tx.writeU64(customerHead(customer), 0);
    return released;
}

void
VacationDb::updateTables(runtime::Transaction &tx, ResourceKind kind,
                         std::uint64_t id, std::uint32_t new_price)
{
    PmRbTree &tbl = tree(kind, id);
    auto rec = tbl.find(tx, id);
    if (!rec)
        return;
    tbl.insert(tx, id, pack(freeOf(*rec), usedOf(*rec), new_price));
}

std::uint64_t
VacationDb::totalReservations() const
{
    std::uint64_t n = 0;
    for (std::size_t c = 0; c < cfg.customers; ++c) {
        for (Addr node = pm.readU64(customerHead(c)); node != 0;
             node = pm.readU64(node + 24))
            ++n;
    }
    return n;
}

std::uint64_t
VacationDb::totalUsedSeats() const
{
    std::uint64_t used = 0;
    for (int k = 0; k < 3; ++k) {
        for (std::size_t r = 0; r < cfg.resourcesPerTable; ++r) {
            auto rec =
                tree(static_cast<ResourceKind>(k), r).lookup(r);
            if (rec)
                used += usedOf(*rec);
        }
    }
    return used;
}

bool
VacationDb::checkInvariants() const
{
    // Seats conserved per resource; every sub-tree stays red-black.
    for (int k = 0; k < 3; ++k) {
        for (unsigned p = 0; p < cfg.partitionsPerTable; ++p) {
            if (!tables[k][p]->checkInvariants())
                return false;
        }
        for (std::size_t r = 0; r < cfg.resourcesPerTable; ++r) {
            auto rec =
                tree(static_cast<ResourceKind>(k), r).lookup(r);
            if (!rec)
                return false;
            if (freeOf(*rec) + usedOf(*rec) != initialSeatsPerResource)
                return false;
        }
    }
    // Reservations on customer lists match the used seats.
    return totalReservations() == totalUsedSeats();
}

} // namespace pmemspec::pmds
