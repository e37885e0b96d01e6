/**
 * @file
 * Vacation: the STAMP travel-reservation OLTP system, as ported to
 * persistent memory by Mnemosyne (Table 4).
 *
 * Three resource tables (cars, rooms, flights) map resource id to a
 * packed (free seats, used seats, price) record; reservations hang
 * off customers as PM linked lists. Each table is partitioned into
 * independent red-black sub-trees so that the lock-based stand-in for
 * Mnemosyne's STM keeps the optimistic concurrency of the original
 * (callers lock only the partitions a transaction touches).
 *
 * The MAKE_RESERVATION transaction queries several random resources
 * (read-dominant pointer chases through the trees -- this is why the
 * paper's Mnemosyne benchmarks are load-heavy), picks the cheapest
 * available one, and reserves it.
 */

#ifndef PMEMSPEC_PMDS_VACATION_HH
#define PMEMSPEC_PMDS_VACATION_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "pmds/pm_rbtree.hh"
#include "runtime/fase_runtime.hh"
#include "runtime/persistent_memory.hh"

namespace pmemspec::pmds
{

/** Which resource table a reservation targets. */
enum class ResourceKind : std::uint8_t
{
    Car = 0,
    Room = 1,
    Flight = 2,
};

/** Sizing knobs. */
struct VacationConfig
{
    std::size_t resourcesPerTable = 4096;
    std::size_t customers = 1024;
    /** Resources examined per MAKE_RESERVATION query phase. */
    unsigned numQueries = 8;
    /** Independent sub-trees per table (lock domains). */
    unsigned partitionsPerTable = 16;
};

/** The vacation reservation system. */
class VacationDb
{
  public:
    VacationDb(runtime::PersistentMemory &pm,
               const VacationConfig &cfg);

    /** PM bytes the constructor and `reservations` successful
     *  makeReservation() calls allocate (allocBound() sums). */
    static std::size_t footprint(const VacationConfig &cfg,
                                 std::uint64_t reservations);

    /** Partition (lock domain) a resource id belongs to. */
    unsigned
    partitionOf(std::uint64_t id) const
    {
        return static_cast<unsigned>(id % cfg.partitionsPerTable);
    }

    /**
     * MAKE_RESERVATION: examine the candidate resources of one kind,
     * reserve the cheapest with free capacity for the customer.
     * The caller must hold the locks of every candidate's partition
     * and of the customer's stripe.
     * @return true if a reservation was made.
     */
    bool makeReservation(runtime::Transaction &tx, ResourceKind kind,
                         const std::vector<std::uint64_t> &candidates,
                         std::uint64_t customer);

    /** DELETE_CUSTOMER: release every reservation of the customer.
     *  Callers must hold all table partitions (tests only). */
    unsigned deleteCustomerReservations(runtime::Transaction &tx,
                                        std::uint64_t customer);

    /** UPDATE_TABLES: change the price of one resource. */
    void updateTables(runtime::Transaction &tx, ResourceKind kind,
                      std::uint64_t id, std::uint32_t new_price);

    /** free+used seats is conserved per resource; reservation lists
     *  are acyclic and match the used counts in total. */
    bool checkInvariants() const;

    /** Total reservations across all customers (walks lists). */
    std::uint64_t totalReservations() const;

    /** Total used seats across every table. */
    std::uint64_t totalUsedSeats() const;

    const VacationConfig &config() const { return cfg; }

  private:
    /** Undo log of the one-thread runtime that populates the tables. */
    static constexpr std::size_t setupLogBytes = 1 << 16;
    /** Reservation list node: [kind:8][resource:8][price:8][next:8]. */
    static constexpr std::size_t reservationBytes = 32;

    // Packed resource record: free:16 | used:16 | price:32.
    static std::uint64_t pack(std::uint16_t free_seats,
                              std::uint16_t used, std::uint32_t price);
    static std::uint16_t freeOf(std::uint64_t rec);
    static std::uint16_t usedOf(std::uint64_t rec);
    static std::uint32_t priceOf(std::uint64_t rec);

    PmRbTree &tree(ResourceKind k, std::uint64_t id);
    const PmRbTree &tree(ResourceKind k, std::uint64_t id) const;

    Addr customerHead(std::uint64_t customer) const;

    runtime::PersistentMemory &pm;
    VacationConfig cfg;
    /** trees[kind][partition] */
    std::vector<std::vector<std::unique_ptr<PmRbTree>>> tables;
    Addr customerLists; ///< per-customer list-head slots
    std::uint64_t initialSeatsPerResource;
};

} // namespace pmemspec::pmds

#endif // PMEMSPEC_PMDS_VACATION_HH
