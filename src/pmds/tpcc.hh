/**
 * @file
 * TPC-C database for the NEW_ORDER transaction (Table 4).
 *
 * The paper runs only the new-order transaction; we model the tables
 * it touches (warehouse, district, customer, item, stock) as fixed
 * rows in PM plus append-only regions for orders, new-orders and
 * order lines. The transaction follows the TPC-C section 2.4 steps:
 * read warehouse tax, read+bump district next_o_id, read customer,
 * insert order + new-order rows, and for each of 5..15 items read
 * the item, read+update its stock, and insert an order line.
 */

#ifndef PMEMSPEC_PMDS_TPCC_HH
#define PMEMSPEC_PMDS_TPCC_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "runtime/fase_runtime.hh"
#include "runtime/persistent_memory.hh"

namespace pmemspec::pmds
{

/** Sizing knobs for the TPC-C subset. */
struct TpccConfig
{
    unsigned districts = 10;
    unsigned customersPerDistrict = 128;
    unsigned items = 1024;
    /** Capacity of the append-only order/order-line regions. */
    unsigned maxOrders = 1 << 17;
};

/** One line item request of a new-order transaction. */
struct OrderLineReq
{
    std::uint32_t itemId;
    std::uint32_t quantity;
};

/** The single-warehouse TPC-C subset. */
class TpccDb
{
  public:
    TpccDb(runtime::PersistentMemory &pm, const TpccConfig &cfg);

    /** PM bytes the constructor allocates for @p cfg (allocBound()
     *  sums). */
    static std::size_t footprint(const TpccConfig &cfg);

    /**
     * The NEW_ORDER transaction.
     * @return the order id assigned.
     */
    std::uint64_t newOrder(runtime::Transaction &tx, unsigned district,
                           unsigned customer,
                           const std::vector<OrderLineReq> &lines);

    /** Draw a random well-formed new-order request. */
    std::vector<OrderLineReq> randomLines(Rng &rng) const;

    /** next_o_id of a district (checker). */
    std::uint64_t nextOrderId(unsigned district) const;

    /** Sum of stock quantities (decreases by ordered quantities). */
    std::uint64_t totalStock() const;

    /** Orders recorded so far (checker). */
    std::uint64_t ordersPlaced() const;

    /** Order ids are dense per district; stock rows are sane. */
    bool checkInvariants() const;

    const TpccConfig &config() const { return cfg; }

  private:
    static constexpr std::size_t rowBytes = 64;

    /** Bytes of each table the constructor allocates, in its order:
     *  warehouse, districts, customers, items, stock, orders, order
     *  lines (16 per order) and new-order entries (8 B each). */
    static std::array<std::size_t, 8> tableBytes(const TpccConfig &cfg);

    Addr districtAddr(unsigned d) const;
    Addr customerAddr(unsigned d, unsigned c) const;
    Addr itemAddr(unsigned i) const;
    Addr stockAddr(unsigned i) const;

    runtime::PersistentMemory &pm;
    TpccConfig cfg;
    Addr warehouse;  ///< one 64B row
    Addr districts;  ///< cfg.districts rows
    Addr customers;  ///< districts x customersPerDistrict rows
    Addr items;      ///< cfg.items rows
    Addr stock;      ///< cfg.items rows
    Addr orders;     ///< append region, 64B rows, district-partitioned
    Addr orderLines; ///< append region, 64B rows, district-partitioned
    Addr newOrders;  ///< append region, 8B entries, district-partitioned

    /** Order slots per district (maxOrders / districts). */
    std::size_t perDistrictOrders() const
    {
        return cfg.maxOrders / cfg.districts;
    }
};

} // namespace pmemspec::pmds

#endif // PMEMSPEC_PMDS_TPCC_HH
