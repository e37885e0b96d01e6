#include "tpcc.hh"

#include "common/logging.hh"

namespace pmemspec::pmds
{

// Row field offsets.
namespace
{
// warehouse: [w_tax:8][w_ytd:8]
constexpr Addr offWTax = 0;
// district: [d_tax:8][d_ytd:8][d_next_o_id:8]
constexpr Addr offDTax = 0;
constexpr Addr offDNextOid = 16;
constexpr Addr offDOrderCnt = 24; // orders appended in this district
constexpr Addr offDLineCnt = 32;  // order lines appended
// customer: [c_discount:8][c_balance:8][c_ytd:8]
constexpr Addr offCDiscount = 0;
// item: [i_price:8][i_im_id:8]
constexpr Addr offIPrice = 0;
// stock: [s_quantity:8][s_ytd:8][s_order_cnt:8]
constexpr Addr offSQuantity = 0;
constexpr Addr offSYtd = 8;
constexpr Addr offSOrderCnt = 16;
// order row: [o_id:8][o_d_id:8][o_c_id:8][o_ol_cnt:8]
// order line: [ol_o_id:8][ol_number:8][ol_i_id:8][ol_qty:8][ol_amt:8]
} // namespace

std::array<std::size_t, 8>
TpccDb::tableBytes(const TpccConfig &cfg)
{
    const std::size_t orders = cfg.maxOrders;
    return {rowBytes,
            std::size_t{cfg.districts} * rowBytes,
            std::size_t{cfg.districts} * cfg.customersPerDistrict *
                rowBytes,
            std::size_t{cfg.items} * rowBytes,
            std::size_t{cfg.items} * rowBytes,
            orders * rowBytes,
            orders * 16 * rowBytes,
            orders * 8};
}

std::size_t
TpccDb::footprint(const TpccConfig &cfg)
{
    std::size_t bytes = 0;
    for (std::size_t n : tableBytes(cfg))
        bytes += runtime::PersistentMemory::allocBound(n);
    return bytes;
}

TpccDb::TpccDb(runtime::PersistentMemory &pm_, const TpccConfig &cfg_)
    : pm(pm_), cfg(cfg_)
{
    fatal_if(cfg.districts == 0 || cfg.items == 0 ||
                 cfg.customersPerDistrict == 0,
             "bad TPCC config");
    const auto bytes = tableBytes(cfg);
    warehouse = pm.alloc(bytes[0], rowBytes);
    districts = pm.alloc(bytes[1], rowBytes);
    customers = pm.alloc(bytes[2], rowBytes);
    items = pm.alloc(bytes[3], rowBytes);
    stock = pm.alloc(bytes[4], rowBytes);
    orders = pm.alloc(bytes[5], rowBytes);
    orderLines = pm.alloc(bytes[6], rowBytes);
    newOrders = pm.alloc(bytes[7], rowBytes);

    // Populate (setup phase).
    pm.writeU64(warehouse + offWTax, 7);
    for (unsigned d = 0; d < cfg.districts; ++d) {
        pm.writeU64(districtAddr(d) + offDTax, 5);
        pm.writeU64(districtAddr(d) + offDNextOid, 1);
        pm.writeU64(districtAddr(d) + offDOrderCnt, 0);
        pm.writeU64(districtAddr(d) + offDLineCnt, 0);
    }
    for (unsigned d = 0; d < cfg.districts; ++d) {
        for (unsigned c = 0; c < cfg.customersPerDistrict; ++c)
            pm.writeU64(customerAddr(d, c) + offCDiscount, c % 50);
    }
    for (unsigned i = 0; i < cfg.items; ++i) {
        pm.writeU64(itemAddr(i) + offIPrice, 100 + i % 900);
        pm.writeU64(stockAddr(i) + offSQuantity, 10'000);
        pm.writeU64(stockAddr(i) + offSYtd, 0);
        pm.writeU64(stockAddr(i) + offSOrderCnt, 0);
    }
    pm.persistAll();
}

Addr
TpccDb::districtAddr(unsigned d) const
{
    panic_if(d >= cfg.districts, "bad district");
    return districts + std::size_t{d} * rowBytes;
}

Addr
TpccDb::customerAddr(unsigned d, unsigned c) const
{
    panic_if(d >= cfg.districts || c >= cfg.customersPerDistrict,
             "bad customer");
    return customers +
           (std::size_t{d} * cfg.customersPerDistrict + c) * rowBytes;
}

Addr
TpccDb::itemAddr(unsigned i) const
{
    panic_if(i >= cfg.items, "bad item");
    return items + std::size_t{i} * rowBytes;
}

Addr
TpccDb::stockAddr(unsigned i) const
{
    panic_if(i >= cfg.items, "bad stock item");
    return stock + std::size_t{i} * rowBytes;
}

std::vector<OrderLineReq>
TpccDb::randomLines(Rng &rng) const
{
    const unsigned n = static_cast<unsigned>(rng.range(5, 15));
    std::vector<OrderLineReq> lines(n);
    for (auto &l : lines) {
        l.itemId = static_cast<std::uint32_t>(rng.below(cfg.items));
        l.quantity = static_cast<std::uint32_t>(rng.range(1, 10));
    }
    return lines;
}

std::uint64_t
TpccDb::newOrder(runtime::Transaction &tx, unsigned district,
                 unsigned customer,
                 const std::vector<OrderLineReq> &lines)
{
    panic_if(lines.empty(), "new-order with no lines");
    // 1. Read warehouse and district tax rates.
    const std::uint64_t w_tax = tx.readU64(warehouse + offWTax);
    const Addr d_row = districtAddr(district);
    const std::uint64_t d_tax = tx.readU64(d_row + offDTax);
    // 2. Read and bump the district's next order id.
    const std::uint64_t o_id = tx.readU64(d_row + offDNextOid);
    tx.writeU64(d_row + offDNextOid, o_id + 1);
    // 3. Read the customer's discount.
    const std::uint64_t c_disc =
        tx.readU64(customerAddr(district, customer) + offCDiscount);
    // 4. Insert the order and new-order rows. Append regions are
    //    partitioned per district so the whole transaction stays
    //    inside the district's lock domain (plus the stock stripes).
    const std::size_t per_d = perDistrictOrders();
    const std::uint64_t o_cnt = tx.readU64(d_row + offDOrderCnt);
    fatal_if(o_cnt >= per_d, "order region exhausted");
    tx.writeU64(d_row + offDOrderCnt, o_cnt + 1);
    const std::uint64_t o_slot = district * per_d + o_cnt;
    const Addr o_row = orders + o_slot * rowBytes;
    tx.writeU64(o_row, o_id);
    tx.writeU64(o_row + 8, district);
    tx.writeU64(o_row + 16, customer);
    tx.writeU64(o_row + 24, lines.size());
    tx.writeU64(newOrders + o_slot * 8, o_id);
    // 5. Per line item: read item price, update stock, insert line.
    std::uint64_t total = 0;
    for (std::size_t n = 0; n < lines.size(); ++n) {
        const OrderLineReq &l = lines[n];
        const std::uint64_t price =
            tx.readU64(itemAddr(l.itemId) + offIPrice);
        const Addr s_row = stockAddr(l.itemId);
        std::uint64_t qty = tx.readU64(s_row + offSQuantity);
        qty = (qty >= l.quantity + 10) ? qty - l.quantity
                                       : qty + 91 - l.quantity;
        tx.writeU64(s_row + offSQuantity, qty);
        tx.writeU64(s_row + offSYtd,
                    tx.readU64(s_row + offSYtd) + l.quantity);
        tx.writeU64(s_row + offSOrderCnt,
                    tx.readU64(s_row + offSOrderCnt) + 1);

        const std::uint64_t l_cnt = tx.readU64(d_row + offDLineCnt);
        fatal_if(l_cnt >= per_d * 16, "order-line region exhausted");
        tx.writeU64(d_row + offDLineCnt, l_cnt + 1);
        const std::uint64_t ol_slot = district * per_d * 16 + l_cnt;
        const Addr ol_row = orderLines + ol_slot * rowBytes;
        tx.writeU64(ol_row, o_id);
        tx.writeU64(ol_row + 8, n);
        tx.writeU64(ol_row + 16, l.itemId);
        tx.writeU64(ol_row + 24, l.quantity);
        const std::uint64_t amount = price * l.quantity;
        tx.writeU64(ol_row + 32, amount);
        total += amount;
    }
    // The computed total exercises the tax/discount reads.
    (void)w_tax;
    (void)d_tax;
    (void)c_disc;
    (void)total;
    return o_id;
}

std::uint64_t
TpccDb::nextOrderId(unsigned district) const
{
    return pm.readU64(districtAddr(district) + offDNextOid);
}

std::uint64_t
TpccDb::totalStock() const
{
    std::uint64_t sum = 0;
    for (unsigned i = 0; i < cfg.items; ++i)
        sum += pm.readU64(stockAddr(i) + offSQuantity);
    return sum;
}

std::uint64_t
TpccDb::ordersPlaced() const
{
    std::uint64_t n = 0;
    for (unsigned d = 0; d < cfg.districts; ++d)
        n += pm.readU64(districtAddr(d) + offDOrderCnt);
    return n;
}

bool
TpccDb::checkInvariants() const
{
    // Sum of district next_o_id bumps must equal orders placed.
    std::uint64_t bumps = 0;
    for (unsigned d = 0; d < cfg.districts; ++d)
        bumps += nextOrderId(d) - 1;
    if (bumps != ordersPlaced())
        return false;
    // Every recorded order row has a sane line count.
    const std::size_t per_d = perDistrictOrders();
    for (unsigned d = 0; d < cfg.districts; ++d) {
        const std::uint64_t placed =
            pm.readU64(districtAddr(d) + offDOrderCnt);
        for (std::uint64_t s = 0; s < placed; ++s) {
            const Addr row = orders + (d * per_d + s) * rowBytes;
            const std::uint64_t cnt = pm.readU64(row + 24);
            if (cnt < 5 || cnt > 15)
                return false;
        }
    }
    return true;
}

} // namespace pmemspec::pmds
