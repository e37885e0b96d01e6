#include "reorder_explorer.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"
#include "faultinject/fault_plan.hh"

namespace pmemspec::faultinject
{

namespace
{

constexpr std::uint64_t satCap = std::numeric_limits<std::uint64_t>::max();

std::uint64_t
satAdd(std::uint64_t a, std::uint64_t b)
{
    return a > satCap - b ? satCap : a + b;
}

/** Block-granular span overlap: the PMC orders persists per 64-byte
 *  block, so two entries conflict iff they touch a common block. */
bool
blocksOverlap(const PendingPersist &a, const PendingPersist &b)
{
    if (a.bytes.empty() || b.bytes.empty())
        return false;
    const Addr a_lo = blockAlign(a.addr);
    const Addr a_hi = blockAlign(a.addr + a.bytes.size() - 1);
    const Addr b_lo = blockAlign(b.addr);
    const Addr b_hi = blockAlign(b.addr + b.bytes.size() - 1);
    return a_lo <= b_hi && b_lo <= a_hi;
}

} // namespace

void
ReorderCounts::add(const ReorderCounts &o)
{
    windows += o.windows;
    naiveStates = satAdd(naiveStates, o.naiveStates);
    orderingsCollapsed = satAdd(orderingsCollapsed, o.orderingsCollapsed);
    canonicalStates += o.canonicalStates;
    statesExplored += o.statesExplored;
    statesDeduped += o.statesDeduped;
    elidedPersists += o.elidedPersists;
}

WindowEnumerator::WindowEnumerator(
    const std::vector<PendingPersist> &window)
    : pred(window.size(), 0), succ(window.size(), 0)
{
    const std::size_t m = window.size();
    panic_if(m > 16, "reorder window of %zu entries (16 is the "
                     "subset-DP tractability limit)", m);
    for (std::size_t j = 0; j < m; ++j) {
        for (std::size_t i = 0; i < j; ++i) {
            // Same-block pairs carry increasing spec IDs in queue
            // order; letting j land first is exactly the inversion
            // mem::storeOrderViolated detects, which traps before
            // any later persist -- so no admissible crash state
            // inverts them. Ordered entries are barriers: nothing
            // crosses them in either direction.
            if (blocksOverlap(window[i], window[j]) ||
                window[i].ordered || window[j].ordered) {
                pred[j] |= std::uint64_t{1} << i;
                succ[i] |= std::uint64_t{1} << j;
            }
        }
    }
}

bool
WindowEnumerator::admissible(std::uint64_t t) const
{
    for (std::size_t j = 0; j < pred.size(); ++j) {
        if ((t >> j) & 1) {
            if (pred[j] & ~t)
                return false;
        }
    }
    return true;
}

std::uint64_t
WindowEnumerator::admissibleCount() const
{
    const std::size_t m = pred.size();
    const std::uint64_t lim = std::uint64_t{1} << m;
    std::uint64_t n = 0;
    for (std::uint64_t t = 0; t < lim; ++t)
        n += admissible(t) ? 1 : 0;
    return n;
}

std::uint64_t
WindowEnumerator::naiveSequences() const
{
    const std::size_t m = pred.size();
    const std::size_t lim = std::size_t{1} << m;
    // g[T] = topological orderings of the induced sub-poset on T.
    // Valid (and used) only for downward-closed T: removing a
    // maximal element keeps a closed set closed, so the recursion
    // never consults a non-closed subproblem from a closed one.
    std::vector<std::uint64_t> g(lim, 0);
    g[0] = 1;
    std::uint64_t total = 0;
    for (std::uint64_t t = 0; t < lim; ++t) {
        if (!admissible(t))
            continue;
        if (t != 0) {
            std::uint64_t ways = 0;
            for (std::size_t j = 0; j < m; ++j) {
                if (!((t >> j) & 1))
                    continue;
                // j applied last: nothing in T may follow j.
                if (succ[j] & t)
                    continue;
                ways = satAdd(ways, g[t & ~(std::uint64_t{1} << j)]);
            }
            g[t] = ways;
        }
        total = satAdd(total, g[t]);
    }
    return total;
}

std::vector<std::uint64_t>
WindowEnumerator::canonicalMasks(const ReorderConfig &cfg) const
{
    const std::size_t m = pred.size();
    std::vector<std::uint64_t> out;
    if (m == 0)
        return out;
    const std::uint64_t full =
        m == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << m) - 1;
    if (m <= reorderExhaustiveBits) {
        for (std::uint64_t t = 1; t <= full; ++t) {
            if (admissible(t))
                out.push_back(t);
        }
        return out;
    }
    for (std::uint64_t t :
         subsetMasks(m, maxReorderSubsets, cfg.seed,
                     reorderExhaustiveBits)) {
        if (admissible(t))
            out.push_back(t);
    }
    // subsetMasks yields proper subsets only; the full window (the
    // whole window also landed -- a deeper prefix, but through the
    // reorder path) is always admissible and worth one state.
    out.push_back(full);
    return out;
}

ReorderCounts
exploreReorderWindow(const std::vector<PendingPersist> &window,
                     const ReorderConfig &cfg, const ReorderHooks &hooks,
                     std::set<std::uint64_t> &seen)
{
    ReorderCounts c;
    if (window.empty())
        return c;
    c.windows = 1;

    // Reduction counters come from the *raw* window: that is what a
    // naive checker would enumerate.
    const WindowEnumerator raw(window);
    c.naiveStates = raw.naiveSequences();
    c.orderingsCollapsed =
        c.naiveStates >= raw.admissibleCount()
            ? c.naiveStates - raw.admissibleCount()
            : 0;

    // Reduction (a), pre-pass: an entry with no ordering edges whose
    // bytes already sit in the durable image (rewound prefix state)
    // cannot change any explored image -- drop it. Only isolated
    // entries are safe to drop wholesale: removing one never breaks
    // another entry's downward closure.
    hooks.rewind();
    std::vector<PendingPersist> reduced;
    reduced.reserve(window.size());
    for (std::size_t i = 0; i < window.size(); ++i) {
        if (raw.isolated(i) && !window[i].ordered &&
            hooks.isNoop(window[i])) {
            ++c.elidedPersists;
            continue;
        }
        reduced.push_back(window[i]);
    }

    // Register the prefix state itself (mask = none of the window):
    // the caller already ran its oracles on it; its digest seeds the
    // seen-set so window subsets reproducing it deduplicate.
    seen.insert(hooks.digest());

    const WindowEnumerator enu(reduced);
    for (std::uint64_t mask : enu.canonicalMasks(cfg)) {
        ++c.canonicalStates;
        hooks.rewind();
        std::size_t applied = 0;
        for (std::size_t i = 0; i < reduced.size(); ++i) {
            if (!((mask >> i) & 1))
                continue;
            // Reduction (a), at application: equal bytes make the
            // same image; the digest would dedup it anyway, but
            // skipping the copy is cheaper than hashing twice.
            if (hooks.isNoop(reduced[i])) {
                ++c.elidedPersists;
                continue;
            }
            hooks.apply(reduced[i]);
            ++applied;
        }
        const std::uint64_t d = hooks.digest();
        if (!seen.insert(d).second) {
            ++c.statesDeduped;
            continue;
        }
        ++c.statesExplored;
        hooks.check(mask, applied);
    }
    return c;
}

} // namespace pmemspec::faultinject
