/**
 * @file
 * Deterministic domain-parallel execution.
 *
 * A simulation *domain* is a self-contained piece of simulated
 * machinery -- its own EventQueue, memories, runtimes, fault state --
 * that never shares mutable state with any sibling. Per-shard service
 * failure domains and per-(workload,design) sweep points both have
 * this shape, which makes them embarrassingly parallel across host
 * threads *without* giving up the repo-wide determinism contract:
 * each domain's internal (when, seq) event order is untouched, and
 * results are collected into submission-indexed slots so the merged
 * output is byte-identical for any host thread count.
 *
 * DomainPool is the one primitive behind that pattern (SweepRunner
 * holds one). The rules a caller must follow:
 *
 *  - task(i) may only touch domain i's state plus its own result
 *    slot; anything shared must be immutable for the whole run.
 *  - merging happens strictly after run() returns (it joins all
 *    workers), in an order derived from domain indices and simulated
 *    time -- never from host completion order.
 */

#ifndef PMEMSPEC_SIM_DOMAIN_POOL_HH
#define PMEMSPEC_SIM_DOMAIN_POOL_HH

#include <algorithm>
#include <cstddef>
#include <functional>
#include <string>
#include <vector>

namespace pmemspec::sim
{

/** See the file comment. */
class DomainPool
{
  public:
    /** Upper clamp on the thread count, --jobs and --sim-threads
     *  alike (a typo guard, not a tuning limit). */
    static constexpr unsigned maxThreads = 256;

    /** @param threads worker count; 0 = hardware concurrency. */
    explicit DomainPool(unsigned threads = 0);

    unsigned threads() const { return nthreads; }

    /**
     * Deterministic parallel for: run task(i) for every i in [0, n).
     * Domains are handed out dynamically (an atomic cursor), so
     * completion order is host-dependent -- which is why results must
     * live in per-index slots, not a shared accumulator. When
     * `errors` is non-null it is resized to n and each task's
     * exception text lands at its own index; when null, the first
     * (lowest-index) exception is rethrown as std::runtime_error
     * ("domain <i>: <what>") after every task finished. With one
     * thread (or n <= 1) tasks run inline on the calling thread.
     */
    void run(std::size_t n,
             const std::function<void(std::size_t)> &task,
             std::vector<std::string> *errors = nullptr) const;

  private:
    unsigned nthreads;
};

/**
 * Stable merge of per-domain result streams: concatenates the parts
 * in domain order and stable-sorts by `less`, so records comparing
 * equal (typically: same simulated tick) keep ascending-domain order.
 * Each part must already be in its domain's emission order; the
 * output is then invariant in the host thread count by construction.
 */
template <typename T, typename Less>
std::vector<T>
mergeDomains(std::vector<std::vector<T>> parts, Less less)
{
    std::size_t total = 0;
    for (const auto &p : parts)
        total += p.size();
    std::vector<T> out;
    out.reserve(total);
    for (auto &p : parts)
        for (auto &v : p)
            out.push_back(std::move(v));
    std::stable_sort(out.begin(), out.end(), less);
    return out;
}

} // namespace pmemspec::sim

#endif // PMEMSPEC_SIM_DOMAIN_POOL_HH
