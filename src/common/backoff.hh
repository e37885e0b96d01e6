/**
 * @file
 * Deterministic bounded exponential backoff, the service harness's
 * client-side retry policy. The schedule is pure arithmetic on the
 * attempt counter -- no randomisation -- so a retry storm replays
 * tick-identically on every run: delay(n) = min(base << n, cap) for
 * the n-th consecutive failure, reset to `base` on the first
 * success.
 */

#ifndef PMEMSPEC_COMMON_BACKOFF_HH
#define PMEMSPEC_COMMON_BACKOFF_HH

#include <cstdint>

#include "common/types.hh"

namespace pmemspec
{

/** Deterministic bounded exponential backoff schedule. */
class BoundedBackoff
{
  public:
    /**
     * @param base First-retry delay (ticks); must be non-zero.
     * @param cap  Upper clamp on any delay (ticks).
     */
    constexpr BoundedBackoff(Tick base, Tick cap)
        : baseDelay(base ? base : 1), capDelay(cap < base ? base : cap)
    {
    }

    /** Delay before the next retry, then advance the schedule. */
    Tick
    next()
    {
        const Tick d = peek();
        if (d < capDelay)
            ++attempt;
        return d;
    }

    /** Delay the next next() call would return, without advancing. */
    Tick
    peek() const
    {
        // base << attempt, saturating at the cap (attempt is bounded
        // by the early-out, so the shift never overflows).
        Tick d = baseDelay;
        for (unsigned i = 0; i < attempt && d < capDelay; ++i)
            d <<= 1;
        return d < capDelay ? d : capDelay;
    }

    /** Consecutive failures recorded since the last reset. */
    unsigned attempts() const { return attempt; }

    /** Success: the next failure starts again from `base`. */
    void reset() { attempt = 0; }

    Tick base() const { return baseDelay; }
    Tick cap() const { return capDelay; }

  private:
    Tick baseDelay;
    Tick capDelay;
    unsigned attempt = 0;
};

} // namespace pmemspec

#endif // PMEMSPEC_COMMON_BACKOFF_HH
