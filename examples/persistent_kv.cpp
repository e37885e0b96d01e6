/**
 * @file
 * A persistent key-value store session with crash injection: the
 * memcached-like KvStore over the failure-atomic runtime. SETs that
 * committed survive every crash; a SET interrupted mid-flight is
 * rolled back as a unit -- the GET path never observes a torn value.
 * A shadow map of the committed SETs checks every read back; the run
 * exits 1 on any mismatch.
 *
 *   $ ./persistent_kv
 */

#include <cstdio>
#include <map>
#include <optional>

#include "common/rng.hh"
#include "pmds/kv_store.hh"
#include "runtime/fase_runtime.hh"
#include "runtime/virtual_os.hh"

int
main()
{
    using namespace pmemspec;
    using namespace pmemspec::runtime;

    PersistentMemory pm(1 << 24);
    VirtualOs os;
    FaseRuntime rt(pm, os, 1, RecoveryPolicy::Lazy, 1 << 17);
    pmds::KvConfig kc;
    kc.buckets = 256;
    kc.valueBytes = 1024;
    pmds::KvStore kv(pm, kc);

    Rng rng(2026);
    // Fill byte of every key's last committed SET.
    std::map<std::uint64_t, std::uint8_t> shadow;
    unsigned committed = 0, crashes = 0, mismatches = 0;

    for (std::uint64_t op = 0; op < 2000; ++op) {
        const std::uint64_t key = rng.below(64);
        const auto fill = static_cast<std::uint8_t>(op & 0xff);
        try {
            rt.runFase(0, [&](Transaction &tx) {
                kv.set(tx, key, fill);
                if (rng.chance(0.05)) {
                    // Pull the plug mid-SET with a random number of
                    // in-flight persists applied (strict persistency
                    // loses an in-order suffix).
                    pm.crash(rng.below(pm.inFlightCount() + 1));
                    throw PowerLoss{};
                }
            });
            ++committed;
            shadow[key] = fill;
        } catch (const PowerLoss &) {
            ++crashes;
            rt.recoverAll();
        }
        // A committed SET reads back its own value; one cut by the
        // power failure reads back the previous committed value, or
        // nothing if there was none. get() itself panics on a torn
        // value.
        std::optional<std::uint8_t> want;
        if (auto it = shadow.find(key); it != shadow.end())
            want = it->second;
        std::optional<std::uint8_t> got;
        rt.runFase(0, [&](Transaction &tx) { got = kv.get(tx, key); });
        mismatches += got != want;
    }

    std::printf("persistent_kv: %u SETs committed, %u power "
                "failures injected, %u mismatched reads\n",
                committed, crashes, mismatches);
    std::printf("store size %zu, LRU consistent: %s\n", kv.size(),
                kv.checkInvariants() ? "yes" : "NO");
    return kv.checkInvariants() && mismatches == 0 ? 0 : 1;
}
