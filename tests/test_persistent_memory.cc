/**
 * @file
 * Unit tests for the functional PM model: allocation, the two images,
 * in-order persist semantics, crash prefixes, the observer, and the
 * block-touch journal behind snapshot rewinds and reboots.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <vector>

#include "runtime/persistent_memory.hh"

using namespace pmemspec;
using runtime::MemOp;
using runtime::PersistentMemory;

TEST(PersistentMemory, AllocRespectsAlignment)
{
    PersistentMemory pm(1 << 20);
    Addr a = pm.alloc(10, 64);
    EXPECT_EQ(a % 64, 0u);
    Addr b = pm.alloc(10, 64);
    EXPECT_EQ(b % 64, 0u);
    EXPECT_GE(b, a + 10);
}

TEST(PersistentMemory, AddressZeroIsNeverAllocated)
{
    PersistentMemory pm(1 << 20);
    EXPECT_NE(pm.alloc(8), 0u);
}

TEST(PersistentMemory, WriteReadRoundTrip)
{
    PersistentMemory pm(1 << 20);
    Addr a = pm.alloc(16);
    pm.writeU64(a, 0xdeadbeefULL);
    EXPECT_EQ(pm.readU64(a), 0xdeadbeefULL);
    pm.writeU32(a + 8, 77);
    EXPECT_EQ(pm.readU32(a + 8), 77u);
}

TEST(PersistentMemory, WritesAreVolatileUntilPersisted)
{
    PersistentMemory pm(1 << 20);
    Addr a = pm.alloc(8);
    pm.writeU64(a, 42);
    std::uint64_t persisted;
    std::memcpy(&persisted, pm.persistedImage() + a, 8);
    EXPECT_EQ(persisted, 0u);
    pm.persistAll();
    std::memcpy(&persisted, pm.persistedImage() + a, 8);
    EXPECT_EQ(persisted, 42u);
    EXPECT_EQ(pm.inFlightCount(), 0u);
}

TEST(PersistentMemory, CrashKeepsAnInOrderPrefix)
{
    // Strict persistency: a crash applies the first k in-flight
    // stores in store order and drops the rest.
    PersistentMemory pm(1 << 20);
    Addr a = pm.alloc(8);
    Addr b = pm.alloc(8);
    Addr c = pm.alloc(8);
    pm.writeU64(a, 1);
    pm.writeU64(b, 2);
    pm.writeU64(c, 3);
    pm.crash(2);
    EXPECT_EQ(pm.readU64(a), 1u);
    EXPECT_EQ(pm.readU64(b), 2u);
    EXPECT_EQ(pm.readU64(c), 0u); // lost
}

TEST(PersistentMemory, CrashZeroLosesEverythingUnpersisted)
{
    PersistentMemory pm(1 << 20);
    Addr a = pm.alloc(8);
    pm.writeU64(a, 7);
    pm.persistAll();
    pm.writeU64(a, 9);
    pm.crash(0);
    EXPECT_EQ(pm.readU64(a), 7u);
}

TEST(PersistentMemory, CrashRebootsVolatileFromPersisted)
{
    PersistentMemory pm(1 << 20);
    Addr a = pm.alloc(8);
    pm.writeU64(a, 5);
    pm.crash(0);
    // The volatile image equals the persisted one after reboot.
    EXPECT_EQ(std::memcmp(pm.volatileImage(), pm.persistedImage(),
                          pm.size()),
              0);
}

TEST(PersistentMemory, LaterWriteToSameAddressWins)
{
    PersistentMemory pm(1 << 20);
    Addr a = pm.alloc(8);
    pm.writeU64(a, 1);
    pm.writeU64(a, 2);
    pm.crash(2);
    EXPECT_EQ(pm.readU64(a), 2u);
}

TEST(PersistentMemory, PrefixReplayPreservesOrderAcrossOverwrites)
{
    PersistentMemory pm(1 << 20);
    Addr a = pm.alloc(8);
    pm.writeU64(a, 1);
    pm.writeU64(a, 2);
    pm.crash(1); // only the first write persisted
    EXPECT_EQ(pm.readU64(a), 1u);
}

TEST(PersistentMemory, ObserverSeesAllTraffic)
{
    PersistentMemory pm(1 << 20);
    Addr a = pm.alloc(64, 64);
    std::vector<std::tuple<MemOp, Addr, std::uint32_t>> log;
    pm.setObserver([&](MemOp op, Addr addr, std::uint32_t n) {
        log.emplace_back(op, addr, n);
    });
    pm.writeU64(a, 1);
    pm.readU64(a);
    pm.readU64Dep(a + 8);
    ASSERT_EQ(log.size(), 3u);
    EXPECT_EQ(std::get<0>(log[0]), MemOp::Write);
    EXPECT_EQ(std::get<0>(log[1]), MemOp::Read);
    EXPECT_EQ(std::get<0>(log[2]), MemOp::ReadDep);
    EXPECT_EQ(std::get<1>(log[2]), a + 8);
    EXPECT_EQ(std::get<2>(log[0]), 8u);
    pm.setObserver(nullptr);
    pm.writeU64(a, 2);
    EXPECT_EQ(log.size(), 3u);
}

TEST(PersistentMemory, OutOfRangeAccessPanics)
{
    PersistentMemory pm(4096);
    EXPECT_DEATH(pm.readU64(4090), "out of range");
    EXPECT_DEATH(pm.writeU64(0, 1), "null");
}

TEST(PersistentMemory, ArenaExhaustionIsFatal)
{
    PersistentMemory pm(4096);
    EXPECT_DEATH(pm.alloc(1 << 20), "exhausted");
}

TEST(PersistentMemory, InFlightCountTracksStores)
{
    PersistentMemory pm(1 << 20);
    Addr a = pm.alloc(64);
    EXPECT_EQ(pm.inFlightCount(), 0u);
    pm.writeU64(a, 1);
    pm.writeU64(a + 8, 2);
    EXPECT_EQ(pm.inFlightCount(), 2u);
    pm.persistAll();
    EXPECT_EQ(pm.inFlightCount(), 0u);
}

TEST(PersistentMemory, SnapshotRestoreRoundTrips)
{
    PersistentMemory pm(1 << 16);
    Addr a = pm.alloc(16, 64);
    pm.writeU64(a, 1);
    pm.persistAll();
    pm.writeU64(a, 2); // in flight at snapshot time
    const auto snap = pm.snapshot();

    pm.writeU64(a, 3);
    pm.persistAll();
    Addr later = pm.alloc(8, 8);
    EXPECT_GT(later, a);

    pm.restore(snap);
    EXPECT_EQ(pm.readU64(a), 2u);       // volatile image restored
    EXPECT_EQ(pm.inFlightCount(), 1u);  // pending persist restored
    pm.crash(0);                        // the pending write is lost
    EXPECT_EQ(pm.readU64(a), 1u);
    // The arena cursor was restored too: alloc hands out the same
    // address the discarded timeline used.
    EXPECT_EQ(pm.alloc(8, 8), later);
}

TEST(PersistentMemory, RestoreRewindsCrashSemantics)
{
    PersistentMemory pm(1 << 16);
    Addr a = pm.alloc(32, 64);
    pm.writeU64(a, 10);
    pm.persistAll();
    const auto snap = pm.snapshot();

    // Timeline 1: both writes durable.
    pm.writeU64(a, 11);
    pm.writeU64(a + 8, 12);
    pm.crash(2);
    EXPECT_EQ(pm.readU64(a), 11u);
    EXPECT_EQ(pm.readU64(a + 8), 12u);

    // Timeline 2 from the same snapshot: only the first survives.
    pm.restore(snap);
    pm.writeU64(a, 11);
    pm.writeU64(a + 8, 12);
    pm.crash(1);
    EXPECT_EQ(pm.readU64(a), 11u);
    EXPECT_EQ(pm.readU64(a + 8), 0u);
}

TEST(PersistentMemory, RestoreOfMismatchedSnapshotPanics)
{
    PersistentMemory small(1 << 12);
    PersistentMemory big(1 << 16);
    const auto snap = small.snapshot();
    EXPECT_DEATH(big.restore(snap), "snapshot");
}

TEST(PersistentMemory, NoSnapshotNoJournal)
{
    PersistentMemory pm(1 << 16);
    Addr a = pm.alloc(8, 64);
    pm.writeU64(a, 1);
    pm.crash(1);
    EXPECT_TRUE(pm.touchedBlocks().empty());
    pm.snapshot();
    pm.writeU64(a, 2);
    EXPECT_EQ(pm.touchedBlocks(), std::vector<Addr>{a});
}

TEST(PersistentMemory, OnlyTheJournalsSnapshotIsAccepted)
{
    // The journal holds pre-images from its own snapshot on only, so
    // a superseded snapshot, or one taken on another PM of the same
    // size, can be neither restored nor compared against.
    PersistentMemory pm(1 << 16);
    PersistentMemory twin(1 << 16);
    const Addr a = pm.alloc(8, 64);
    pm.writeU64(a, 1);
    pm.persistAll();
    const auto older = pm.snapshot();
    pm.writeU64(a, 2);
    pm.persistAll();
    const auto newer = pm.snapshot();
    const auto foreign = twin.snapshot();
    const auto over = pm.snapshotBlocks({a});
    for (const auto *s : {&older, &foreign}) {
        EXPECT_DEATH(pm.restore(*s), "restore of snapshot");
        EXPECT_DEATH(pm.durableChangesSince(*s),
                     "durableChangesSince of snapshot");
        EXPECT_DEATH(pm.durableMatches(*s, over),
                     "durableMatches of snapshot");
    }

    // The journal's own snapshot still works.
    pm.writeU64(a, 3);
    pm.persistAll();
    EXPECT_EQ(pm.durableChangesSince(newer), std::vector<Addr>{a});
    EXPECT_FALSE(pm.durableMatches(newer, over));
    pm.restore(newer);
    EXPECT_EQ(pm.readU64(a), 2u);
}

namespace
{

void
expectSameState(const PersistentMemory &got, const PersistentMemory &want)
{
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(std::memcmp(got.volatileImage(), want.volatileImage(),
                          got.size()),
              0);
    EXPECT_EQ(std::memcmp(got.persistedImage(), want.persistedImage(),
                          got.size()),
              0);
    ASSERT_EQ(got.inFlightCount(), want.inFlightCount());
    for (std::size_t i = 0; i < got.inFlightCount(); ++i) {
        const auto &g = got.pendingEntry(i);
        const auto &w = want.pendingEntry(i);
        EXPECT_EQ(g.addr, w.addr);
        EXPECT_EQ(g.bytes, w.bytes);
        EXPECT_EQ(g.specId, w.specId);
        EXPECT_EQ(g.ordered, w.ordered);
    }
    EXPECT_EQ(got.poisonedWordsIn(0, got.size()),
              want.poisonedWordsIn(0, want.size()));
    EXPECT_EQ(got.remaining(), want.remaining());
    EXPECT_EQ(got.nextSpecId(), want.nextSpecId());
}

/** Drives the same seeded mix of every image-changing call into any
 *  number of PMs. The space ends in a short block (size() is not a
 *  multiple of 64) so block-span clamping is exercised too. */
class RandomOps
{
  public:
    static constexpr std::size_t kBytes = 8192 + 40;

    explicit RandomOps(std::uint64_t seed) : rng(seed) {}

    /** One random step, applied to every PM in `pms`. */
    void
    step(const std::vector<PersistentMemory *> &pms)
    {
        const unsigned kind = pick(11);
        const std::size_t n = 1 + pick(24);
        const Addr a = 64 + pick(kBytes - 64 - n);
        std::vector<std::uint8_t> bytes(n);
        for (auto &byte : bytes)
            byte = static_cast<std::uint8_t>(rng());
        const std::size_t inflight = pms[0]->inFlightCount();
        const std::size_t k = pick(inflight + 2);
        const std::uint64_t mask = rng();
        std::vector<Addr> blocks;
        for (unsigned i = 0, m = 1 + pick(4); i < m; ++i)
            blocks.push_back(64 * (1 + pick(kBytes / 64 - 1)));
        const bool haveBlockSnap = !blockSnaps.empty();
        if (!haveBlockSnap && kind == 9)
            blockSnaps.resize(pms.size());
        for (std::size_t i = 0; i < pms.size(); ++i) {
            PersistentMemory &pm = *pms[i];
            switch (kind) {
            case 0:
                pm.write(a, bytes.data(), n);
                break;
            case 1:
                pm.writeOrdered(a, bytes.data(), n);
                break;
            case 2:
                pm.persistAll();
                break;
            case 3:
                pm.crash(k);
                break;
            case 4:
                pm.crashTorn(k, mask);
                break;
            case 5:
                pm.overlayDurable(a, bytes.data(), n);
                break;
            case 6:
                pm.corruptWord(a, mask);
                break;
            case 7:
                pm.poisonWord(a);
                break;
            case 8:
                pm.alloc(n);
                break;
            case 9:
                // Alternately take and restore a sparse snapshot; the
                // restore is inexact (other blocks changed meanwhile)
                // but identically so on every PM.
                if (haveBlockSnap)
                    pm.restoreBlocks(blockSnaps[i]);
                else
                    blockSnaps[i] = pm.snapshotBlocks(blocks);
                break;
            default:
                pm.write(a, bytes.data(), n);
                pm.write(a, bytes.data(), n > 8 ? 8 : n);
                break;
            }
        }
        if (kind == 9 && haveBlockSnap)
            blockSnaps.clear();
    }

    /** Uniform in [0, n). */
    std::size_t
    pick(std::size_t n)
    {
        return static_cast<std::size_t>(rng() % n);
    }

  private:
    std::mt19937_64 rng;
    std::vector<PersistentMemory::BlockSnapshot> blockSnaps;
};

/** Persisted-image blocks that differ between two spaces, by scan. */
std::vector<Addr>
durableDiff(const PersistentMemory &a, const PersistentMemory &b)
{
    std::vector<Addr> out;
    for (Addr blk = 0; blk < a.size(); blk += 64) {
        const std::size_t n = std::min<std::size_t>(64, a.size() - blk);
        if (std::memcmp(a.persistedImage() + blk, b.persistedImage() + blk,
                        n) != 0)
            out.push_back(blk);
    }
    return out;
}

} // namespace

TEST(PersistentMemory, PersistPayloadsRoundTripAtEverySize)
{
    // Persists at, around and well past the inline payload capacity
    // keep their bytes through the queue, a crash, a torn crash and a
    // snapshot round trip.
    const std::size_t sizes[] = {1, 8, 32, 33, 128, 4096};
    std::vector<std::vector<std::uint8_t>> data;
    std::vector<Addr> addrs;
    auto writeAll = [&](PersistentMemory &pm) {
        for (std::size_t i = 0; i < data.size(); ++i)
            pm.write(addrs[i], data[i].data(), data[i].size());
    };
    PersistentMemory pm(1 << 16);
    for (std::size_t n : sizes) {
        std::vector<std::uint8_t> d(n);
        for (std::size_t j = 0; j < n; ++j)
            d[j] = static_cast<std::uint8_t>(n * 31 + j * 7 + 1);
        data.push_back(d);
        addrs.push_back(pm.alloc(n + 8, 8) + (n == 1 ? 3 : 0));
    }
    auto durableHolds = [&](const PersistentMemory &m, std::size_t i) {
        return std::memcmp(m.persistedImage() + addrs[i], data[i].data(),
                           data[i].size()) == 0;
    };

    writeAll(pm);
    ASSERT_EQ(pm.inFlightCount(), data.size());
    for (std::size_t i = 0; i < data.size(); ++i) {
        const auto &p = pm.pendingEntry(i);
        EXPECT_EQ(p.addr, addrs[i]);
        ASSERT_EQ(p.bytes.size(), data[i].size());
        EXPECT_FALSE(p.bytes.empty());
        EXPECT_EQ(std::memcmp(p.bytes.data(), data[i].data(),
                              data[i].size()),
                  0)
            << data[i].size() << "-byte persist";
    }

    // snapshot/restore carries the queue (copies of every payload)
    // back after a crash that lost all of it.
    const auto snap = pm.snapshot();
    pm.crash(0);
    ASSERT_EQ(pm.inFlightCount(), 0u);
    pm.restore(snap);
    ASSERT_EQ(pm.inFlightCount(), data.size());
    for (std::size_t i = 0; i < data.size(); ++i) {
        const auto &p = pm.pendingEntry(i);
        ASSERT_EQ(p.bytes.size(), data[i].size());
        EXPECT_EQ(std::memcmp(p.bytes.data(), data[i].data(),
                              data[i].size()),
                  0)
            << data[i].size() << "-byte persist after restore";
    }

    // crash(k): exactly the first k payloads reach the media.
    for (std::size_t k = 0; k <= data.size(); ++k) {
        pm.restore(snap);
        pm.crash(k);
        for (std::size_t i = 0; i < data.size(); ++i)
            EXPECT_EQ(durableHolds(pm, i), i < k)
                << "crash(" << k << "), persist " << i;
    }

    // crashTorn with an all-ones mask lands the frontier whole (the
    // 4096-byte persist spans more than 64 words: only its first 64
    // words land).
    for (std::size_t k = 0; k < data.size(); ++k) {
        pm.restore(snap);
        pm.crashTorn(k, ~std::uint64_t{0});
        const std::size_t n = data[k].size();
        const std::size_t landed =
            std::min<std::size_t>(n, 64 * 8 - (addrs[k] & 7));
        EXPECT_EQ(std::memcmp(pm.persistedImage() + addrs[k],
                              data[k].data(), landed),
                  0)
            << "torn frontier " << n << " bytes";
        for (std::size_t i = 0; i < k; ++i)
            EXPECT_TRUE(durableHolds(pm, i));
    }
}

TEST(PersistentMemory, JournaledRewindAndRebootMatchFullCopies)
{
    // `pm` snapshots, so its reboots, rewinds and compares go through
    // the journal; `ref` never snapshots, so it never journals and
    // every reboot is a whole-image copy. Both take the same random
    // steps; they must never differ in any byte of state, and every
    // rewind of `pm` must land exactly on `base`. Some rounds start
    // by stepping away from `base` and snapshotting again, so the
    // journal restarts there and must capture fresh first-touch
    // pre-images for the rest of the round. The seeds cycle
    // through three kinds of snapshot: images equal with nothing in
    // flight, images unequal (reboots must not take the journal's
    // shortcut), and images equal with persists still in flight
    // (their blocks are not journaled until they land). Sparse
    // snapshots live across rounds, so restoreBlocks() also brings
    // back blocks changed before the journal started.
    int convergedInFlight = 0, diverged = 0, rebases = 0;
    for (std::uint64_t seed = 1; seed <= 30; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        RandomOps ops(seed);
        PersistentMemory pm(RandomOps::kBytes);
        PersistentMemory ref(RandomOps::kBytes);
        for (int i = 0; i < 40; ++i)
            ops.step({&pm, &ref});
        if (seed % 3 == 0) {
            pm.persistAll();
            ref.persistAll();
        } else if (seed % 3 == 2) {
            for (std::size_t i = 0; i < pm.inFlightCount(); ++i) {
                const auto &p = pm.pendingEntry(i);
                pm.overlayDurable(p.addr, p.bytes.data(), p.bytes.size());
                ref.overlayDurable(p.addr, p.bytes.data(), p.bytes.size());
            }
        }
        const bool agree = pm.imagesAgree();
        convergedInFlight += agree && pm.inFlightCount() > 0;
        diverged += !agree;
        PersistentMemory base = ref;
        auto snap = pm.snapshot();
        for (int round = 0; round < 8; ++round) {
            if (round > 0)
                ref = base;
            if (round % 3 == 2) {
                for (int i = 0; i < 10; ++i)
                    ops.step({&pm, &ref});
                expectSameState(pm, ref);
                base = ref;
                snap = pm.snapshot();
                ++rebases;
            }
            for (int i = 0; i < 30; ++i) {
                ops.step({&pm, &ref});
                expectSameState(pm, ref);
                EXPECT_EQ(pm.imagesAgree(),
                          std::memcmp(pm.volatileImage(),
                                      pm.persistedImage(),
                                      pm.size()) == 0);
            }
            const std::vector<Addr> changed = pm.durableChangesSince(snap);
            EXPECT_EQ(changed, durableDiff(pm, base));
            // Laying the changed blocks over the snapshot gives back
            // the live persisted image; leaving one out does not. (A
            // sparse snapshot holds whole blocks only, so a change in
            // the short tail block is always left out.)
            std::vector<Addr> whole = changed;
            const bool tail =
                !whole.empty() && whole.back() + 64 > pm.size();
            if (tail)
                whole.pop_back();
            EXPECT_EQ(pm.durableMatches(snap, pm.snapshotBlocks(whole)),
                      !tail);
            if (!whole.empty()) {
                const std::vector<Addr> partial(whole.begin() + 1,
                                                whole.end());
                EXPECT_FALSE(
                    pm.durableMatches(snap, pm.snapshotBlocks(partial)));
            }
            pm.restore(snap);
            expectSameState(pm, base);
            EXPECT_TRUE(pm.touchedBlocks().empty());
        }
    }
    EXPECT_GT(convergedInFlight, 0);
    EXPECT_GT(diverged, 0);
    EXPECT_GT(rebases, 0);
}

TEST(PersistentMemory, CrashTornIsCrashPlusOverlayTorn)
{
    // crashTorn(k, mask) must equal crash(k) followed by overlayTorn()
    // of in-flight entry k: the crash explorer builds torn frontiers
    // that way on top of a crash(k) image. Seeded persist streams
    // mix word-sized and multi-block persists (some past the 64-word
    // mask width, some unaligned), on PMs with and without a journal.
    std::mt19937_64 rng(2026);
    int widePersists = 0;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        RandomOps ops(seed);
        PersistentMemory torn(RandomOps::kBytes);
        PersistentMemory split(RandomOps::kBytes);
        for (int i = 0; i < 20; ++i)
            ops.step({&torn, &split});
        if (seed % 2 == 0) {
            torn.snapshot();
            split.snapshot();
        }
        for (int i = 0, n = 1 + static_cast<int>(rng() % 12); i < n; ++i) {
            const std::size_t len =
                rng() % 4 == 0 ? 65 + rng() % 600 : 1 + rng() % 24;
            const Addr a = 64 + rng() % (RandomOps::kBytes - 64 - len);
            std::vector<std::uint8_t> bytes(len);
            for (auto &byte : bytes)
                byte = static_cast<std::uint8_t>(rng());
            torn.write(a, bytes.data(), len);
            split.write(a, bytes.data(), len);
        }
        const std::size_t k = rng() % torn.inFlightCount();
        widePersists += torn.pendingEntryWords(k) > 64;
        const std::uint64_t masks[] = {0, ~std::uint64_t{0}, rng(),
                                       rng() & rng()};
        const std::uint64_t mask = masks[seed % 4];
        const PersistentMemory::Pending frontier = split.pendingEntry(k);
        torn.crashTorn(k, mask);
        split.crash(k);
        split.overlayTorn(frontier, mask);
        expectSameState(split, torn);
    }
    EXPECT_GT(widePersists, 0);
}

TEST(PersistentMemory, AccessCountsMatchAnObserversTally)
{
    // The PM counts each access where it calls the observer: a read
    // that throws MediaError is in neither, a write is in both once
    // queued. Seeded mix of every read and write entry point over a
    // region with poisoned words; a second, unobserved PM counts the
    // same.
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        std::mt19937_64 rng(seed);
        PersistentMemory pm(1 << 14);
        PersistentMemory bare(1 << 14);
        const Addr base = pm.alloc(512, 64);
        ASSERT_EQ(bare.alloc(512, 64), base);
        PersistentMemory::AccessCounts tally;
        pm.setObserver([&](MemOp op, Addr, std::uint32_t n) {
            if (op == MemOp::Write) {
                ++tally.writes;
                tally.writeBytes += n;
            } else {
                ++tally.reads;
                tally.readBytes += n;
            }
        });
        int thrown = 0;
        for (int i = 0; i < 2000; ++i) {
            const unsigned kind = static_cast<unsigned>(rng() % 9);
            const std::size_t n = 1 + rng() % 24;
            const Addr a = base + rng() % (512 - 24);
            const Addr w = base + 8 * (rng() % 63);
            std::uint8_t buf[24];
            for (auto &b : buf)
                b = static_cast<std::uint8_t>(rng());
            if (rng() % 16 == 0) {
                pm.poisonWord(a);
                bare.poisonWord(a);
            }
            for (PersistentMemory *m : {&pm, &bare}) {
                try {
                    switch (kind) {
                    case 0: m->read(a, buf, n); break;
                    case 1: m->readDep(a, buf, n); break;
                    case 2: m->readU64(w); break;
                    case 3: m->readU64Dep(w); break;
                    case 4: m->readU32(w); break;
                    case 5: m->write(a, buf, n); break;
                    case 6: m->writeOrdered(a, buf, n); break;
                    case 7: m->writeU64(w, rng()); break;
                    default: m->writeU32(w, 7); break;
                    }
                } catch (const runtime::MediaError &) {
                    thrown += m == &pm;
                }
            }
            if (rng() % 32 == 0) {
                pm.persistAll();
                bare.persistAll();
            }
            const auto &c = pm.accessCounts();
            ASSERT_EQ(c.reads, tally.reads);
            ASSERT_EQ(c.readBytes, tally.readBytes);
            ASSERT_EQ(c.writes, tally.writes);
            ASSERT_EQ(c.writeBytes, tally.writeBytes);
            const auto &b = bare.accessCounts();
            ASSERT_EQ(b.reads, c.reads);
            ASSERT_EQ(b.readBytes, c.readBytes);
            ASSERT_EQ(b.writes, c.writes);
            ASSERT_EQ(b.writeBytes, c.writeBytes);
        }
        EXPECT_GT(thrown, 0);
        EXPECT_GT(tally.reads, 0u);
        EXPECT_GT(tally.writes, 0u);
    }
}

TEST(PersistentMemory, ReusedQueueEntriesMatchAFreshQueue)
{
    // A drain leaves the queue's entries in place for later stores to
    // refill. Warm one PM's queue with persists of every width (some
    // heap-backed, past 64 words) drained by persistAll(), crash()
    // and crashTorn(), one drain past the number of entries kept,
    // rewind it, then drive it and a PM that never
    // queued anything through the same stores, snapshot/restore and
    // torn crash: images and pendingEntry() values must agree.
    constexpr std::size_t kBytes = 1 << 13;
    auto payload = [](std::mt19937_64 &rng, std::size_t n) {
        std::vector<std::uint8_t> v(n);
        for (auto &b : v)
            b = static_cast<std::uint8_t>(rng());
        return v;
    };
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        std::mt19937_64 rng(seed);
        auto width = [&] {
            return rng() % 3 == 0 ? 33 + rng() % 600 : 1 + rng() % 32;
        };
        PersistentMemory reused(kBytes);
        const auto pristine = reused.snapshot();
        for (int drain = 0; drain < 6; ++drain) {
            // The first queue is longer than a drain keeps entries for.
            const int m =
                drain == 0 ? 1100 : 5 + static_cast<int>(rng() % 30);
            for (int i = 0; i < m; ++i) {
                const std::size_t n = width();
                const auto v = payload(rng, n);
                reused.write(64 + rng() % (kBytes - 64 - n), v.data(), n);
            }
            const std::size_t k = rng() % (reused.inFlightCount() + 1);
            if (drain % 3 == 0)
                reused.persistAll();
            else if (drain % 3 == 1)
                reused.crash(k);
            else
                reused.crashTorn(k, rng());
        }
        reused.restore(pristine);

        PersistentMemory fresh(kBytes);
        expectSameState(reused, fresh);
        for (int i = 0, m = 4 + static_cast<int>(rng() % 40); i < m; ++i) {
            const std::size_t n = width();
            const auto v = payload(rng, n);
            const Addr a = 64 + rng() % (kBytes - 64 - n);
            const bool ordered = rng() % 4 == 0;
            for (PersistentMemory *pm : {&reused, &fresh}) {
                if (ordered)
                    pm->writeOrdered(a, v.data(), n);
                else
                    pm->write(a, v.data(), n);
            }
        }
        expectSameState(reused, fresh);

        // Rewinding over a queue the crash dropped refills its
        // entries from the snapshot's copies.
        const auto snap = reused.snapshot();
        const auto snapFresh = fresh.snapshot();
        reused.crash(rng() % (reused.inFlightCount() + 1));
        const auto junk = payload(rng, 200);
        reused.write(64, junk.data(), junk.size());
        reused.restore(snap);
        expectSameState(reused, fresh);
        const auto again = reused.snapshot();
        fresh.restore(snapFresh);
        expectSameState(reused, fresh);

        const std::size_t k = rng() % reused.inFlightCount();
        const std::uint64_t mask = seed % 2 ? ~std::uint64_t{0} : rng();
        reused.crashTorn(k, mask);
        fresh.crashTorn(k, mask);
        expectSameState(reused, fresh);
        reused.restore(again);
        EXPECT_GT(reused.inFlightCount(), k);
    }
}
