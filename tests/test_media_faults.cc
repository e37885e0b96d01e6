/**
 * @file
 * Tests for the extended failure model: torn frontier persists,
 * poisoned (uncorrectable) words, silent bit rot, and the undo log's
 * checksummed defence against all three. The acceptance fixture of
 * the robustness work lives here too: a deliberately unchecksummed
 * log must be *detected* as corrupt, never replayed. A seeded fuzz
 * throws all of them together at the full FASE runtime.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <set>
#include <vector>

#include "common/rng.hh"
#include "faultinject/fault_injector.hh"
#include "faultinject/fault_plan.hh"
#include "runtime/fase_runtime.hh"
#include "runtime/persistent_memory.hh"
#include "runtime/undo_log.hh"
#include "runtime/virtual_os.hh"

using namespace pmemspec;
using runtime::MediaError;
using runtime::PersistentMemory;
using runtime::UndoLog;

// ---------------------------------------------------------------
// PersistentMemory: torn crashes
// ---------------------------------------------------------------

TEST(TornCrash, FrontierWordSubsetLands)
{
    PersistentMemory pm(1 << 16);
    const Addr a = pm.alloc(32, 8);
    for (int i = 0; i < 4; ++i)
        pm.writeU64(a + 8 * static_cast<Addr>(i), 10 + i);
    pm.persistAll();

    // One 32-byte store = one pending persist spanning four words.
    std::uint64_t neu[4] = {20, 21, 22, 23};
    pm.write(a, neu, sizeof(neu));
    ASSERT_EQ(pm.inFlightCount(), 1u);
    EXPECT_EQ(pm.pendingEntryWords(0), 4u);

    // Tear it: words 0 and 2 durable, words 1 and 3 lost.
    pm.crashTorn(0, 0b0101);
    EXPECT_EQ(pm.readU64(a), 20u);
    EXPECT_EQ(pm.readU64(a + 8), 11u);
    EXPECT_EQ(pm.readU64(a + 16), 22u);
    EXPECT_EQ(pm.readU64(a + 24), 13u);
    // Reboot semantics: the volatile image equals the durable one.
    EXPECT_EQ(std::memcmp(pm.volatileImage(), pm.persistedImage(),
                          pm.size()),
              0);
}

TEST(TornCrash, ZeroMaskDegeneratesToCleanPrefix)
{
    PersistentMemory pm(1 << 16);
    const Addr a = pm.alloc(16, 8);
    pm.writeU64(a, 1);
    pm.writeU64(a + 8, 1);
    pm.persistAll();
    pm.writeU64(a, 2);
    pm.writeU64(a + 8, 2);
    pm.crashTorn(1, 0);
    EXPECT_EQ(pm.readU64(a), 2u);
    EXPECT_EQ(pm.readU64(a + 8), 1u);
}

TEST(TornCrash, FullMaskEqualsNextPrefix)
{
    PersistentMemory pm(1 << 16);
    const Addr a = pm.alloc(16, 8);
    std::uint64_t init[2] = {1, 1};
    pm.write(a, init, sizeof(init));
    pm.persistAll();
    std::uint64_t neu[2] = {2, 3};
    pm.write(a, neu, sizeof(neu));
    pm.crashTorn(0, 0b11);
    EXPECT_EQ(pm.readU64(a), 2u);
    EXPECT_EQ(pm.readU64(a + 8), 3u);
}

TEST(TornCrash, UnalignedPendingEntrySpansOverlappedWords)
{
    PersistentMemory pm(1 << 16);
    const Addr a = pm.alloc(64, 8);
    pm.persistAll();
    std::uint8_t buf[12] = {};
    // [a+4, a+16) straddles the words at a and a+8.
    pm.write(a + 4, buf, sizeof(buf));
    ASSERT_EQ(pm.inFlightCount(), 1u);
    EXPECT_EQ(pm.pendingEntryWords(0), 2u);
}

// ---------------------------------------------------------------
// PersistentMemory: poison and bit rot
// ---------------------------------------------------------------

TEST(Poison, ReadOverlappingPoisonThrowsMediaError)
{
    PersistentMemory pm(1 << 16);
    const Addr a = pm.alloc(64, 8);
    pm.writeU64(a + 16, 7);
    pm.persistAll();
    pm.poisonWord(a + 16);

    EXPECT_TRUE(pm.isPoisoned(a + 16));
    EXPECT_THROW(pm.readU64(a + 16), MediaError);
    // Any overlapping range faults, not just the exact word...
    std::uint8_t buf[32];
    EXPECT_THROW(pm.read(a, buf, 32), MediaError);
    // ...but disjoint reads still work (graceful degradation).
    EXPECT_NO_THROW(pm.readU64(a));
    EXPECT_NO_THROW(pm.readU64(a + 24));
    try {
        pm.readU64(a + 16);
        FAIL() << "expected MediaError";
    } catch (const MediaError &e) {
        EXPECT_EQ(e.addr, a + 16);
    }
}

TEST(Poison, FullWordOverwriteHeals)
{
    PersistentMemory pm(1 << 16);
    const Addr a = pm.alloc(16, 8);
    pm.poisonWord(a);
    // A partial store cannot remap the line: still poisoned.
    std::uint8_t half[4] = {1, 2, 3, 4};
    pm.write(a, half, sizeof(half));
    EXPECT_TRUE(pm.isPoisoned(a));
    // A full 8-byte overwrite heals it.
    pm.writeU64(a, 42);
    EXPECT_FALSE(pm.isPoisoned(a));
    EXPECT_EQ(pm.readU64(a), 42u);
}

TEST(Poison, PartialOverlapHealsOnlyCoveredWords)
{
    PersistentMemory pm(1 << 16);
    const Addr w = pm.alloc(24, 8);
    pm.poisonWord(w);
    pm.poisonWord(w + 8);
    pm.poisonWord(w + 16);
    // [w+4, w+20) covers only the middle word whole.
    const std::uint8_t bytes[16] = {};
    pm.write(w + 4, bytes, sizeof(bytes));
    EXPECT_TRUE(pm.isPoisoned(w));
    EXPECT_FALSE(pm.isPoisoned(w + 8));
    EXPECT_TRUE(pm.isPoisoned(w + 16));
}

// The store's heal erases one address range from the poison set; it
// must leave the set exactly as the rule applied word by word does.
TEST(Poison, RangeHealMatchesThePerWordRule)
{
    constexpr std::size_t region = 128;
    PersistentMemory pm(1 << 16);
    const Addr base = pm.alloc(region, 64);
    const std::uint8_t zeros[region] = {};
    std::set<Addr> model;
    Rng rng(20260419);
    for (int round = 0; round < 4000; ++round) {
        for (auto k = rng.below(4); k > 0; --k) {
            const Addr w = base + 8 * rng.below(region / 8);
            pm.poisonWord(w);
            model.insert(w);
        }
        const Addr a = base + rng.below(region);
        const std::size_t n = rng.below(base + region - a + 1);
        pm.write(a, zeros, n);
        pm.persistAll();
        // A word heals iff the store covers all 8 of its bytes.
        for (Addr w = a & ~Addr{7}; w < a + n; w += 8)
            if (w >= a && w + 8 <= a + n)
                model.erase(w);
        ASSERT_EQ(pm.poisonedWordsIn(base, region),
                  std::vector<Addr>(model.begin(), model.end()))
            << "round " << round << ": store [" << a - base << ", +" << n
            << ")";
    }
}

TEST(Poison, ExplicitClearAndEnumeration)
{
    PersistentMemory pm(1 << 16);
    const Addr a = pm.alloc(64, 8);
    pm.poisonWord(a + 8);
    pm.poisonWord(a + 40);
    const auto in_range = pm.poisonedWordsIn(a, 64);
    ASSERT_EQ(in_range.size(), 2u);
    EXPECT_EQ(in_range[0], a + 8);
    EXPECT_EQ(in_range[1], a + 40);
    EXPECT_TRUE(pm.poisonedWordsIn(a + 16, 16).empty());
    EXPECT_TRUE(pm.clearPoison(a + 8));
    EXPECT_FALSE(pm.clearPoison(a + 8));
    EXPECT_EQ(pm.poisonedWordCount(), 1u);
}

TEST(Poison, SnapshotRestoreCarriesThePoisonSet)
{
    PersistentMemory pm(1 << 16);
    const Addr a = pm.alloc(16, 8);
    pm.poisonWord(a);
    const auto snap = pm.snapshot();
    pm.clearPoison(a);
    pm.poisonWord(a + 8);
    pm.restore(snap);
    EXPECT_TRUE(pm.isPoisoned(a));
    EXPECT_FALSE(pm.isPoisoned(a + 8));
}

TEST(BitRot, CorruptWordIsSilentAndDurable)
{
    PersistentMemory pm(1 << 16);
    const Addr a = pm.alloc(16, 8);
    pm.writeU64(a, 0xFF00);
    pm.persistAll();
    bool observed = false;
    pm.setObserver([&](runtime::MemOp, Addr, std::uint32_t) {
        observed = true;
    });
    pm.corruptWord(a, 0x0F0F);
    pm.setObserver(nullptr);
    EXPECT_FALSE(observed) << "bit rot must not look like an access";
    EXPECT_EQ(pm.readU64(a), 0xFF00u ^ 0x0F0Fu);
    std::uint64_t durable = 0;
    std::memcpy(&durable, pm.persistedImage() + a, 8);
    EXPECT_EQ(durable, 0xFF00u ^ 0x0F0Fu);
}

// ---------------------------------------------------------------
// UndoLog: checksummed recovery under media faults
// ---------------------------------------------------------------

namespace
{

struct LogHarness
{
    PersistentMemory pm{1 << 20};
    Addr region;
    UndoLog log;
    Addr data;

    LogHarness()
        : region(pm.alloc(1 << 14, 64)),
          log(pm, region, 1 << 14),
          data(pm.alloc(256, 64))
    {
        log.reset();
        for (Addr a = data; a < data + 256; a += 8)
            pm.writeU64(a, 0xAA);
        pm.persistAll();
    }
};

/** Offsets into the log region (mirrors the entry layout). */
constexpr std::size_t regionHeaderBytes = 16;

} // namespace

TEST(ChecksummedRecovery, BitFlipInCountedEntryRefusesReplay)
{
    LogHarness h;
    h.log.logRange(h.data, 8);
    h.pm.writeU64(h.data, 0xBB);
    h.pm.persistAll();

    // Rot one payload byte beneath the checksum.
    const Addr payload =
        h.region + regionHeaderBytes + UndoLog::entryHeaderBytes;
    h.pm.corruptWord(payload, 0x1);

    const auto res = h.log.recover();
    EXPECT_FALSE(res.consistent);
    EXPECT_EQ(res.replayed, 0u);
    EXPECT_EQ(res.discardedCorrupt, 1u);
    EXPECT_NE(res.detail.find("checksum"), std::string::npos)
        << res.detail;
    // Fail-safe: nothing was replayed, the log was not truncated.
    EXPECT_EQ(h.pm.readU64(h.data), 0xBBu);
    EXPECT_TRUE(h.log.needsRecovery());
}

TEST(ChecksummedRecovery, BitFlipInEntryHeaderRefusesReplay)
{
    LogHarness h;
    h.log.logRange(h.data, 8);
    h.pm.writeU64(h.data, 0xBB);
    h.pm.persistAll();

    // Rot the entry's target-address field: replaying it would write
    // 0xAA to the wrong place. The CRC covers the header, so this is
    // caught the same way.
    h.pm.corruptWord(h.region + regionHeaderBytes, 0x40);

    const auto res = h.log.recover();
    EXPECT_FALSE(res.consistent);
    EXPECT_EQ(res.replayed, 0u);
    EXPECT_EQ(h.pm.readU64(h.data), 0xBBu);
}

TEST(ChecksummedRecovery, CorruptionBehindValidEntriesStopsEverything)
{
    LogHarness h;
    h.log.logRange(h.data, 8);
    h.pm.writeU64(h.data, 0xBB);
    h.log.logRange(h.data + 64, 8);
    h.pm.writeU64(h.data + 64, 0xCC);
    h.pm.persistAll();

    // Corrupt only the *second* entry; the first verifies fine, but
    // a partial replay could still tear the pre-image, so recovery
    // must refuse wholesale.
    const std::size_t entry1 = regionHeaderBytes +
                               UndoLog::entryHeaderBytes + 8;
    h.pm.corruptWord(h.region + entry1 + UndoLog::entryHeaderBytes,
                     0x1);

    const auto res = h.log.recover();
    EXPECT_FALSE(res.consistent);
    EXPECT_EQ(res.replayed, 0u);
    EXPECT_EQ(res.discardedCorrupt, 1u);
    EXPECT_EQ(h.pm.readU64(h.data), 0xBBu)
        << "the valid first entry must not have been replayed";
}

TEST(ChecksummedRecovery, TornFrontierEntryDetectedAndDiscarded)
{
    LogHarness h;
    // A FASE starts logging a 32-byte range but power fails while
    // the entry is in flight: keep the payload persist, tear the
    // header persist (addr and tid words land, size and crc do not).
    h.log.logRange(h.data, 32);
    ASSERT_GE(h.pm.inFlightCount(), 5u); // payload, header, 2 tombs, count
    h.pm.crashTorn(1, 0b0101);

    UndoLog rebooted(h.pm, h.region, 1 << 14);
    EXPECT_FALSE(rebooted.needsRecovery()) << "count never bumped";
    const auto res = rebooted.recover();
    EXPECT_TRUE(res.consistent);
    EXPECT_EQ(res.replayed, 0u);
    EXPECT_EQ(res.discardedTorn, 1u)
        << "torn residue at the frontier must be reported";
    EXPECT_EQ(h.pm.readU64(h.data), 0xAAu);
}

TEST(ChecksummedRecovery, CleanFrontierReportsNoTornDiscards)
{
    LogHarness h;
    h.log.logRange(h.data, 8);
    h.pm.writeU64(h.data, 0xBB);
    h.pm.persistAll();
    const auto res = h.log.recover();
    EXPECT_TRUE(res.consistent);
    EXPECT_EQ(res.replayed, 1u);
    EXPECT_EQ(res.discardedTorn, 0u);
    EXPECT_EQ(res.discardedCorrupt, 0u);
    EXPECT_EQ(h.pm.readU64(h.data), 0xAAu);
}

TEST(ChecksummedRecovery, PoisonedLogWordsAreQuarantined)
{
    LogHarness h;
    // Poison scratch space past the (empty) log's frontier slot.
    h.pm.poisonWord(h.region + 1024);
    h.pm.poisonWord(h.region + 2048);
    const auto res = h.log.recover();
    EXPECT_TRUE(res.consistent);
    EXPECT_EQ(res.poisonedQuarantined, 2u);
    EXPECT_FALSE(h.pm.isPoisoned(h.region + 1024));
    EXPECT_FALSE(h.pm.isPoisoned(h.region + 2048));
}

TEST(ChecksummedRecovery, PoisonedCountedEntryRefusesReplay)
{
    LogHarness h;
    h.log.logRange(h.data, 8);
    h.pm.writeU64(h.data, 0xBB);
    h.pm.persistAll();
    h.pm.poisonWord(h.region + regionHeaderBytes +
                    UndoLog::entryHeaderBytes);
    const auto res = h.log.recover();
    EXPECT_FALSE(res.consistent);
    EXPECT_EQ(res.replayed, 0u);
    EXPECT_NE(res.detail.find("poison"), std::string::npos)
        << res.detail;
    EXPECT_EQ(h.pm.readU64(h.data), 0xBBu);
}

TEST(ChecksummedRecovery, PoisonedCountWordRefusesRecovery)
{
    LogHarness h;
    h.pm.poisonWord(h.region); // the entry count itself
    const auto res = h.log.recover();
    EXPECT_FALSE(res.consistent);
    EXPECT_EQ(res.replayed, 0u);
}

// ---------------------------------------------------------------
// Acceptance fixture: a log written *without* checksums (as a
// pre-robustness implementation would have) must be detected as
// corrupt and refused, not replayed.
// ---------------------------------------------------------------

TEST(ChecksummedRecovery, UnchecksummedLogFixtureIsRefused)
{
    PersistentMemory pm(1 << 20);
    const Addr region = pm.alloc(1 << 14, 64);
    const Addr data = pm.alloc(64, 64);
    pm.writeU64(data, 0xAB);
    pm.persistAll();

    // Hand-craft one entry the way a checksum-less logger would:
    // header fields present, crc field never filled in.
    const Addr entry = region + regionHeaderBytes;
    pm.writeU64(entry, data);      // target addr
    pm.writeU64(entry + 8, 8);     // size
    pm.writeU64(entry + 16, 0);    // tid
    pm.writeU64(entry + 24, 0);    // crc: absent
    pm.writeU64(entry + UndoLog::entryHeaderBytes, 0xCD); // old bytes
    pm.writeU64(region, 1);        // count vouches for the entry
    pm.persistAll();

    UndoLog log(pm, region, 1 << 14);
    ASSERT_TRUE(log.needsRecovery());
    const auto res = log.recover();
    EXPECT_FALSE(res.consistent);
    EXPECT_EQ(res.replayed, 0u);
    EXPECT_EQ(res.discardedCorrupt, 1u);
    EXPECT_EQ(pm.readU64(data), 0xABu)
        << "the unverifiable entry must not have been replayed";
    EXPECT_TRUE(log.needsRecovery())
        << "a refused log stays un-truncated for diagnosis";
}

// ---------------------------------------------------------------
// Seeded media-fault fuzz through the full FASE runtime
// ---------------------------------------------------------------

/**
 * Each round runs one logged 4-word update and throws a random subset
 * of the extended failure model at it: a power cut at a random
 * persist prefix, optionally torn, optionally followed by bit rot or
 * poison in the undo log. The fail-safe contract must hold every
 * round: recovery ends in all-old, all-new, or an explicit
 * UnrecoverableCorruption -- anything else is silent corruption.
 */
TEST(MediaFaultFuzz, EveryRoundIsAllOldAllNewOrExplicitlyRefused)
{
    constexpr std::uint64_t seed = 2026;
    constexpr std::size_t rounds = 200;
    Rng rng(seed);
    std::size_t cuts = 0, torn = 0, rotted = 0, poisons = 0,
                refusals = 0;
    for (std::size_t round = 0; round < rounds; ++round) {
        PersistentMemory pm(1 << 20);
        runtime::VirtualOs os;
        runtime::FaseRuntime rt(pm, os, 1,
                                runtime::RecoveryPolicy::Lazy, 1 << 14);
        faultinject::FaultInjector inj(pm, os);
        const Addr data = pm.alloc(32, 64);
        for (unsigned i = 0; i < 4; ++i)
            pm.writeU64(data + 8 * i, 100 + i);
        pm.persistAll();
        inj.attach();

        // A FASE touching one block: payload + header + 2 tombstones
        // + count + 4 data words + commit = at most ~12 persists.
        const std::size_t k = rng.below(14);
        if (rng.chance(0.5)) {
            inj.addPlan(std::make_unique<faultinject::PowerCutPlan>(
                k, rng.next() | 1));
            ++torn;
        } else {
            inj.addPlan(std::make_unique<faultinject::PowerCutPlan>(k));
        }
        bool crashed = false;
        try {
            rt.runFase(0, [&](runtime::Transaction &tx) {
                for (unsigned i = 0; i < 4; ++i)
                    tx.writeU64(data + 8 * i, 200 + i);
            });
        } catch (const faultinject::PowerFailure &) {
            crashed = true;
            ++cuts;
        }
        inj.clearPlans();

        // Half the media faults hit the log's live head (region header
        // plus this FASE's one entry: 16 + 32 + 64 bytes), where they
        // can land in a counted entry; the rest hit any log word.
        const auto [log_base, log_bytes] = rt.logRegion(0);
        auto logWord = [&, log_base = log_base, log_bytes = log_bytes] {
            const std::size_t words =
                rng.chance(0.5) ? 16 : log_bytes / 8;
            return log_base + 8 * rng.below(words);
        };
        if (crashed && rng.chance(0.3)) {
            inj.injectBitFlip(logWord(), rng.next());
            ++rotted;
        }
        if (crashed && rng.chance(0.3)) {
            inj.injectPoison(logWord());
            ++poisons;
        }

        try {
            rt.recoverAll();
        } catch (const runtime::UnrecoverableCorruption &) {
            ++refusals; // explicit report: the contract held
            continue;
        }
        pm.persistAll();
        const std::uint64_t first = pm.readU64(data);
        ASSERT_TRUE(first == 100 || first == 200)
            << "round " << round << " (seed " << seed
            << "): data[0] = " << first;
        for (unsigned i = 1; i < 4; ++i)
            ASSERT_EQ(pm.readU64(data + 8 * i), first + i)
                << "round " << round << " (seed " << seed
                << "): silent corruption in data[" << i << "]";
    }
    // Every fault kind fired, so the oracle was actually exercised.
    EXPECT_GE(cuts, 1u);
    EXPECT_GE(torn, 1u);
    EXPECT_GE(rotted, 1u);
    EXPECT_GE(poisons, 1u);
    EXPECT_GE(refusals, 1u);
}
