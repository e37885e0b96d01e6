/**
 * @file
 * Per-thread undo log living in persistent memory.
 *
 * The microbenchmarks of Table 4 "provide failure-atomicity via
 * undo-logging"; this is that log. Discipline (under strict
 * persistency, which guarantees persists land in store order):
 *
 *   append entry (header, payload, checksum last) -> zero the next
 *   entry slot -> bump the persisted entry count (the count is the
 *   validity marker) -> mutate data in place -> commit truncates the
 *   count back to zero.
 *
 * Entry layout: [addr:8][size:8][tid:8][crc:8][old bytes:size]. The
 * CRC-32C covers addr, size, tid and the payload and is written
 * *last*, so under the extended failure model -- torn multi-word
 * writes at the crash frontier, media bit rot, poisoned words -- a
 * damaged entry is *detected* rather than skipped-by-luck:
 *
 *  - a counted entry that fails its CRC can only be media corruption
 *    (its payload persisted before the count under strict
 *    persistency), so recovery refuses to replay anything and
 *    reports an inconsistent verdict (fail-safe, never garbage);
 *  - bytes after the counted entries are the crash frontier: the
 *    zeroed next-entry slot means any non-zero residue there is a
 *    torn or uncommitted entry, reported as discarded-torn and never
 *    replayed;
 *  - poisoned words inside the log region are quarantined: recovery
 *    scrubs them with fresh writes (healing the media) and counts
 *    them in the result.
 *
 * After a crash (or a virtual power failure, i.e. misspeculation)
 * recovery verifies every counted entry, walks them in reverse
 * restoring the old bytes, then truncates.
 */

#ifndef PMEMSPEC_RUNTIME_UNDO_LOG_HH
#define PMEMSPEC_RUNTIME_UNDO_LOG_HH

#include <cstdint>
#include <string>

#include "runtime/persistent_memory.hh"

namespace pmemspec::runtime
{

/** What one UndoLog::recover() call did -- the per-log slice of the
 *  runtime's RecoveryReport. */
struct UndoRecoveryResult
{
    /** Verified entries whose old bytes were restored. */
    std::uint64_t replayed = 0;
    /** Torn/uncommitted frontier residue detected past the counted
     *  entries; never replayed, harmless to discard. */
    std::uint64_t discardedTorn = 0;
    /** Counted entries failing verification (bit rot or poison);
     *  never replayed -- their presence makes recovery unsafe. */
    std::uint64_t discardedCorrupt = 0;
    /** Poisoned words inside the log region healed by scrubbing. */
    std::uint64_t poisonedQuarantined = 0;
    /** Fail-safe verdict: false iff corrupt counted entries (or an
     *  unreadable header) forced recovery to refuse the replay. */
    bool consistent = true;
    /** Human-readable description of the first defect found. */
    std::string detail;
};

/** An undo log in a fixed PM region. */
class UndoLog
{
  public:
    /**
     * @param region Base address of the log region in PM.
     * @param bytes  Region capacity (header + entries).
     * @param tid    Owning thread, recorded in every entry header.
     */
    UndoLog(PersistentMemory &pm, Addr region, std::size_t bytes,
            unsigned tid = 0);

    /** Initialise a fresh (empty, committed) log. */
    void reset();

    /** Record the current contents of [addr, addr+size) so they can
     *  be restored on abort. Must precede the data mutation. */
    void logRange(Addr addr, std::size_t size);

    /** The FASE committed: truncate the log. */
    void commit();

    /** @return true if uncommitted entries exist (crash recovery or
     *  misspeculation abort must run). Reads the *volatile* image;
     *  after PersistentMemory::crash() that equals the durable one. */
    bool needsRecovery() const;

    /**
     * Verify every counted entry, restore old values (reverse order)
     * and truncate. Works both as crash recovery and as a
     * transaction abort handler. Safe to call with zero valid
     * entries: it then only resynchronises the volatile write cursor
     * with the (empty) durable log.
     *
     * Fail-safe contract: if any *counted* entry fails verification
     * the log replays nothing, stays un-truncated (diagnosable), and
     * the result carries consistent=false -- the caller decides
     * whether that is fatal (FaseRuntime raises
     * UnrecoverableCorruption). Torn frontier residue past the
     * counted entries is detected, reported and safely discarded.
     */
    UndoRecoveryResult recover();

    /** Uncommitted entries currently in the log. */
    std::uint64_t entryCount() const;

    /**
     * Whether the log's *publication* persists -- the count bump
     * that makes an entry valid and the commit truncation -- carry
     * the ordering (spec-barrier) tag the crash-state reorder
     * explorer honours. On by default: the paper's discipline places
     * a spec-barrier before each of them, so neither may be
     * reordered with its preceding payload/data persists inside the
     * speculation window. Turning it off deliberately *breaks* that
     * discipline -- it models an undo log whose author skipped the
     * barriers -- and exists so the checker can prove it catches the
     * resulting WAW-inversion bug (known-bad oracle test).
     */
    void setOrderingTags(bool on) { orderingTags = on; }

    Addr regionBase() const { return base; }

    /** Region capacity in bytes. */
    std::size_t regionBytes() const { return capacity; }

    /** Per-entry overhead: addr, size, tid, crc (8 bytes each). */
    static constexpr std::size_t entryHeaderBytes = 32;

  private:
    static constexpr std::size_t headerBytes = 16;

    /** Checksum of one entry: header fields chained with payload. */
    std::uint32_t entryCrc(Addr addr, std::uint64_t size,
                           const std::uint8_t *payload) const;

    /** The count write, tagged or not per `orderingTags`. */
    void writeCount(std::uint64_t n);

    PersistentMemory &pm;
    Addr base;
    std::size_t capacity;
    unsigned tid;
    std::size_t writeOffset = headerBytes;
    bool orderingTags = true;
};

} // namespace pmemspec::runtime

#endif // PMEMSPEC_RUNTIME_UNDO_LOG_HH
