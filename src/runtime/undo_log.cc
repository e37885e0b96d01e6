#include "undo_log.hh"

#include <vector>

#include "common/crc32.hh"
#include "common/logging.hh"
#include "runtime/scratch_bytes.hh"

namespace pmemspec::runtime
{

// Region layout: the region header stores the valid-entry count at
// base+0 (base+8 reserved); entries follow from base+16.
//
// Entry layout: [addr:8][size:8][tid:8][crc:8][old bytes:size].
// Write order within logRange: payload first, then the header whose
// crc field seals it, then a 16-byte zero marker over the *next*
// entry slot, then the count bump. Under strict persistency this
// means (a) a counted entry always has a sealed, verifiable header,
// (b) the slot after the counted entries reads as zeros unless the
// crash frontier left torn residue there -- which the CRC then
// exposes instead of recovery trusting it by luck.

namespace
{

/** The 16-byte tombstone the next entry slot must read as. */
constexpr std::size_t markerBytes = 16;

} // namespace

UndoLog::UndoLog(PersistentMemory &pm_, Addr region, std::size_t bytes,
                 unsigned tid_)
    : pm(pm_), base(region), capacity(bytes), tid(tid_)
{
    fatal_if(bytes < headerBytes + entryHeaderBytes + markerBytes,
             "undo log region too small");
}

std::uint32_t
UndoLog::entryCrc(Addr addr, std::uint64_t size,
                  const std::uint8_t *payload) const
{
    std::uint8_t head[24];
    const std::uint64_t a = addr;
    const std::uint64_t t = tid;
    std::memcpy(head, &a, 8);
    std::memcpy(head + 8, &size, 8);
    std::memcpy(head + 16, &t, 8);
    const std::uint32_t seed = crc32c(head, sizeof(head));
    return crc32c(payload, size, seed);
}

void
UndoLog::reset()
{
    pm.writeU64(base, 0);
    // Tombstone the first entry slot so recovery can tell "empty
    // log" from "torn residue at the frontier".
    pm.writeU64(base + headerBytes, 0);
    pm.writeU64(base + headerBytes + 8, 0);
    writeOffset = headerBytes;
}

std::uint64_t
UndoLog::entryCount() const
{
    return pm.readU64(base);
}

void
UndoLog::logRange(Addr addr, std::size_t size)
{
    const std::size_t need = entryHeaderBytes + size;
    fatal_if(writeOffset + need + markerBytes > capacity,
             "undo log overflow: %zu + %zu > %zu", writeOffset,
             need + markerBytes, capacity);

    ScratchBytes old(size);
    pm.read(addr, old.data(), size);

    const Addr entry = base + writeOffset;
    // Payload first; the sealing header follows it in the persist
    // order, so a torn payload can never sit under a valid header.
    pm.write(entry + entryHeaderBytes, old.data(), size);
    std::uint8_t head[entryHeaderBytes];
    const std::uint64_t a = addr;
    const std::uint64_t s = size;
    const std::uint64_t t = tid;
    const std::uint64_t crc = entryCrc(addr, s, old.data());
    std::memcpy(head, &a, 8);
    std::memcpy(head + 8, &s, 8);
    std::memcpy(head + 16, &t, 8);
    std::memcpy(head + 24, &crc, 8);
    pm.write(entry, head, sizeof(head));
    writeOffset += need;
    // Tombstone the next slot, then bump the count: the validity
    // marker persists last (strict persistency guarantees it; the
    // ordering tag asserts the same constraint to the speculative
    // window, where store order alone is NOT enough).
    pm.writeU64(base + writeOffset, 0);
    pm.writeU64(base + writeOffset + 8, 0);
    writeCount(entryCount() + 1);
}

void
UndoLog::writeCount(std::uint64_t n)
{
    if (orderingTags)
        pm.writeU64Ordered(base, n);
    else
        pm.writeU64(base, n);
}

void
UndoLog::commit()
{
    writeCount(0);
    // Tombstone the first slot *after* the truncation so a crash
    // between the two writes still finds intact entries to undo.
    pm.writeU64(base + headerBytes, 0);
    pm.writeU64(base + headerBytes + 8, 0);
    writeOffset = headerBytes;
}

bool
UndoLog::needsRecovery() const
{
    return entryCount() != 0;
}

UndoRecoveryResult
UndoLog::recover()
{
    UndoRecoveryResult res;

    auto corrupt = [&](std::uint64_t remaining, std::string what) {
        res.discardedCorrupt += remaining;
        res.consistent = false;
        if (res.detail.empty())
            res.detail = std::move(what);
    };

    std::uint64_t n = 0;
    bool header_readable = true;
    try {
        n = pm.readU64(base);
    } catch (const MediaError &) {
        header_readable = false;
        res.consistent = false;
        res.detail = "log entry count is unreadable (poisoned)";
    }

    // Verify every counted entry before touching any data: recovery
    // must be able to promise the full replay before starting it.
    struct Verified
    {
        Addr target;
        std::vector<std::uint8_t> old;
    };
    std::vector<Verified> ents;
    std::size_t off = headerBytes;
    if (header_readable) {
        for (std::uint64_t i = 0; i < n; ++i) {
            if (off + entryHeaderBytes + markerBytes > capacity) {
                corrupt(n - i, "entry " + std::to_string(i) +
                                   " extends past the log region");
                break;
            }
            const Addr entry = base + off;
            Verified v;
            std::uint64_t size = 0;
            std::uint64_t stored_crc = 0;
            try {
                v.target = pm.readU64(entry);
                size = pm.readU64(entry + 8);
                (void)pm.readU64(entry + 16); // tid: diagnostics only
                stored_crc = pm.readU64(entry + 24);
                if (size == 0 ||
                    off + entryHeaderBytes + size + markerBytes >
                        capacity) {
                    corrupt(n - i, "entry " + std::to_string(i) +
                                       " has an implausible size");
                    break;
                }
                v.old.resize(size);
                pm.read(entry + entryHeaderBytes, v.old.data(), size);
            } catch (const MediaError &e) {
                corrupt(n - i,
                        "entry " + std::to_string(i) +
                            " overlaps a poisoned word at " +
                            std::to_string(e.addr));
                break;
            }
            if (entryCrc(v.target, size, v.old.data()) != stored_crc) {
                corrupt(n - i, "entry " + std::to_string(i) +
                                   " failed its checksum");
                break;
            }
            ents.push_back(std::move(v));
            off += entryHeaderBytes + size;
        }
    }

    if (!res.consistent) {
        // Fail-safe: a corrupt counted entry means the pre-image is
        // partly unknown; replaying a subset could itself corrupt.
        // Leave the log un-truncated for diagnosis and replay
        // nothing -- the caller escalates.
        return res;
    }

    // The slot past the counted entries is the crash frontier. It
    // was tombstoned before the last count bump, so any non-zero
    // residue is a torn or never-committed entry -- detected and
    // discarded, not replayed.
    try {
        if (pm.readU64(base + off) != 0 ||
            pm.readU64(base + off + 8) != 0)
            res.discardedTorn = 1;
    } catch (const MediaError &) {
        res.discardedTorn = 1;
    }

    for (auto it = ents.rbegin(); it != ents.rend(); ++it)
        pm.write(it->target, it->old.data(), it->old.size());
    res.replayed = ents.size();

    // Quarantine: scrub any poisoned word in the log region with a
    // fresh write (healing the media) so the next FASE can log here.
    for (Addr w : pm.poisonedWordsIn(base, capacity)) {
        pm.writeU64(w, 0);
        ++res.poisonedQuarantined;
    }

    commit();
    // Recovery itself must be durable before execution resumes.
    pm.persistAll();
    writeOffset = headerBytes;
    return res;
}

} // namespace pmemspec::runtime
