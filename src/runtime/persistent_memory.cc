#include "persistent_memory.hh"

#include <algorithm>
#include <atomic>
#include <limits>

#include "common/logging.hh"

namespace pmemspec::runtime
{

namespace
{

constexpr Addr wordBytes = 8;

constexpr Addr
wordAlign(Addr a)
{
    return a & ~(wordBytes - 1);
}

/** Snapshot ids are unique across every PM in the process, so a
 *  snapshot of one space can never pass for another's journal base. */
std::atomic<std::uint64_t> lastSnapshotId{0};

} // namespace

void
PersistBytes::grow(std::size_t count)
{
    panic_if(count > std::numeric_limits<std::uint32_t>::max(),
             "persist of %zu bytes is too large", count);
    release();
    heap = new std::uint8_t[count];
    cap = static_cast<std::uint32_t>(count);
}

PersistentMemory::PersistentMemory(std::size_t bytes)
    : volatileImg(bytes, 0), persistedImg(bytes, 0)
{
    fatal_if(bytes < 1024, "PM space of %zu bytes is too small", bytes);
}

void
PersistentMemory::checkRange(Addr a, std::size_t n) const
{
    panic_if(a == 0, "null PM access");
    panic_if(a + n > volatileImg.size(),
             "PM access out of range: [%#llx, +%zu) in %zu-byte space",
             static_cast<unsigned long long>(a), n, volatileImg.size());
}

void
PersistentMemory::checkPoison(Addr a, std::size_t n) const
{
    if (poisoned.empty() || n == 0)
        return;
    // The set is ordered: the first poisoned word at or after the
    // range's first word decides.
    auto it = poisoned.lower_bound(wordAlign(a));
    if (it != poisoned.end() && *it < a + n)
        throw MediaError{*it};
}

Addr
PersistentMemory::alloc(std::size_t n, std::size_t align)
{
    panic_if(align == 0 || (align & (align - 1)) != 0 ||
                 align > blockBytes,
             "alloc alignment must be a power of two up to %u",
             blockBytes);
    std::size_t base = (brk + align - 1) & ~(align - 1);
    fatal_if(base + n > volatileImg.size(),
             "PM arena exhausted: need %zu at %zu of %zu", n, base,
             volatileImg.size());
    brk = base + n;
    return static_cast<Addr>(base);
}

void
PersistentMemory::writeTagged(Addr a, const void *src, std::size_t n,
                              bool ordered)
{
    checkRange(a, n);
    touch(a, n);
    copyBytes(volatileImg.data() + a, src, n);
    // A full 8-byte overwrite of a poisoned word heals it (the
    // device remaps the line when fresh data arrives); a partial
    // overwrite leaves the word uncorrectable. The words the store
    // covers whole are those with bases in [ceil8(a), floor8(a+n)).
    if (!poisoned.empty()) {
        const Addr lo = wordAlign(a + wordBytes - 1);
        const Addr hi = wordAlign(a + n);
        if (lo < hi)
            poisoned.erase(poisoned.lower_bound(lo),
                           poisoned.lower_bound(hi));
    }
    if (live == inFlight.size())
        inFlight.emplace_back();
    Pending &p = inFlight[live++];
    p.addr = a;
    p.bytes.assign(static_cast<const std::uint8_t *>(src),
                   static_cast<const std::uint8_t *>(src) + n);
    p.specId = nextSpec++;
    p.ordered = ordered;
    ++counts.writes;
    counts.writeBytes += n;
    if (observer)
        observer(MemOp::Write, a, static_cast<std::uint32_t>(n));
}

void
PersistentMemory::write(Addr a, const void *src, std::size_t n)
{
    writeTagged(a, src, n, false);
}

void
PersistentMemory::writeOrdered(Addr a, const void *src, std::size_t n)
{
    writeTagged(a, src, n, true);
}

void
PersistentMemory::writeU64Ordered(Addr a, std::uint64_t v)
{
    writeOrdered(a, &v, sizeof(v));
}

void
PersistentMemory::read(Addr a, void *dst, std::size_t n) const
{
    checkRange(a, n);
    checkPoison(a, n);
    copyBytes(dst, volatileImg.data() + a, n);
    ++counts.reads;
    counts.readBytes += n;
    if (observer)
        observer(MemOp::Read, a, static_cast<std::uint32_t>(n));
}

void
PersistentMemory::readDep(Addr a, void *dst, std::size_t n) const
{
    checkRange(a, n);
    checkPoison(a, n);
    copyBytes(dst, volatileImg.data() + a, n);
    ++counts.reads;
    counts.readBytes += n;
    if (observer)
        observer(MemOp::ReadDep, a, static_cast<std::uint32_t>(n));
}

std::uint64_t
PersistentMemory::readU64Dep(Addr a) const
{
    std::uint64_t v;
    readDep(a, &v, sizeof(v));
    return v;
}

std::uint64_t
PersistentMemory::readU64(Addr a) const
{
    std::uint64_t v;
    read(a, &v, sizeof(v));
    return v;
}

void
PersistentMemory::writeU64(Addr a, std::uint64_t v)
{
    write(a, &v, sizeof(v));
}

std::uint32_t
PersistentMemory::readU32(Addr a) const
{
    std::uint32_t v;
    read(a, &v, sizeof(v));
    return v;
}

void
PersistentMemory::writeU32(Addr a, std::uint32_t v)
{
    write(a, &v, sizeof(v));
}

void
PersistentMemory::applyPending(const Pending &p)
{
    touch(p.addr, p.bytes.size());
    copyBytes(persistedImg.data() + p.addr, p.bytes.data(),
              p.bytes.size());
}

void
PersistentMemory::persistAll()
{
    for (std::size_t i = 0; i < live; ++i)
        applyPending(inFlight[i]);
    dropQueue();
}

void
PersistentMemory::dropQueue()
{
    live = 0;
    if (inFlight.size() > kReusedEntries)
        inFlight.resize(kReusedEntries);
}

void
PersistentMemory::assignQueue(const std::vector<Pending> &src)
{
    if (inFlight.size() < src.size())
        inFlight.resize(src.size());
    // Copy-assignment refills each entry's payload buffer in place.
    std::copy(src.begin(), src.end(), inFlight.begin());
    live = src.size();
}

std::size_t
PersistentMemory::blockSpan(Addr b) const
{
    return std::min<std::size_t>(blockBytes, volatileImg.size() - b);
}

void
PersistentMemory::touch(Addr a, std::size_t n)
{
    if (journalBase == 0 || n == 0)
        return;
    for (Addr b = blockAlign(a); b < a + n; b += blockBytes) {
        std::uint8_t &mark = journalMark[b / blockBytes];
        if (mark)
            continue;
        mark = 1;
        journaled.push_back(b);
        const std::size_t at = preVolatile.size();
        preVolatile.resize(at + blockBytes);
        prePersisted.resize(at + blockBytes);
        std::memcpy(preVolatile.data() + at, volatileImg.data() + b,
                    blockSpan(b));
        std::memcpy(prePersisted.data() + at, persistedImg.data() + b,
                    blockSpan(b));
    }
}

void
PersistentMemory::rebaseJournal(std::uint64_t id, bool base_converged)
{
    if (journalMark.empty())
        journalMark.assign((volatileImg.size() + blockBytes - 1) /
                               blockBytes,
                           0);
    for (Addr b : journaled)
        journalMark[b / blockBytes] = 0;
    journaled.clear();
    preVolatile.clear();
    prePersisted.clear();
    journalBase = id;
    journalBaseConverged = base_converged;
}

void
PersistentMemory::checkJournalBase(const Snapshot &s,
                                   const char *what) const
{
    panic_if(journalBase == 0 || s.id != journalBase,
             "%s of snapshot %llu, but this PM's journal runs from "
             "snapshot %llu: only the latest snapshot taken on this PM "
             "can be used",
             what, static_cast<unsigned long long>(s.id),
             static_cast<unsigned long long>(journalBase));
}

PersistentMemory::Snapshot
PersistentMemory::snapshot()
{
    Snapshot s;
    s.inFlight.assign(inFlight.begin(), inFlight.begin() + live);
    s.poisoned = poisoned;
    s.brk = brk;
    s.nextSpec = nextSpec;
    s.id = ++lastSnapshotId;
    s.converged = imagesAgree();
    rebaseJournal(s.id, s.converged);
    return s;
}

void
PersistentMemory::restore(const Snapshot &s)
{
    checkJournalBase(s, "restore");
    // Outside the journal both images still equal s's.
    for (std::size_t i = 0; i < journaled.size(); ++i) {
        const Addr b = journaled[i];
        std::memcpy(volatileImg.data() + b,
                    preVolatile.data() + i * blockBytes, blockSpan(b));
        std::memcpy(persistedImg.data() + b,
                    prePersisted.data() + i * blockBytes, blockSpan(b));
    }
    assignQueue(s.inFlight);
    poisoned = s.poisoned;
    brk = s.brk;
    nextSpec = s.nextSpec;
    rebaseJournal(s.id, s.converged);
}

PersistentMemory::BlockSnapshot
PersistentMemory::snapshotBlocks(std::vector<Addr> blocks) const
{
    std::sort(blocks.begin(), blocks.end());
    blocks.erase(std::unique(blocks.begin(), blocks.end()), blocks.end());
    BlockSnapshot s;
    s.volatileBytes.reserve(blocks.size() * blockBytes);
    s.persistedBytes.reserve(blocks.size() * blockBytes);
    for (Addr b : blocks) {
        panic_if(b != blockAlign(b), "snapshotBlocks wants block bases");
        checkRange(b, blockBytes);
        s.volatileBytes.insert(s.volatileBytes.end(),
                               volatileImg.begin() + b,
                               volatileImg.begin() + b + blockBytes);
        s.persistedBytes.insert(s.persistedBytes.end(),
                                persistedImg.begin() + b,
                                persistedImg.begin() + b + blockBytes);
    }
    s.blocks = std::move(blocks);
    s.inFlight.assign(inFlight.begin(), inFlight.begin() + live);
    s.poisoned = poisoned;
    s.brk = brk;
    s.nextSpec = nextSpec;
    return s;
}

void
PersistentMemory::restoreBlocks(const BlockSnapshot &s)
{
    for (std::size_t i = 0; i < s.blocks.size(); ++i) {
        const Addr b = s.blocks[i];
        checkRange(b, blockBytes);
        touch(b, blockBytes);
        std::memcpy(volatileImg.data() + b,
                    s.volatileBytes.data() + i * blockBytes, blockBytes);
        std::memcpy(persistedImg.data() + b,
                    s.persistedBytes.data() + i * blockBytes, blockBytes);
    }
    assignQueue(s.inFlight);
    poisoned = s.poisoned;
    brk = s.brk;
    nextSpec = s.nextSpec;
}

bool
PersistentMemory::imagesAgree() const
{
    if (journalBase == 0 || !journalBaseConverged)
        return volatileImg == persistedImg;
    // Outside the journal the images equal the snapshot's, which
    // were equal to each other.
    for (Addr b : journaled) {
        if (std::memcmp(volatileImg.data() + b, persistedImg.data() + b,
                        blockSpan(b)) != 0)
            return false;
    }
    return true;
}

bool
PersistentMemory::persistedChanged(std::size_t i) const
{
    const Addr b = journaled[i];
    return std::memcmp(persistedImg.data() + b,
                       prePersisted.data() + i * blockBytes,
                       blockSpan(b)) != 0;
}

std::vector<Addr>
PersistentMemory::durableChangesSince(const Snapshot &base) const
{
    checkJournalBase(base, "durableChangesSince");
    std::vector<Addr> out;
    for (std::size_t i = 0; i < journaled.size(); ++i)
        if (persistedChanged(i))
            out.push_back(journaled[i]);
    std::sort(out.begin(), out.end());
    return out;
}

bool
PersistentMemory::durableMatches(const Snapshot &base,
                                 const BlockSnapshot &over) const
{
    checkJournalBase(base, "durableMatches");
    for (Addr b : over.blocks)
        checkRange(b, blockBytes);
    // Outside the journal the persisted image still equals base's,
    // so only journaled and overlaid blocks can mismatch.
    for (std::size_t i = 0; i < over.blocks.size(); ++i) {
        if (std::memcmp(persistedImg.data() + over.blocks[i],
                        over.persistedBytes.data() + i * blockBytes,
                        blockBytes) != 0)
            return false;
    }
    for (std::size_t i = 0; i < journaled.size(); ++i) {
        if (!std::binary_search(over.blocks.begin(), over.blocks.end(),
                                journaled[i]) &&
            persistedChanged(i))
            return false;
    }
    return true;
}

void
PersistentMemory::overlayDurable(Addr a, const void *src, std::size_t n)
{
    checkRange(a, n);
    touch(a, n);
    std::memcpy(volatileImg.data() + a, src, n);
    std::memcpy(persistedImg.data() + a, src, n);
}

void
PersistentMemory::reboot()
{
    if (journalBase == 0) {
        volatileImg = persistedImg;
        return;
    }
    if (journalBaseConverged) {
        // Outside the journal the images equal the snapshot's, which
        // were equal to each other: only journaled blocks can differ.
        for (Addr b : journaled)
            std::memcpy(volatileImg.data() + b, persistedImg.data() + b,
                        blockSpan(b));
        return;
    }
    // The snapshot's images differed somewhere unknown: scan them
    // all, journaling every block the reboot changes.
    for (Addr b = 0; b < volatileImg.size(); b += blockBytes) {
        if (std::memcmp(volatileImg.data() + b, persistedImg.data() + b,
                        blockSpan(b)) != 0) {
            touch(b, blockSpan(b));
            std::memcpy(volatileImg.data() + b, persistedImg.data() + b,
                        blockSpan(b));
        }
    }
}

void
PersistentMemory::crash(std::size_t keep_prefix)
{
    for (std::size_t i = 0; i < live && i < keep_prefix; ++i)
        applyPending(inFlight[i]);
    dropQueue();
    // Reboot: every volatile copy is gone; PM is the truth.
    reboot();
}

const PersistentMemory::Pending &
PersistentMemory::pendingEntry(std::size_t idx) const
{
    panic_if(idx >= live, "pendingEntry(%zu) of %zu in flight", idx,
             live);
    return inFlight[idx];
}

std::size_t
PersistentMemory::entryWords(const Pending &p)
{
    if (p.bytes.empty())
        return 0;
    const Addr first = wordAlign(p.addr);
    const Addr last = wordAlign(p.addr + p.bytes.size() - 1);
    return static_cast<std::size_t>((last - first) / wordBytes) + 1;
}

std::size_t
PersistentMemory::pendingEntryWords(std::size_t idx) const
{
    return idx < live ? entryWords(inFlight[idx]) : 0;
}

void
PersistentMemory::crashTorn(std::size_t keep_prefix,
                            std::uint64_t frontier_word_mask)
{
    if (keep_prefix >= live) {
        crash(keep_prefix);
        return;
    }
    // crash() applies entries before keep_prefix only, so the frontier
    // can be taken off the queue first.
    const Pending frontier = std::move(inFlight[keep_prefix]);
    crash(keep_prefix);
    overlayTorn(frontier, frontier_word_mask);
}

void
PersistentMemory::overlayTorn(const Pending &p, std::uint64_t word_mask)
{
    // Word i is the i-th 8-byte-aligned word the persist overlaps; the
    // copied span is the intersection of that word with the persist's
    // byte range (the device never writes bytes the store did not
    // supply).
    const Addr end = p.addr + p.bytes.size();
    const Addr first = wordAlign(p.addr);
    for (std::size_t i = 0; i < 64; ++i) {
        const Addr w = first + i * wordBytes;
        if (w >= end)
            break;
        if (!(word_mask & (std::uint64_t{1} << i)))
            continue;
        const Addr lo = w > p.addr ? w : p.addr;
        const Addr hi = w + wordBytes < end ? w + wordBytes : end;
        overlayDurable(lo, p.bytes.data() + (lo - p.addr), hi - lo);
    }
}

void
PersistentMemory::poisonWord(Addr a)
{
    checkRange(a, 1);
    poisoned.insert(wordAlign(a));
}

bool
PersistentMemory::clearPoison(Addr a)
{
    return poisoned.erase(wordAlign(a)) != 0;
}

bool
PersistentMemory::isPoisoned(Addr a) const
{
    return poisoned.count(wordAlign(a)) != 0;
}

std::vector<Addr>
PersistentMemory::poisonedWordsIn(Addr a, std::size_t n) const
{
    std::vector<Addr> out;
    for (auto it = poisoned.lower_bound(wordAlign(a));
         it != poisoned.end() && *it < a + n; ++it)
        out.push_back(*it);
    return out;
}

void
PersistentMemory::corruptWord(Addr a, std::uint64_t xor_mask)
{
    const Addr w = wordAlign(a);
    checkRange(w, wordBytes);
    touch(w, wordBytes);
    for (unsigned b = 0; b < wordBytes; ++b) {
        const auto flip =
            static_cast<std::uint8_t>(xor_mask >> (8 * b));
        volatileImg[w + b] ^= flip;
        persistedImg[w + b] ^= flip;
    }
}

} // namespace pmemspec::runtime
