/**
 * @file
 * Functional persistent-memory model.
 *
 * The runtime layer (undo log, FASE runtime, persistent data
 * structures) executes against this model. It keeps two images:
 *
 *  - the *volatile* image: what the running program reads and writes
 *    (caches + in-flight stores included);
 *  - the *persisted* image: what would survive a power failure.
 *
 * Stores are applied to the volatile image immediately and queued as
 * in-flight persists. Under PMEM-Spec's strict persistency the
 * in-flight queue drains to the persisted image *in store order*;
 * crash(k) models a power failure that cut the queue after its first
 * k entries -- exactly the failure model the paper's recovery
 * reasoning assumes (a prefix of the persist order is durable).
 *
 * Beyond the clean-prefix model, the media itself can misbehave
 * ("clean prefix + corrupted frontier"):
 *
 *  - crashTorn(k, mask) keeps the first k persists and then makes an
 *    arbitrary *subset of the 8-byte words* of persist k+1 durable --
 *    the device guarantees 8-byte atomicity but nothing wider, so a
 *    multi-word store caught by the outage can tear (overlayTorn()
 *    lays the same words over an existing crash(k) image);
 *  - corruptWord() flips bits directly in the durable image beneath
 *    the persist queue (media bit rot / a misdirected write);
 *  - poisonWord() marks a word uncorrectable: any read overlapping it
 *    throws MediaError (the functional analogue of an Optane UE /
 *    machine-check on load). A full 8-byte overwrite of a poisoned
 *    word heals it, as a device remaps the line on a fresh write.
 *
 * The PM counts the accesses it serves (accessCounts()). An optional
 * observer is also shown every access; it is installed only by a
 * component that must see the access stream itself (the trace
 * recorder, an attached fault injector, a service shard with a fault
 * armed), so an unobserved access pays one null test for it.
 */

#ifndef PMEMSPEC_RUNTIME_PERSISTENT_MEMORY_HH
#define PMEMSPEC_RUNTIME_PERSISTENT_MEMORY_HH

#include <cstdint>
#include <cstring>
#include <functional>
#include <set>
#include <vector>

#include "common/types.hh"

namespace pmemspec::runtime
{

/** Kind of access reported to the observer. */
enum class MemOp : std::uint8_t
{
    Read,
    /** A read whose value determines the next access (pointer
     *  chase); the timing core cannot run past it. */
    ReadDep,
    Write,
};

/**
 * Thrown by a read that touches an uncorrectable (poisoned) word:
 * the device returned a media error instead of data. Software must
 * treat the value as unavailable, never as zero or stale bytes.
 */
struct MediaError
{
    Addr addr; ///< first poisoned word the access overlapped
};

/**
 * Base of the exceptions that report a power loss (fault injection's
 * PowerFailure). The machine is gone, not misled: a FASE never
 * suppresses one as a stale-data exception, whatever its thread's
 * misspeculation flag says.
 */
struct PowerLoss
{
};

/** memcpy with the 8-byte case split out: a constant-size copy is a
 *  single move the compiler inlines, where a variable-size one calls
 *  libc, and nearly every functional access is one word. */
inline void
copyBytes(void *dst, const void *src, std::size_t n)
{
    if (n == 8)
        std::memcpy(dst, src, 8);
    else
        std::memcpy(dst, src, n);
}

/**
 * The payload of one in-flight persist: a byte string that stores up
 * to kInline bytes in place (word stores, log headers, tombstones --
 * nearly every persist) and only larger ones on the heap, so queueing
 * a store does not allocate. A heap buffer, once made, is kept for
 * every later payload that fits it: the PM refills drained queue
 * entries in place, so a warm queue allocates nothing. Offers the
 * slice of std::vector's interface that persist consumers use.
 */
class PersistBytes
{
  public:
    static constexpr std::size_t kInline = 32;

    PersistBytes() = default;
    PersistBytes(const PersistBytes &o) { assign(o.data(), o.data() + o.n); }
    PersistBytes(PersistBytes &&o) noexcept { steal(o); }
    PersistBytes &
    operator=(const PersistBytes &o)
    {
        if (this != &o)
            assign(o.data(), o.data() + o.n);
        return *this;
    }
    PersistBytes &
    operator=(PersistBytes &&o) noexcept
    {
        if (this != &o) {
            release();
            steal(o);
        }
        return *this;
    }
    ~PersistBytes() { release(); }

    const std::uint8_t *data() const { return onHeap() ? heap : inl; }
    std::size_t size() const { return n; }
    bool empty() const { return n == 0; }

    /** Replace the contents with [first, last). */
    void
    assign(const std::uint8_t *first, const std::uint8_t *last)
    {
        const auto count = static_cast<std::size_t>(last - first);
        copyBytes(resize(count), first, count);
    }

    /** Replace the contents with `count` copies of `b`. */
    void
    assign(std::size_t count, std::uint8_t b)
    {
        std::memset(resize(count), b, count);
    }

    friend bool
    operator==(const PersistBytes &a, const PersistBytes &b)
    {
        return a.n == b.n && std::memcmp(a.data(), b.data(), a.n) == 0;
    }

  private:
    /** The bytes live in `heap` once one was made, however short. */
    bool onHeap() const { return cap != 0; }

    void
    release()
    {
        if (onHeap())
            delete[] heap;
        cap = 0;
        n = 0;
    }

    /** Take o's contents (this holds none); o is left empty if its
     *  bytes were on the heap. */
    void
    steal(PersistBytes &o) noexcept
    {
        n = o.n;
        cap = o.cap;
        if (o.onHeap()) {
            heap = o.heap;
            o.cap = 0;
            o.n = 0;
        } else {
            std::memcpy(inl, o.inl, n);
        }
    }

    /** Drop the contents and make room for `count` bytes, keeping the
     *  buffer when it is large enough. */
    std::uint8_t *
    resize(std::size_t count)
    {
        if (count > (onHeap() ? cap : kInline))
            grow(count);
        n = static_cast<std::uint32_t>(count);
        return onHeap() ? heap : inl;
    }

    /** Replace the buffer with a heap one of `count` bytes. */
    void grow(std::size_t count);

    std::uint32_t n = 0;
    /** Bytes of the owned heap buffer; 0 = none (bytes in `inl`). */
    std::uint32_t cap = 0;
    union
    {
        std::uint8_t inl[kInline];
        std::uint8_t *heap; ///< owned; live iff cap != 0
    };
};

/** Byte-addressable persistent memory with crash semantics. */
class PersistentMemory
{
  public:
    using Observer = std::function<void(MemOp, Addr, std::uint32_t)>;

    /** Accesses served since construction. Each is counted where the
     *  observer is called: a read that throws MediaError is not
     *  counted, a write is counted once its persist is queued. */
    struct AccessCounts
    {
        std::uint64_t reads = 0; ///< read() and readDep() together
        std::uint64_t readBytes = 0;
        std::uint64_t writes = 0; ///< stores == queued persists
        std::uint64_t writeBytes = 0;
    };

    /** @param bytes Size of the PM address space. */
    explicit PersistentMemory(std::size_t bytes);

    /** Bump-allocate a region; never freed (arena style). `align`
     *  is a power of two up to blockBytes. */
    Addr alloc(std::size_t n, std::size_t align = 8);

    /**
     * Arena bytes to budget for one alloc(n, align), padding
     * included: n rounded up to whole blocks. Each allocation moves
     * the next block-aligned base on by at most this much, so from a
     * block-aligned cursor a sequence of allocations never outgrows
     * the sum of their allocBound()s. The pmds footprint() functions
     * are such sums.
     */
    static constexpr std::size_t
    allocBound(std::size_t n)
    {
        return (n + blockBytes - 1) / blockBytes * blockBytes;
    }

    /** Bytes remaining in the arena. */
    std::size_t remaining() const { return volatileImg.size() - brk; }

    /** Total size of the address space. */
    std::size_t size() const { return volatileImg.size(); }

    /** Store: updates the volatile image, queues an in-flight
     *  persist, heals any fully-overwritten poisoned word, counts the
     *  write and notifies the observer. */
    void write(Addr a, const void *src, std::size_t n);

    /** Store carrying an ordering tag: like write(), but the queued
     *  persist is marked `ordered` -- the functional analogue of a
     *  persist the program publishes *after* a spec-barrier point
     *  (an undo log's validity-marker bump, a commit truncation).
     *  The reorder explorer treats an ordered persist as a full
     *  fence in the speculation window: nothing crosses it. */
    void writeOrdered(Addr a, const void *src, std::size_t n);
    void writeU64Ordered(Addr a, std::uint64_t v);

    /** Load from the volatile image; counts the read and notifies
     *  the observer.
     *  @throws MediaError if the range overlaps a poisoned word. */
    void read(Addr a, void *dst, std::size_t n) const;

    /** Load that the caller marks as address-forming (pointer
     *  chase); recorded as MemOp::ReadDep. */
    void readDep(Addr a, void *dst, std::size_t n) const;

    /** Dependent 64-bit load (the common pointer fetch). */
    std::uint64_t readU64Dep(Addr a) const;

    std::uint64_t readU64(Addr a) const;
    void writeU64(Addr a, std::uint64_t v);
    std::uint32_t readU32(Addr a) const;
    void writeU32(Addr a, std::uint32_t v);

    /** Drain every in-flight persist (a durability barrier). */
    void persistAll();

    /** In-flight persists not yet durable. */
    std::size_t inFlightCount() const { return live; }

    /** Store-order id the next queued persist receives. */
    SpecId nextSpecId() const { return nextSpec; }

    /**
     * Power failure: the first keep_prefix in-flight persists reach
     * the persisted image (in order); the rest are lost; the machine
     * reboots, so the volatile image is re-read from PM.
     */
    void crash(std::size_t keep_prefix);

    /**
     * Power failure with a torn frontier: the first keep_prefix
     * in-flight persists are fully durable, and of persist
     * keep_prefix+1 (if one exists) only the 8-byte words selected
     * by `frontier_word_mask` reach the media -- bit i covers the
     * i-th machine word (8-byte-aligned, in address order) that the
     * persist overlaps. Words past bit 63 are treated as lost. A
     * zero mask degenerates to crash(keep_prefix); an all-ones mask
     * to crash(keep_prefix + 1). 8-byte atomicity is preserved;
     * block atomicity is not.
     */
    void crashTorn(std::size_t keep_prefix,
                   std::uint64_t frontier_word_mask);

    /** Number of 8-byte machine words in-flight persist `idx` spans
     *  (the mask width crashTorn() would tear over). */
    std::size_t pendingEntryWords(std::size_t idx) const;

    // ---- Media faults (uncorrectable errors and bit rot) ----

    /** Mark the 8-byte word containing `a` uncorrectable: reads
     *  overlapping it throw MediaError until it is healed by a full
     *  word overwrite or clearPoison(). */
    void poisonWord(Addr a);

    /** Explicitly heal a poisoned word (device remap / scrubbing).
     *  @return true if the word was poisoned. */
    bool clearPoison(Addr a);

    /** Is the word containing `a` poisoned? */
    bool isPoisoned(Addr a) const;

    /** Poisoned word base addresses overlapping [a, a+n). */
    std::vector<Addr> poisonedWordsIn(Addr a, std::size_t n) const;

    /** Total poisoned words in the space. */
    std::size_t poisonedWordCount() const { return poisoned.size(); }

    /**
     * Flip the bits of `xor_mask` in the 8-byte word containing `a`,
     * in *both* images, beneath the persist queue: silent media
     * corruption that no barrier ordered and no observer saw. Only
     * checksums can catch it.
     */
    void corruptWord(Addr a, std::uint64_t xor_mask);

    /** Register/replace the access observer (nullptr to disable). */
    void setObserver(Observer obs) { observer = std::move(obs); }

    /** Accesses served so far, observed or not. */
    const AccessCounts &accessCounts() const { return counts; }

    /** One in-flight (not yet durable) persist. */
    struct Pending
    {
        Addr addr;
        PersistBytes bytes;
        /** Monotonic store-order id, the functional analogue of the
         *  speculation ID the PMC's order check keys on: persist i
         *  precedes persist j in store order iff specId_i < specId_j. */
        SpecId specId = 0;
        /** Publication persist (spec-barrier analogue): may not be
         *  reordered with *any* other persist in the window. */
        bool ordered = false;
    };

    /** In-flight persist `idx` (0 = oldest). The reorder explorer
     *  captures the speculation window from these before a crash. */
    const Pending &pendingEntry(std::size_t idx) const;

    /** Number of 8-byte machine words persist `p` overlaps: the mask
     *  width crashTorn() and overlayTorn() tear it over. */
    static std::size_t entryWords(const Pending &p);

    /**
     * Apply bytes directly to *both* images beneath the persist
     * queue, with no observer notification and no poison healing:
     * the reorder explorer uses this to materialize "persist j of
     * the crash window landed" states without perturbing the queue
     * it is enumerating. Unlike corruptWord() this is not a fault --
     * it writes data some store legitimately supplied.
     */
    void overlayDurable(Addr a, const void *src, std::size_t n);

    /**
     * overlayDurable() of only the 8-byte words of persist `p`
     * selected by `word_mask`, with crashTorn()'s mask meaning (bit i
     * = the i-th word the persist overlaps; words past bit 63 are
     * lost). crashTorn(k, mask) is crash(k) followed by this on
     * in-flight entry k, which is how the crash explorer builds a
     * torn frontier on top of a crash(k) image it already has.
     */
    void overlayTorn(const Pending &p, std::uint64_t word_mask);

    /**
     * The PM state apart from the two images: the in-flight queue,
     * the poison set, the arena cursor and the store-order counter.
     * The images need no copy because the block-touch journal keeps
     * them: snapshot() (re)starts the journal, and the first change
     * to a block after it saves that block's 64 B of both images.
     * Only the snapshot the journal runs from can be restored or
     * compared against. The crash-point explorer snapshots once per
     * operation and rewinds between crash(k) trials; the observer is
     * not part of the state and survives restore(). Immutable once
     * taken: only snapshot() fills one in.
     */
    class Snapshot
    {
      private:
        friend class PersistentMemory;

        std::vector<Pending> inFlight;
        std::set<Addr> poisoned;
        std::size_t brk = 0;
        SpecId nextSpec = 1;
        /** Process-unique identity; the journal is keyed on it. */
        std::uint64_t id = 0;
        /** The two images were byte-identical when taken. */
        bool converged = false;
    };

    /**
     * Take a snapshot and (re)start the block-touch journal at it.
     * From here on every path that changes either image --
     * write(), writeOrdered(), persist application (persistAll(),
     * crash(), crashTorn()), overlayTorn(), overlayDurable(),
     * corruptWord() and restoreBlocks() -- journals each 64-byte
     * block before its first change, with that block's pre-image
     * from both images, so outside the journal both images still
     * equal the snapshot's. That invariant makes these exact and
     * proportional to the blocks written rather than to size():
     *
     *  - restore() copies the journaled pre-images back;
     *  - durableChangesSince() and durableMatches() compare against
     *    the journaled persisted pre-images;
     *  - the reboot in crash()/crashTorn() and imagesAgree() read
     *    journaled blocks only when the snapshot's two images were
     *    equal (imagesAgree() at snapshot time, itself journal-only
     *    after a converged snapshot); otherwise they scan the whole
     *    image.
     *
     * restore(), durableChangesSince() and durableMatches() panic on
     * any snapshot but the one the journal runs from: an older one,
     * or one taken on another PM. A PM that never took a snapshot
     * never journals, and so keeps whole-image reboots.
     */
    Snapshot snapshot();
    void restore(const Snapshot &s);

    /** Blocks either image may differ in from the journal's
     *  snapshot, in first-touch order (empty without a journal). */
    const std::vector<Addr> &touchedBlocks() const { return journaled; }

    /**
     * A sparse copy: the listed 64-byte blocks of both images plus
     * the in-flight queue, poison set, arena cursor and store-order
     * counter. The reorder explorer takes one at each crash point and
     * rewinds to it per enumerated state.
     */
    class BlockSnapshot
    {
      private:
        friend class PersistentMemory;

        /** Sorted, unique block bases. */
        std::vector<Addr> blocks;
        /** blockBytes per block, in `blocks` order. */
        std::vector<std::uint8_t> volatileBytes;
        std::vector<std::uint8_t> persistedBytes;
        std::vector<Pending> inFlight;
        std::set<Addr> poisoned;
        std::size_t brk = 0;
        SpecId nextSpec = 1;
    };

    /** Snapshot only `blocks` (block-aligned base addresses; order
     *  and duplicates do not matter) of the images. */
    BlockSnapshot snapshotBlocks(std::vector<Addr> blocks) const;

    /**
     * Partial restore: rewind the snapshot's blocks to their
     * contents, in both images, then restore the in-flight queue,
     * poison set, arena cursor and store-order counter. Exact iff
     * every byte changed since `s` was taken lies in its blocks; the
     * crash explorer checks that against the journal.
     */
    void restoreBlocks(const BlockSnapshot &s);

    /** The volatile and persisted images are byte-identical. */
    bool imagesAgree() const;

    /** Sorted bases of the blocks whose persisted contents differ
     *  from `base`'s (the journal's snapshot). */
    std::vector<Addr> durableChangesSince(const Snapshot &base) const;

    /** The persisted image equals `base`'s (the journal's snapshot)
     *  with the persisted blocks of `over` laid on top. */
    bool durableMatches(const Snapshot &base,
                        const BlockSnapshot &over) const;

    /** Raw image access for invariant checkers. */
    const std::uint8_t *volatileImage() const { return volatileImg.data(); }
    const std::uint8_t *persistedImage() const { return persistedImg.data(); }

  private:
    void checkRange(Addr a, std::size_t n) const;
    void checkPoison(Addr a, std::size_t n) const;
    void applyPending(const Pending &p);
    void writeTagged(Addr a, const void *src, std::size_t n,
                     bool ordered);
    /** Make `src` the in-flight queue, refilling entries in place. */
    void assignQueue(const std::vector<Pending> &src);
    /** Empty the queue after a drain, keeping entries for reuse. */
    void dropQueue();
    /** Journal the blocks [a, a+n) overlaps, saving the pre-image
     *  of each one not yet journaled; call before changing them
     *  (no-op without a journal). */
    void touch(Addr a, std::size_t n);
    /** Restart the journal, empty, at snapshot `id`. */
    void rebaseJournal(std::uint64_t id, bool base_converged);
    /** Panic unless the journal runs from `s`; `what` names the
     *  caller. */
    void checkJournalBase(const Snapshot &s, const char *what) const;
    /** The persisted image differs from the pre-image of journaled
     *  block `i`. */
    bool persistedChanged(std::size_t i) const;
    /** Post-crash reboot: volatile image := persisted image. */
    void reboot();
    /** Bytes of block `b` inside the space (the last may be short). */
    std::size_t blockSpan(Addr b) const;

    std::vector<std::uint8_t> volatileImg;
    std::vector<std::uint8_t> persistedImg;
    /** The in-flight queue is the first `live` entries. A drain
     *  resets `live` and keeps up to kReusedEntries entries with
     *  their payload buffers for writeTagged() to refill, so a warm
     *  queue allocates nothing. Entries past that (a bulk load
     *  queued before its first barrier) are freed, so their buffers
     *  do not outlive it. */
    std::vector<Pending> inFlight;
    std::size_t live = 0;
    static constexpr std::size_t kReusedEntries = 1024;
    /** Word-aligned base addresses of uncorrectable words. */
    std::set<Addr> poisoned;
    std::size_t brk = 64; ///< address 0 stays unmapped (null guard)
    /** Store-order id the next queued persist receives. */
    SpecId nextSpec = 1;
    Observer observer;
    /** Mutable: reads are const. */
    mutable AccessCounts counts;

    // ---- Block-touch journal (see snapshot()) ----
    /** Snapshot id the journal runs from; 0 = no journal. */
    std::uint64_t journalBase = 0;
    /** That snapshot's two images were byte-identical. */
    bool journalBaseConverged = false;
    /** Journaled block bases, in first-touch order. */
    std::vector<Addr> journaled;
    /** blockBytes per journaled block, in `journaled` order: its
     *  contents in each image when first touched. */
    std::vector<std::uint8_t> preVolatile;
    std::vector<std::uint8_t> prePersisted;
    /** One flag per block: already in `journaled`. */
    std::vector<std::uint8_t> journalMark;
};

} // namespace pmemspec::runtime

#endif // PMEMSPEC_RUNTIME_PERSISTENT_MEMORY_HH
