/**
 * @file
 * The PMEM-Spec speculation buffer (Section 5.3, Figures 5 and 8).
 *
 * One instance lives inside the PM controller. Each entry tracks one
 * cache-block-aligned address with the load-misspeculation automaton
 * state (Table 1) and the tick the current speculation window started
 * (the Inserted field of Figure 8). Monitoring starts only at an LLC
 * writeback (Section 5.1.4); the spec-ID order check of Section 5.2
 * runs in the PM controller's write-queue metadata and reports its
 * verdicts here (see DESIGN.md, decision 2).
 *
 * Inputs (Table 2):
 *   WriteBack -- an LLC writeback of a PM block reaches the PMC (the
 *                data itself is silently dropped under PMEM-Spec);
 *   Read      -- a PM load is served from PM (it missed all caches);
 *   Persist   -- a store arrives over the decoupled persist-path;
 *   Evict     -- the speculation window expires.
 *
 * The automaton flags *load* misspeculation on the pattern
 * WriteBack(s) - Read(s) - Persist: the reads fetched a stale block
 * whose new value was still in flight on the persist-path. *Store*
 * misspeculation (an inter-thread WAW persisted out of happens-before
 * order, i.e. a persist carrying a lower speculation ID than one
 * recorded for the block within the window) is counted and signalled
 * through reportStoreMisspec().
 *
 * When the buffer has no free entry the PMC asks the machine to pause
 * every core for one speculation window so that entries expire
 * (Section 5.3; Figure 11 quantifies the cost).
 */

#ifndef PMEMSPEC_MEM_SPECULATION_BUFFER_HH
#define PMEMSPEC_MEM_SPECULATION_BUFFER_HH

#include <optional>
#include <vector>

#include "common/inplace_fn.hh"
#include "common/stats.hh"
#include "common/trace.hh"
#include "common/types.hh"
#include "sim/sim_object.hh"

namespace pmemspec::mem
{

/** Which of the two PMEM-Spec misspeculations was detected. */
enum class MisspecKind
{
    /** A PM load fetched a stale value (Section 5.1). */
    LoadStale,
    /** Inter-thread persists arrived out of order (Section 5.2). */
    StoreOrder,
};

/** Automaton states of Figure 5 / Table 1. */
enum class SpecState
{
    Initial,
    Evict,
    Speculated,
    Misspeculation,
};

/** The speculation buffer of Figure 8. */
class SpeculationBuffer : public sim::SimObject
{
  public:
    /** Called when either misspeculation fires; receives the block
     *  address, mirroring the designated OS mailbox of Section 6.1. */
    using MisspecCallback = InplaceFn<void(Addr, MisspecKind)>;

    /** Called when the buffer is full; the machine must pause all
     *  cores for the given duration (one speculation window). */
    using PauseCallback = InplaceFn<void(Tick)>;

    SpeculationBuffer(sim::EventQueue &eq, StatGroup *parent,
                      unsigned num_entries, Tick window);

    void setMisspecCallback(MisspecCallback cb) { onMisspec = std::move(cb); }
    void setPauseCallback(PauseCallback cb) { onPause = std::move(cb); }

    /** Table 2 "WriteBack": LLC writeback arrives from the regular
     *  path. Starts (or restarts) monitoring the block. */
    void writeBack(Addr block_addr);

    /** Table 2 "Read": a PM load was served from the PM device. */
    void read(Addr block_addr);

    /** Table 2 "Persist": a store arrives over a persist-path. Only
     *  the load-misspeculation automaton consumes this input; the
     *  spec-ID order check runs in the PM controller's write-queue
     *  metadata (see PmController) because the buffer monitors no
     *  block before an LLC writeback (Section 5.1.4). */
    void persist(Addr block_addr);

    /** The PMC detected an inter-thread persist-order violation for
     *  the given block (Section 5.2): count it and raise the
     *  interrupt. */
    void reportStoreMisspec(Addr block_addr);

    /** Entries currently valid. */
    unsigned occupancy() const;

    /** Configured capacity. */
    unsigned capacity() const { return static_cast<unsigned>(entries.size()); }

    /** Speculation window length in ticks. */
    Tick window() const { return specWindow; }

    /** Automaton state for a block (Initial if untracked). */
    SpecState stateOf(Addr block_addr) const;

    /** Attach the machine's event recorder; `unit` is the owning
     *  PMC's index, stamped into every emitted event. */
    void setTraceManager(trace::Manager *mgr, std::uint16_t unit = 0)
    {
        traceMgr = mgr;
        traceUnit = unit;
    }

    Counter loadMisspecs;
    Counter storeMisspecs;
    Counter allocations;
    Counter expirations;
    Counter fullPauses;
    Counter droppedInputs;
    /** How long entries actually sat in the buffer (ns): the window
     *  residency distribution behind fig11's occupancy story. */
    Histogram residencyHist;

  private:
    struct Entry
    {
        bool valid = false;
        Addr addr = 0;
        SpecState state = SpecState::Initial;
        Tick inserted = 0;
        std::uint64_t generation = 0;
    };

    Entry *find(Addr block_addr);
    const Entry *find(Addr block_addr) const;

    /** Allocate an entry; pauses the machine when full.
     *  @return nullptr if no entry is free even after requesting the
     *  pause (the input is dropped and recorded -- the pause guarantees
     *  no conflicting access can slip by in the meantime). */
    Entry *allocate(Addr block_addr);

    /** (Re)start the window of an entry and arm its expiry event. */
    void armWindow(Entry &e);

    void fireMisspec(Entry &e, MisspecKind kind);

    /** Residency sample + trace event for an entry leaving the buffer. */
    void noteDeparture(const Entry &e);

    std::vector<Entry> entries;
    Tick specWindow;
    MisspecCallback onMisspec;
    PauseCallback onPause;
    /** While paused, the tick at which the pause ends. */
    Tick pausedUntil = 0;

    trace::Manager *traceMgr = nullptr;
    std::uint16_t traceUnit = 0;
};

} // namespace pmemspec::mem

#endif // PMEMSPEC_MEM_SPECULATION_BUFFER_HH
