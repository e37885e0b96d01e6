/**
 * @file
 * Low-overhead event tracing for the persist path (the observability
 * layer; see src/observe/ for the exporters and the offline checker).
 *
 * Components carry an optional trace::Manager pointer (setter
 * injection; nullptr means tracing is off and costs one branch per
 * trace point). Each trace point is runtime-gated by a per-component
 * flag (gem5-DPRINTF style). Events are typed records -- tick, core,
 * physical address, speculation ID, automaton state before/after --
 * appended to per-core single-writer ring buffers (one extra ring
 * collects events with no originating core, e.g. PMC activity).
 *
 * Two recording policies share the machinery:
 *
 *  - trace mode (flags != 0): large rings that *drop* (and count)
 *    events on overflow, exported post-run as Chrome trace JSON or a
 *    compact binary log;
 *  - flight recorder (flightRecorder = true): small rings that
 *    *overwrite*, always cheaply on, dumped on panic(), on a
 *    misspeculation trap, and on UnrecoverableCorruption.
 *
 * A Manager belongs to exactly one simulated machine (or fault
 * injector) and is only ever written from that machine's event loop
 * thread, which keeps parallel sweeps deterministic and the rings
 * lock-free. The thread-local "current" pointer lets panic() find the
 * right recorder without global state leaking across sweep workers.
 */

#ifndef PMEMSPEC_COMMON_TRACE_HH
#define PMEMSPEC_COMMON_TRACE_HH

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/types.hh"

namespace pmemspec::trace
{

/** Per-component trace flags (a bitmask; registry in trace.cc). */
enum Flag : std::uint32_t
{
    FlagNone = 0,
    FlagPersistPath = 1u << 0,
    FlagPmController = 1u << 1,
    FlagSpecBuffer = 1u << 2,
    FlagCore = 1u << 3,
    FlagFaseRuntime = 1u << 4,
    FlagFaultInject = 1u << 5,
    FlagAll = (1u << 6) - 1,
};

/** Number of defined flag bits. */
constexpr unsigned numFlags = 6;

/** Canonical name of one flag bit (by bit index). */
const char *flagName(unsigned bit);

/** "PersistPath,SpecBuffer" -> mask. Accepts "all"/"All". @return
 *  false (mask untouched) on an unknown name. */
bool parseFlags(const std::string &list, std::uint32_t &mask);

/** Mask -> comma list ("" for 0, "all" for FlagAll). */
std::string flagsToString(std::uint32_t mask);

/** What happened at a trace point. */
enum class EventKind : std::uint8_t
{
    // persist path (FlagPersistPath)
    PathSend,     ///< persist pushed onto a path FIFO (arg: occupancy)
    PathDeliver,  ///< persist accepted by the PMC (arg: occupancy)
    PathRetry,    ///< head waits for PMC write-queue admission
    // PM controller (FlagPmController)
    PmcWriteBack,           ///< regular-path writeback reached the PMC
    PmcRead,                ///< PM device read starts (Read input)
    PmcPersistAccept,       ///< persist accepted (Persist input + order check)
    PmcPersistRefuse,       ///< persist refused on a full write queue
    PmcStoreOrderViolation, ///< spec-ID order check fired (arg: recorded ID)
    PmcTrackExpire,         ///< spec-ID tracker entry aged out (lazy sweep)
    // speculation buffer (FlagSpecBuffer)
    SbWriteBack,    ///< WriteBack input applied (stateBefore/After)
    SbRead,         ///< Read input applied
    SbPersist,      ///< Persist input applied
    SbAllocate,     ///< entry allocated (arg: occupancy after)
    SbExpire,       ///< speculation window expired benignly (arg: residency ns)
    SbInputDropped, ///< WriteBack input dropped: buffer full
    SbPause,        ///< machine-wide pause requested (arg: window ticks)
    SbMisspec,      ///< misspeculation detected (arg: MisspecKind)
    // core (FlagCore)
    CoreFaseBegin,  ///< FASE opens (arg: pc)
    CoreFaseCommit, ///< FASE commits (arg: latency ns)
    CoreFaseAbort,  ///< FASE aborted for rollback (arg: penalty ticks)
    CorePause,      ///< core paused, buffer full (arg: resume tick)
    // runtime / timing-layer OS (FlagFaseRuntime)
    OsTrap,     ///< misspec interrupt relayed to the rollback handler
    RtTrap,     ///< runtime's signal handler flagged in-FASE threads
    RtCommit,   ///< functional FASE committed (core: tid)
    RtAbort,    ///< functional FASE aborted and rolled back (core: tid)
    RtRecovery, ///< recoverAll() pass (arg: entries replayed)
    // fault injection (FlagFaultInject)
    InjectFault, ///< an armed FaultPlan fired (arg: FaultKind)
    // manager housekeeping
    FlightDump, ///< the flight recorder was dumped
};

const char *kindName(EventKind k);

/** Name of a mem::SpecState ordinal carried in stateBefore/After. */
const char *specStateName(std::uint8_t s);

/** Sentinels for the optional Event fields. */
constexpr CoreId kNoCore = ~CoreId{0};
constexpr std::uint32_t kNoSpecId = ~std::uint32_t{0};
constexpr std::uint8_t kNoState = 0xff;

/** One typed trace event (fixed-size POD; 48 bytes). */
struct Event
{
    Tick tick = 0;          ///< simulated time (ps)
    std::uint64_t seq = 0;  ///< global record order within one Manager
    Addr addr = 0;          ///< block/byte address (0 when n/a)
    std::uint64_t arg = 0;  ///< kind-specific payload (see EventKind)
    std::uint32_t specId = kNoSpecId;
    CoreId core = kNoCore;  ///< originating core (kNoCore: uncored)
    std::uint16_t unit = 0; ///< PMC index / path lane
    std::uint8_t flagBit = 0; ///< bit index of the emitting component
    EventKind kind = EventKind::FlightDump;
    std::uint8_t stateBefore = kNoState; ///< mem::SpecState before
    std::uint8_t stateAfter = kNoState;  ///< mem::SpecState after

    bool operator==(const Event &) const = default;
};

/** Optional fields of a record() call (designated-initializer style
 *  at the trace points keeps them readable). */
struct Detail
{
    std::uint32_t specId = kNoSpecId;
    std::uint8_t stateBefore = kNoState;
    std::uint8_t stateAfter = kNoState;
    std::uint64_t arg = 0;
    std::uint16_t unit = 0;
};

/** Run-level facts the exporters and the offline checker need to
 *  interpret a stream (embedded in both export formats). */
struct Meta
{
    std::string design;       ///< persistency design name ("" unknown)
    std::uint32_t flags = 0;  ///< flag mask the stream was recorded with
    Tick specWindow = 0;      ///< speculation window (ticks)
    unsigned specEntries = 0; ///< speculation buffer capacity
    unsigned numCores = 0;
    /** True when WriteBack/Read/Persist inputs feed the Figure 5
     *  automaton (Design::PmemSpec); the checker re-derives it. */
    bool specAutomaton = false;
};

/** Recording configuration, wired through --trace / --trace-out /
 *  --flight-recorder. */
struct Config
{
    /** Flag mask of the components to trace (0: trace mode off). */
    std::uint32_t flags = 0;
    /** Bounded always-on recorder (overwrite policy, dump-on-fault).
     *  Implies recording every flag into the small rings. */
    bool flightRecorder = false;
    /** Export destination; ".json" selects Chrome trace-event JSON,
     *  anything else the compact binary log. Empty: no export. */
    std::string outPath;
    /** Inserted before the outPath extension (sweep point id). */
    std::string label;
    /** Per-core ring capacity in trace mode (drop-on-full). The
     *  uncored ring gets 4x (it collects every PMC's activity). The
     *  rings grow as events arrive, so a large cap costs nothing
     *  until it is used. */
    std::size_t ringEntries = std::size_t{1} << 16;
    /** Per-ring capacity in flight-recorder mode (overwrite). */
    std::size_t flightEntries = 512;

    bool enabled() const { return flags != 0 || flightRecorder; }
};

/**
 * The per-machine event recorder. Single-writer: only the owning
 * machine's event-loop thread may call record(); everything else
 * (snapshot, export) happens after the run.
 */
class Manager
{
  public:
    /** @param num_cores rings for cores [0, num_cores) plus one
     *  uncored ring (PMC, persist path with unknown core, runtime). */
    Manager(Config cfg, unsigned num_cores);
    ~Manager();

    Manager(const Manager &) = delete;
    Manager &operator=(const Manager &) = delete;

    /** Fast gate for the trace points. */
    bool wants(std::uint32_t flag) const { return (mask & flag) != 0; }

    /** Append one event; the Manager assigns tick-independent global
     *  sequence numbers so a merged snapshot reproduces record order
     *  even at equal ticks. */
    void record(std::uint32_t flag, EventKind kind, Tick tick,
                CoreId core, Addr addr, const Detail &d = {});

    /** Events recorded (stored) / dropped on a full trace-mode ring. */
    std::uint64_t recorded() const { return numRecorded; }
    std::uint64_t dropped() const { return numDropped; }

    /** All retained events merged across rings in record order. */
    std::vector<Event> snapshot() const;

    /** The last n retained events in record order (flight window). */
    std::vector<Event> tail(std::size_t n) const;

    /** tail(n), one formatted line per event. */
    std::vector<std::string> formatTail(std::size_t n) const;

    /** Human-readable one-liner for an event. */
    static std::string format(const Event &e);

    /** Write the flight window ("last_n" events) to `out` as one
     *  locked block through the logging sink. */
    void dump(std::FILE *out, std::size_t last_n = 64);

    const Config &config() const { return cfg; }

    /** Run-level metadata; the owning machine fills it in. */
    Meta meta;

    /** Tick source for components with no event queue (the functional
     *  runtime); unset, now() falls back to a monotonic counter. */
    void setClock(std::function<Tick()> clock) { clockFn = std::move(clock); }
    Tick now();

    /** Make this the thread's recorder: panic() on this thread dumps
     *  its flight window before aborting. Cleared on destruction. */
    void makeCurrent();
    static Manager *current();

  private:
    struct Ring
    {
        /** Retained events, grown on demand up to cap: a trace-mode
         *  ring costs only what it records, while the small flight
         *  rings are reserved up front. */
        std::vector<Event> buf;
        std::size_t cap = 1;
        /** Oldest retained event of a full ring that overwrites (0
         *  until it wraps). */
        std::size_t head = 0;
        bool overwrite = false;
    };

    Ring &ringFor(CoreId core);

    Config cfg;
    std::uint32_t mask = 0;
    std::vector<Ring> rings;
    std::uint64_t nextSeq = 0;
    std::uint64_t numRecorded = 0;
    std::uint64_t numDropped = 0;
    std::function<Tick()> clockFn;
    Tick fallbackTick = 0;
};

} // namespace pmemspec::trace

/**
 * gem5-DPRINTF-style trace point: evaluates its arguments only when
 * `mgr` is installed and wants `flag`.
 *
 *   PMEMSPEC_TRACE(traceMgr, FlagSpecBuffer, EventKind::SbPersist,
 *                  curTick(), kNoCore, addr,
 *                  {.stateBefore = b, .stateAfter = a, .unit = unit});
 */
#define PMEMSPEC_TRACE(mgr, flag, ...)                                   \
    do {                                                                 \
        ::pmemspec::trace::Manager *pmemspec_tm_ = (mgr);                \
        if (pmemspec_tm_ != nullptr &&                                   \
            pmemspec_tm_->wants(::pmemspec::trace::flag))                \
            pmemspec_tm_->record(::pmemspec::trace::flag, __VA_ARGS__);  \
    } while (0)

#endif // PMEMSPEC_COMMON_TRACE_HH
