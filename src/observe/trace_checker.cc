#include "trace_checker.hh"

#include <algorithm>
#include <map>
#include <sstream>
#include <tuple>

#include "observe/binary_log.hh"

namespace pmemspec::observe
{

namespace
{

using trace::Event;
using trace::EventKind;

// SpecState ordinals as carried in Event::stateBefore/After.
constexpr std::uint8_t kInitial = 0;
constexpr std::uint8_t kEvict = 1;
constexpr std::uint8_t kSpeculated = 2;
constexpr std::uint8_t kMisspeculation = 3;

// MisspecKind ordinals as carried in SbMisspec's arg.
constexpr std::uint64_t kLoadStale = 0;
constexpr std::uint64_t kStoreOrder = 1;

/** (unit, addr, tick): identity of one verdict for multiset diffing. */
using VerdictKey = std::tuple<std::uint16_t, Addr, Tick>;

struct Checker
{
    const trace::Meta &meta;
    CheckResult &res;
    std::size_t reported = 0;
    std::size_t suppressed = 0;

    /** Load automaton replica: per (unit, block) entry. */
    struct SbEntry
    {
        std::uint8_t state = kInitial;
        Tick windowStart = 0;
    };
    std::map<std::pair<std::uint16_t, Addr>, SbEntry> sbLive;
    std::map<std::uint16_t, unsigned> sbCount;

    /** Spec-ID order replica: the PMC's per-block {id, at} metadata
     *  plus its pending lazy sweeps. */
    struct Track
    {
        std::uint32_t id = 0;
        Tick at = 0;
    };
    std::map<std::pair<std::uint16_t, Addr>, Track> stLive;
    /** (fire tick, unit, addr), sorted; one per fresh insertion. */
    std::vector<std::tuple<Tick, std::uint16_t, Addr>> stSweeps;

    /** Verdict multisets: derived +1, hardware-detected -1. */
    std::map<VerdictKey, long> loadDiff;
    std::map<VerdictKey, long> storeDiff;

    bool checkSb = false;
    bool checkSt = false;

    explicit Checker(const trace::Meta &m, CheckResult &r)
        : meta(m), res(r)
    {
    }

    void
    disagree(const std::string &msg)
    {
        if (reported < 64) {
            res.disagreements.push_back(msg);
            ++reported;
        } else {
            ++suppressed;
        }
    }

    static std::string
    where(const Event &e)
    {
        std::ostringstream os;
        os << "[seq " << e.seq << "] " << trace::Manager::format(e);
        return os.str();
    }

    SbEntry *
    findSb(std::uint16_t unit, Addr addr)
    {
        auto it = sbLive.find({unit, addr});
        return it == sbLive.end() ? nullptr : &it->second;
    }

    void
    eraseSb(std::uint16_t unit, Addr addr)
    {
        if (sbLive.erase({unit, addr}))
            --sbCount[unit];
    }

    void
    insertSb(std::uint16_t unit, Addr addr, std::uint8_t state, Tick t)
    {
        auto [it, fresh] = sbLive.try_emplace({unit, addr});
        it->second.state = state;
        it->second.windowStart = t;
        if (fresh)
            ++sbCount[unit];
    }

    /** A window that should have expired strictly before `t` and was
     *  neither refreshed nor reported expired: the hardware missed
     *  it. (At `t` == deadline the stream's own ordering decides, so
     *  the entry is still legitimately live here.) */
    void
    expireOverdueSb(std::uint16_t unit, Addr addr, Tick t)
    {
        SbEntry *e = findSb(unit, addr);
        if (!e || e->windowStart + meta.specWindow >= t)
            return;
        ++res.expiriesDerived;
        disagree("hardware failed to expire block 0x" + hex(addr) +
                 " (unit " + std::to_string(unit) + "): window armed at " +
                 std::to_string(e->windowStart) + " should have expired at " +
                 std::to_string(e->windowStart + meta.specWindow) +
                 ", still live at tick " + std::to_string(t));
        eraseSb(unit, addr);
    }

    static std::string
    hex(Addr a)
    {
        std::ostringstream os;
        os << std::hex << a;
        return os.str();
    }

    void
    claimCheck(const Event &e, const char *which, std::uint8_t claimed,
               std::uint8_t derived)
    {
        if (claimed == derived)
            return;
        disagree(std::string("hardware claims ") + which + " state " +
                 trace::specStateName(claimed) + " but checker derives " +
                 trace::specStateName(derived) + " at " + where(e));
    }

    /** Fire pending spec-ID sweeps scheduled strictly before `t`,
     *  mirroring mem::stepStoreOrder's lazy sweep. Erasing
     *  sweeps emit PmcTrackExpire and are handled by their own event
     *  (exact interleaving); a sweep that would erase but produced no
     *  event by now was missed by the hardware. */
    void
    drainSweeps(Tick t)
    {
        std::size_t kept = 0;
        for (auto &sw : stSweeps) {
            auto [fire, unit, addr] = sw;
            if (fire >= t) {
                stSweeps[kept++] = sw;
                continue;
            }
            auto it = stLive.find({unit, addr});
            if (it == stLive.end() || fire - it->second.at <= meta.specWindow)
                continue; // fired without erasing: no event, no trace
            disagree("hardware failed to age out spec-ID tracking of "
                     "block 0x" + hex(addr) + " (unit " +
                     std::to_string(unit) + "): sweep at tick " +
                     std::to_string(fire) + " should have erased the entry "
                     "last touched at " + std::to_string(it->second.at));
            stLive.erase(it);
        }
        stSweeps.resize(kept);
    }

    void
    onSbWriteBack(const Event &e)
    {
        expireOverdueSb(e.unit, e.addr, e.tick);
        SbEntry *entry = findSb(e.unit, e.addr);
        claimCheck(e, "before", e.stateBefore,
                   entry ? entry->state : kInitial);
        claimCheck(e, "after", e.stateAfter, kEvict);
        insertSb(e.unit, e.addr, kEvict, e.tick);
        if (!entry && meta.specEntries &&
            sbCount[e.unit] > meta.specEntries) {
            disagree("checker tracks " + std::to_string(sbCount[e.unit]) +
                     " blocks on unit " + std::to_string(e.unit) +
                     ", beyond the hardware capacity of " +
                     std::to_string(meta.specEntries) + " at " + where(e));
        }
    }

    void
    onSbInputDropped(const Event &e)
    {
        expireOverdueSb(e.unit, e.addr, e.tick);
        if (findSb(e.unit, e.addr)) {
            disagree("hardware dropped a WriteBack for a block the "
                     "checker still tracks at " + where(e));
            return;
        }
        if (meta.specEntries && sbCount[e.unit] != meta.specEntries) {
            disagree("hardware dropped a WriteBack with only " +
                     std::to_string(sbCount[e.unit]) + "/" +
                     std::to_string(meta.specEntries) +
                     " entries derived live at " + where(e));
        }
    }

    void
    onSbAllocate(const Event &e)
    {
        expireOverdueSb(e.unit, e.addr, e.tick);
        if (findSb(e.unit, e.addr))
            disagree("hardware allocated an entry for a block the "
                     "checker already tracks at " + where(e));
        if (meta.specEntries && sbCount[e.unit] >= meta.specEntries)
            disagree("hardware allocated an entry but the checker "
                     "derives a full buffer at " + where(e));
    }

    void
    onSbRead(const Event &e)
    {
        expireOverdueSb(e.unit, e.addr, e.tick);
        SbEntry *entry = findSb(e.unit, e.addr);
        claimCheck(e, "before", e.stateBefore,
                   entry ? entry->state : kInitial);
        if (entry) {
            entry->state = kSpeculated;
            entry->windowStart = e.tick;
        }
        claimCheck(e, "after", e.stateAfter,
                   entry ? kSpeculated : kInitial);
    }

    void
    onSbPersist(const Event &e)
    {
        expireOverdueSb(e.unit, e.addr, e.tick);
        SbEntry *entry = findSb(e.unit, e.addr);
        claimCheck(e, "before", e.stateBefore,
                   entry ? entry->state : kInitial);
        std::uint8_t after = kInitial;
        if (entry && entry->state == kSpeculated) {
            // WriteBack(s) - Read(s) - Persist: the load speculated on
            // a stale PM value. This is the checker's own verdict.
            after = kMisspeculation;
            ++res.loadMisspecsDerived;
            ++loadDiff[{e.unit, e.addr, e.tick}];
            eraseSb(e.unit, e.addr);
        } else if (entry) {
            // Evict: the in-flight store superseded the eviction.
            eraseSb(e.unit, e.addr);
        }
        claimCheck(e, "after", e.stateAfter, after);
    }

    void
    onSbExpire(const Event &e)
    {
        SbEntry *entry = findSb(e.unit, e.addr);
        ++res.expiriesDetected;
        if (!entry) {
            disagree("hardware expired a block the checker does not "
                     "track at " + where(e));
            return;
        }
        const Tick deadline = entry->windowStart + meta.specWindow;
        if (e.tick != deadline) {
            disagree("hardware expired a window at tick " +
                     std::to_string(e.tick) + " but the checker derives "
                     "deadline " + std::to_string(deadline) + " at " +
                     where(e));
        }
        ++res.expiriesDerived;
        eraseSb(e.unit, e.addr);
    }

    void
    onSbMisspec(const Event &e)
    {
        if (e.arg == kLoadStale) {
            ++res.loadMisspecsDetected;
            --loadDiff[{e.unit, e.addr, e.tick}];
        } else if (e.arg == kStoreOrder) {
            ++res.storeMisspecsDetected;
            if (!checkSt) {
                // Without PmController events the store-order side has
                // nothing to diff against; count only.
                return;
            }
            --storeDiff[{e.unit, e.addr, e.tick}];
        }
    }

    void
    onPmcPersistAccept(const Event &e)
    {
        drainSweeps(e.tick);
        if (e.specId == trace::kNoSpecId)
            return; // untagged persists carry no ordering constraint
        const auto key = std::make_pair(e.unit, e.addr);
        auto it = stLive.find(key);
        if (it != stLive.end()) {
            if (e.tick - it->second.at <= meta.specWindow &&
                e.specId < it->second.id) {
                ++res.storeMisspecsDerived;
                ++storeDiff[{e.unit, e.addr, e.tick}];
                stLive.erase(it);
                return;
            }
            it->second.id = std::max(it->second.id, e.specId);
            it->second.at = e.tick;
        } else {
            stLive[key] = Track{e.specId, e.tick};
            stSweeps.emplace_back(e.tick + meta.specWindow + 1, e.unit,
                                  e.addr);
        }
    }

    void
    onPmcStoreOrderViolation(const Event &e)
    {
        if (checkSb) {
            // The SbMisspec event for the same violation is the one
            // diffed (the buffer raises the actual interrupt); the
            // PMC-side event would double-count it.
            return;
        }
        ++res.storeMisspecsDetected;
        --storeDiff[{e.unit, e.addr, e.tick}];
    }

    void
    onPmcTrackExpire(const Event &e)
    {
        auto it = stLive.find({e.unit, e.addr});
        if (it == stLive.end()) {
            disagree("hardware aged out spec-ID tracking the checker "
                     "does not hold at " + where(e));
            return;
        }
        if (e.tick - it->second.at <= meta.specWindow) {
            disagree("hardware aged out spec-ID tracking last touched "
                     "at " + std::to_string(it->second.at) +
                     ", still inside the window at " + where(e));
        }
        stLive.erase(it);
    }

    void
    run(const std::vector<Event> &events)
    {
        Tick max_tick = 0;
        for (const Event &e : events) {
            max_tick = std::max(max_tick, e.tick);
            switch (e.kind) {
              case EventKind::SbWriteBack:
                if (checkSb)
                    onSbWriteBack(e);
                break;
              case EventKind::SbInputDropped:
                if (checkSb)
                    onSbInputDropped(e);
                break;
              case EventKind::SbAllocate:
                if (checkSb)
                    onSbAllocate(e);
                break;
              case EventKind::SbRead:
                if (checkSb)
                    onSbRead(e);
                break;
              case EventKind::SbPersist:
                if (checkSb)
                    onSbPersist(e);
                break;
              case EventKind::SbExpire:
                if (checkSb)
                    onSbExpire(e);
                break;
              case EventKind::SbMisspec:
                if (checkSb)
                    onSbMisspec(e);
                break;
              case EventKind::PmcPersistAccept:
                if (checkSt)
                    onPmcPersistAccept(e);
                break;
              case EventKind::PmcStoreOrderViolation:
                if (checkSt)
                    onPmcStoreOrderViolation(e);
                break;
              case EventKind::PmcTrackExpire:
                if (checkSt)
                    onPmcTrackExpire(e);
                break;
              default:
                break;
            }
        }

        // Windows whose deadline passed strictly before the last
        // event must have expired by then; later deadlines are beyond
        // the recorded horizon and stay unknowable.
        if (checkSb) {
            std::vector<std::pair<std::uint16_t, Addr>> overdue;
            for (const auto &[key, entry] : sbLive) {
                if (entry.windowStart + meta.specWindow < max_tick)
                    overdue.push_back(key);
            }
            for (const auto &[unit, addr] : overdue)
                expireOverdueSb(unit, addr, max_tick);
        }
        if (checkSt)
            drainSweeps(max_tick);

        diffVerdicts(loadDiff, "load (stale-read)");
        diffVerdicts(storeDiff, "store (spec-ID order)");
        if (suppressed)
            res.notes.push_back(std::to_string(suppressed) +
                                " further disagreements suppressed");
    }

    void
    diffVerdicts(const std::map<VerdictKey, long> &diff, const char *what)
    {
        for (const auto &[key, count] : diff) {
            if (count == 0)
                continue;
            const auto &[unit, addr, tick] = key;
            const std::string id = std::string(what) +
                " misspeculation of block 0x" + hex(addr) + " (unit " +
                std::to_string(unit) + ") at tick " + std::to_string(tick);
            if (count > 0)
                disagree("checker derives a " + id +
                         " that the hardware did not report");
            else
                disagree("hardware reports a " + id +
                         " that the checker cannot derive");
        }
    }
};

} // namespace

std::string
CheckResult::summary() const
{
    std::ostringstream os;
    os << events << " events";
    if (automatonChecked) {
        os << "; load automaton: " << loadMisspecsDerived << " derived / "
           << loadMisspecsDetected << " detected misspecs, "
           << expiriesDerived << "/" << expiriesDetected << " expiries";
    }
    if (storeOrderChecked) {
        os << "; store order: " << storeMisspecsDerived << " derived / "
           << storeMisspecsDetected << " detected";
    }
    if (!automatonChecked && !storeOrderChecked)
        os << "; nothing checkable";
    os << "; " << disagreements.size() << " disagreement"
       << (disagreements.size() == 1 ? "" : "s");
    return os.str();
}

CheckResult
checkEvents(const std::vector<trace::Event> &events,
            const trace::Meta &meta, std::uint64_t dropped)
{
    CheckResult res;
    res.events = events.size();

    if (dropped != 0) {
        res.disagreements.push_back(
            "stream dropped " + std::to_string(dropped) +
            " events; the checker requires a lossless trace "
            "(raise ringEntries or narrow the flags)");
        return res;
    }
    if (!meta.specAutomaton) {
        res.notes.push_back("design \"" + meta.design +
                            "\" has no speculation automaton; "
                            "nothing to check");
        return res;
    }
    if (meta.specWindow == 0) {
        res.disagreements.push_back(
            "metadata carries no speculation window; cannot re-derive "
            "expiries");
        return res;
    }

    Checker chk(meta, res);
    chk.checkSb = (meta.flags & trace::FlagSpecBuffer) != 0;
    chk.checkSt = (meta.flags & trace::FlagPmController) != 0;
    res.automatonChecked = chk.checkSb;
    res.storeOrderChecked = chk.checkSt;
    if (!chk.checkSb)
        res.notes.push_back("SpecBuffer flag not traced: load automaton "
                            "not checked");
    if (!chk.checkSt)
        res.notes.push_back("PmController flag not traced: spec-ID "
                            "order not checked");
    if (!chk.checkSb && !chk.checkSt)
        return res;

    std::vector<trace::Event> sorted = events;
    std::sort(sorted.begin(), sorted.end(),
              [](const trace::Event &a, const trace::Event &b) {
                  return a.seq < b.seq;
              });
    chk.run(sorted);
    return res;
}

CheckResult
checkTraceFile(const std::string &path)
{
    std::string err;
    std::optional<BinaryTrace> bt = readBinaryTrace(path, &err);
    if (!bt) {
        CheckResult res;
        res.disagreements.push_back("unreadable trace: " + err);
        return res;
    }
    return checkEvents(bt->events, bt->meta, bt->dropped);
}

} // namespace pmemspec::observe
