#include "trace.hh"

#include <algorithm>
#include <bit>
#include <sstream>

#include "common/logging.hh"

namespace pmemspec::trace
{

namespace
{

const char *const flagNames[numFlags] = {
    "PersistPath", "PmController", "SpecBuffer",
    "Core",        "FaseRuntime",  "FaultInject",
};

thread_local Manager *currentMgr = nullptr;

/** The thread's flight recorder, called from panic() before abort. */
void
panicDumpHook()
{
    Manager *m = Manager::current();
    if (m && m->config().flightRecorder)
        m->dump(stderr);
}

} // namespace

const char *
specStateName(std::uint8_t s)
{
    switch (s) {
      case 0: return "Initial";
      case 1: return "Evict";
      case 2: return "Speculated";
      case 3: return "Misspeculation";
      default: return "?";
    }
}

const char *
flagName(unsigned bit)
{
    return bit < numFlags ? flagNames[bit] : "?";
}

bool
parseFlags(const std::string &list, std::uint32_t &mask)
{
    std::uint32_t out = 0;
    std::istringstream is(list);
    std::string tok;
    while (std::getline(is, tok, ',')) {
        if (tok.empty())
            continue;
        if (tok == "all" || tok == "All") {
            out |= FlagAll;
            continue;
        }
        bool found = false;
        for (unsigned bit = 0; bit < numFlags; ++bit) {
            if (tok == flagNames[bit]) {
                out |= 1u << bit;
                found = true;
                break;
            }
        }
        if (!found)
            return false;
    }
    mask = out;
    return true;
}

std::string
flagsToString(std::uint32_t mask)
{
    if ((mask & FlagAll) == FlagAll)
        return "all";
    std::string s;
    for (unsigned bit = 0; bit < numFlags; ++bit) {
        if (!(mask & (1u << bit)))
            continue;
        if (!s.empty())
            s += ',';
        s += flagNames[bit];
    }
    return s;
}

const char *
kindName(EventKind k)
{
    switch (k) {
      case EventKind::PathSend: return "PathSend";
      case EventKind::PathDeliver: return "PathDeliver";
      case EventKind::PathRetry: return "PathRetry";
      case EventKind::PmcWriteBack: return "PmcWriteBack";
      case EventKind::PmcRead: return "PmcRead";
      case EventKind::PmcPersistAccept: return "PmcPersistAccept";
      case EventKind::PmcPersistRefuse: return "PmcPersistRefuse";
      case EventKind::PmcStoreOrderViolation: return "PmcStoreOrderViolation";
      case EventKind::PmcTrackExpire: return "PmcTrackExpire";
      case EventKind::SbWriteBack: return "SbWriteBack";
      case EventKind::SbRead: return "SbRead";
      case EventKind::SbPersist: return "SbPersist";
      case EventKind::SbAllocate: return "SbAllocate";
      case EventKind::SbExpire: return "SbExpire";
      case EventKind::SbInputDropped: return "SbInputDropped";
      case EventKind::SbPause: return "SbPause";
      case EventKind::SbMisspec: return "SbMisspec";
      case EventKind::CoreFaseBegin: return "CoreFaseBegin";
      case EventKind::CoreFaseCommit: return "CoreFaseCommit";
      case EventKind::CoreFaseAbort: return "CoreFaseAbort";
      case EventKind::CorePause: return "CorePause";
      case EventKind::OsTrap: return "OsTrap";
      case EventKind::RtTrap: return "RtTrap";
      case EventKind::RtCommit: return "RtCommit";
      case EventKind::RtAbort: return "RtAbort";
      case EventKind::RtRecovery: return "RtRecovery";
      case EventKind::InjectFault: return "InjectFault";
      case EventKind::FlightDump: return "FlightDump";
    }
    return "?";
}

Manager::Manager(Config config, unsigned num_cores)
    : cfg(std::move(config))
{
    // The flight recorder listens to everything; trace mode only to
    // the requested components.
    mask = cfg.flags | (cfg.flightRecorder ? FlagAll : 0u);
    const bool overwrite = cfg.flags == 0 && cfg.flightRecorder;
    const std::size_t per_core =
        overwrite ? cfg.flightEntries : cfg.ringEntries;
    rings.resize(num_cores + 1);
    for (std::size_t i = 0; i < rings.size(); ++i) {
        // The uncored ring absorbs every PMC and runtime event.
        const std::size_t cap =
            (i + 1 == rings.size() && !overwrite) ? per_core * 4 : per_core;
        rings[i].cap = std::max<std::size_t>(cap, 1);
        rings[i].overwrite = overwrite;
        if (overwrite)
            rings[i].buf.reserve(rings[i].cap);
    }
}

Manager::~Manager()
{
    if (currentMgr == this)
        currentMgr = nullptr;
}

Manager::Ring &
Manager::ringFor(CoreId core)
{
    if (core == kNoCore)
        return rings.back();
    const std::size_t n = rings.size() - 1;
    return rings[core < n ? core : n];
}

void
Manager::record(std::uint32_t flag, EventKind kind, Tick tick,
                CoreId core, Addr addr, const Detail &d)
{
    Ring &r = ringFor(core);
    Event *slot;
    if (r.buf.size() < r.cap) {
        // Double as push_back would, but never past the cap.
        if (r.buf.size() == r.buf.capacity())
            r.buf.reserve(std::min(
                r.cap, std::max<std::size_t>(2 * r.buf.size(), 64)));
        slot = &r.buf.emplace_back();
    } else if (r.overwrite) {
        slot = &r.buf[r.head];
        r.head = (r.head + 1) % r.cap;
    } else {
        ++numDropped;
        return;
    }
    Event &e = *slot;
    e.tick = tick;
    e.seq = nextSeq++;
    e.addr = addr;
    e.arg = d.arg;
    e.specId = d.specId;
    e.core = core;
    e.unit = d.unit;
    e.flagBit = static_cast<std::uint8_t>(
        flag ? std::countr_zero(flag) : 0);
    e.kind = kind;
    e.stateBefore = d.stateBefore;
    e.stateAfter = d.stateAfter;
    ++numRecorded;
}

std::vector<Event>
Manager::snapshot() const
{
    std::vector<Event> out;
    std::size_t total = 0;
    for (const auto &r : rings)
        total += r.buf.size();
    out.reserve(total);
    for (const auto &r : rings) {
        // Oldest retained event first within each ring.
        const std::size_t n = r.buf.size();
        for (std::size_t i = 0; i < n; ++i)
            out.push_back(r.buf[(r.head + i) % n]);
    }
    std::sort(out.begin(), out.end(),
              [](const Event &a, const Event &b) { return a.seq < b.seq; });
    return out;
}

std::vector<Event>
Manager::tail(std::size_t n) const
{
    std::vector<Event> all = snapshot();
    if (all.size() > n)
        all.erase(all.begin(), all.end() - static_cast<std::ptrdiff_t>(n));
    return all;
}

std::vector<std::string>
Manager::formatTail(std::size_t n) const
{
    std::vector<std::string> lines;
    for (const Event &e : tail(n))
        lines.push_back(format(e));
    return lines;
}

std::string
Manager::format(const Event &e)
{
    std::ostringstream os;
    os << e.tick << " " << flagName(e.flagBit) << "." << kindName(e.kind);
    if (e.core != kNoCore)
        os << " core" << e.core;
    os << " unit" << e.unit;
    if (e.addr != 0)
        os << " addr=0x" << std::hex << e.addr << std::dec;
    if (e.specId != kNoSpecId)
        os << " spec=" << e.specId;
    if (e.stateBefore != kNoState || e.stateAfter != kNoState)
        os << " " << specStateName(e.stateBefore) << "->"
           << specStateName(e.stateAfter);
    if (e.arg != 0)
        os << " arg=" << e.arg;
    return os.str();
}

void
Manager::dump(std::FILE *out, std::size_t last_n)
{
    std::vector<Event> window = tail(last_n);
    std::ostringstream os;
    os << "=== flight recorder: last " << window.size() << " of "
       << numRecorded << " events";
    if (!meta.design.empty())
        os << " (" << meta.design << ")";
    os << " ===\n";
    for (const Event &e : window)
        os << "  " << format(e) << "\n";
    os << "=== end flight recorder ===\n";
    detail::rawSinkWrite(out, os.str());
    record(0, EventKind::FlightDump, now(), kNoCore, 0,
           {.arg = window.size()});
}

Tick
Manager::now()
{
    if (clockFn)
        return clockFn();
    return ++fallbackTick;
}

void
Manager::makeCurrent()
{
    currentMgr = this;
    detail::setPanicHook(&panicDumpHook);
}

Manager *
Manager::current()
{
    return currentMgr;
}

} // namespace pmemspec::trace
