/**
 * @file
 * Chrome trace-event JSON exporter (chrome://tracing / Perfetto).
 *
 * Schema ("pmemspec-trace-v1"): the top-level object has
 *
 *   traceEvents     array of instant events, one per trace::Event:
 *     name            EventKind name (e.g. "SbPersist")
 *     cat             component flag name (e.g. "SpecBuffer")
 *     ph              "i" (instant; "M" for thread-name metadata)
 *     ts              microseconds (tick / 1e6; ticks are ps)
 *     pid             0 (one simulated machine per file)
 *     tid             originating core, or 1000 + unit for events with
 *                     no core (PMC, persist path, runtime)
 *     s               "t" (thread-scoped instant)
 *     args            { seq, addr ("0x..."), and when present: specId,
 *                       before/after (automaton state names), arg, unit }
 *   plus, when a sampled metrics series is attached, counter events:
 *     name            metrics column (e.g. "machine.memsys.pmc.read_q")
 *     ph              "C", ts in microseconds, pid 0,
 *     args            { value }
 *   displayTimeUnit "ns"
 *   otherData       { schema, design, specWindowTicks, specEntries,
 *                     numCores, flags, events, dropped }
 */

#ifndef PMEMSPEC_OBSERVE_CHROME_TRACE_HH
#define PMEMSPEC_OBSERVE_CHROME_TRACE_HH

#include <string>
#include <vector>

#include "common/json.hh"
#include "common/trace.hh"
#include "observe/metrics.hh"

namespace pmemspec::observe
{

/** Build the Chrome trace-event document for an event stream.
 *  When `counters` is non-null, each sampled metrics row is also
 *  emitted as Chrome counter events (ph "C", one per column, value
 *  in args.value) so the viewer renders the time series as counter
 *  tracks alongside the instants. */
Json chromeTraceJson(const std::vector<trace::Event> &events,
                     const trace::Meta &meta, std::uint64_t dropped,
                     const MetricsSeries *counters = nullptr);

/** Serialize chromeTraceJson() to a file. @return false on I/O error. */
bool writeChromeTrace(const std::string &path,
                      const std::vector<trace::Event> &events,
                      const trace::Meta &meta, std::uint64_t dropped,
                      const MetricsSeries *counters = nullptr);

} // namespace pmemspec::observe

#endif // PMEMSPEC_OBSERVE_CHROME_TRACE_HH
