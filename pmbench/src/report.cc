#include "report.hh"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "persistency/design.hh"

namespace pmbench
{

const std::vector<std::string> &
designNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (auto d : pmemspec::persistency::allDesigns())
            out.push_back(pmemspec::persistency::designName(d));
        return out;
    }();
    return names;
}

int
Tracer::open(const char *name, int cell, int design)
{
    if (!enabled)
        return -1;
    Span s;
    s.name = name;
    s.start = secondsSince(epoch);
    s.parent = stack.empty() ? -1 : stack.back();
    s.cell = cell;
    s.design = design;
    list.push_back(s);
    const int idx = static_cast<int>(list.size() - 1);
    stack.push_back(idx);
    return idx;
}

void
Tracer::close(int idx)
{
    if (idx < 0)
        return;
    list[static_cast<std::size_t>(idx)].end = secondsSince(epoch);
    stack.pop_back();
}

void
Tracer::clear()
{
    list.clear();
    stack.clear();
}

namespace
{

std::vector<MetricDef>
buildPerLayer()
{
    std::vector<MetricDef> m;
    auto add = [&](const std::string &name, const char *unit) {
        m.push_back({name, unit});
    };
    auto perDesign = [&](const std::string &prefix, const char *unit) {
        for (const auto &d : designNames())
            add(prefix + d, unit);
    };

    // Host self time as a share of the traced batch wall time.
    add("workloads.generate_frac", "frac");
    add("persistency.lower_frac", "frac");
    add("cpu.build_frac", "frac");
    perDesign("cpu.run_frac.", "frac");
    add("cpu.teardown_frac", "frac");
    add("pmds.setup_frac", "frac");
    add("pmds.op_body_frac", "frac");
    add("pmds.check_frac", "frac");
    add("faultinject.explore_frac", "frac");
    add("faultinject.self_frac", "frac");
    add("service.build_frac", "frac");
    perDesign("service.run_frac.", "frac");
    add("trace.driver_frac", "frac");
    add("trace.overhead_frac", "frac");
    add("host.sys_frac", "frac");

    // Host rates.
    perDesign("fases_per_s.", "1/s");
    add("sim.events_per_s", "1/s");

    // Exact counts of the timing machine and its inputs.
    add("workloads.logical_events", "count");
    perDesign("persistency.instructions.", "count");
    perDesign("sim.events.", "count");
    perDesign("sim.fases.", "count");
    perDesign("sim.events_per_fase.", "events/FASE");
    for (const char *s :
         {"cpu.sfenceStalls", "cpu.dfenceStalls", "cpu.specBarrierStalls",
          "cpu.sqFullStalls", "cpu.aborts", "cpu.lock.contendedAcquires",
          "mem.pmc.reads", "mem.pmc.writes", "mem.pmc.writeCoalesces",
          "mem.pmc.persistsRefused", "mem.specbuf.fullPauses",
          "mem.specbuf.misspecs", "mem.path.pathRetries",
          "mem.persistbuf.depStalls", "mem.coherenceInvalidations"})
        add(s, "count");

    // Crash explorer and the pmds callbacks it makes.
    for (const char *s :
         {"faultinject.crash_points", "faultinject.torn_trials",
          "faultinject.reorder_windows", "faultinject.states_explored",
          "faultinject.states_deduped", "faultinject.naive_states",
          "faultinject.elided_persists", "faultinject.failures"})
        add(s, "count");
    add("faultinject.useful_ratio", "ratio");
    add("pmds.op_calls", "count");

    // Service.
    for (const char *s :
         {"service.offered", "service.succeeded", "service.retries",
          "service.shed_rejects", "service.degraded_rejects",
          "service.recoveries", "service.oracle_checks"})
        add(s, "count");
    add("service.shard_imbalance", "ratio");

    // Simulated results: exact model outputs.
    perDesign("model.sim_ticks.", "tick");
    perDesign("model.speedup.", "ratio");
    perDesign("model.client_p50_ns.", "sim_ns");
    perDesign("model.client_p99_ns.", "sim_ns");
    add("model.paper_gap.PMEM-Spec", "frac");
    add("model.paper_gap.HOPS", "frac");
    return m;
}

} // namespace

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> m = {
        {"wall_s", "s"},
        {"setup_s", "s"},
        {"peak_rss_mb", "MB"},
        {"work_per_s", "1/s"},
        {"success_ratio", "ratio"},
    };
    return m;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> m = buildPerLayer();
    return m;
}

std::string
checkSpans(const std::vector<Span> &spans, double batchWall)
{
    if (spans.empty() || spans[0].parent >= 0)
        return "traced batch has no root span";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        if (s.end < s.start)
            return std::string("span ") + s.name + " never closed";
        if (i > 0 && s.parent < 0)
            return std::string("second root span ") + s.name;
        if (s.parent >= 0) {
            const Span &p = spans[static_cast<std::size_t>(s.parent)];
            if (s.start < p.start || s.end > p.end)
                return std::string("span ") + s.name +
                       " lies outside its parent " + p.name;
        }
    }
    // The root opens just after the driver starts its clock and
    // closes just before it stops it.
    const double root = spans[0].end - spans[0].start;
    if (root > batchWall || batchWall - root > 1e-3 + 1e-3 * batchWall)
        return "root span " + std::to_string(root) +
               " s does not match the batch wall " +
               std::to_string(batchWall) + " s";
    return "";
}

void
SpanTotals::add(const std::vector<Span> &spans)
{
    std::vector<double> childSum(spans.size(), 0);
    for (const Span &s : spans)
        if (s.parent >= 0)
            childSum[static_cast<std::size_t>(s.parent)] += s.end - s.start;

    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        const double dur = s.end - s.start;
        const double self = dur - childSum[i];
        selfByDesign[{s.name, s.design}] += self;
        selfByName[s.name] += self;
        totalByName[s.name] += dur;
        if (s.parent < 0)
            rootWall += dur;
    }
}

double
SpanTotals::self(const std::string &name, int design) const
{
    if (design < 0) {
        const auto it = selfByName.find(name);
        return it == selfByName.end() ? 0 : it->second;
    }
    const auto it = selfByDesign.find({name, design});
    return it == selfByDesign.end() ? 0 : it->second;
}

double
SpanTotals::total(const std::string &name) const
{
    const auto it = totalByName.find(name);
    return it == totalByName.end() ? 0 : it->second;
}

std::uint64_t
digest(const std::map<std::string, double> &exact)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    char line[256];
    for (const auto &[name, v] : exact) {
        const int n =
            std::snprintf(line, sizeof line, "%s=%.17g\n", name.c_str(), v);
        for (int i = 0; i < n && i < static_cast<int>(sizeof line); ++i) {
            h ^= static_cast<unsigned char>(line[i]);
            h *= 0x100000001b3ULL;
        }
    }
    return h;
}

bool
writeSpans(const std::string &path, const std::vector<Span> &spans)
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << "index\tparent\tname\tcell\tdesign\tstart_s\tend_s\n";
    char buf[64];
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        os << i << '\t' << s.parent << '\t' << s.name << '\t' << s.cell
           << '\t'
           << (s.design >= 0
                   ? designNames()[static_cast<std::size_t>(s.design)]
                   : std::string("-"));
        std::snprintf(buf, sizeof buf, "\t%.9f\t%.9f\n", s.start, s.end);
        os << buf;
    }
    return static_cast<bool>(os);
}

namespace
{

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    unsigned maxLeaf = __get_cpuid_max(0x80000000, nullptr);
    if (maxLeaf >= 0x80000004) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s(brand);
        const auto b = s.find_first_not_of(' ');
        const auto e = s.find_last_not_of(' ');
        if (b != std::string::npos)
            return s.substr(b, e - b + 1);
    }
#endif
    return "unknown";
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out;
}

} // namespace

std::string
hostFingerprint(std::uint64_t seed)
{
    return "{\"nproc\": " +
           std::to_string(std::thread::hardware_concurrency()) +
           ", \"cpu\": \"" + jsonEscape(cpuModel()) +
           "\", \"compiler\": \"" + jsonEscape(PMBENCH_COMPILER) +
           "\", \"build_type\": \"" + jsonEscape(PMBENCH_BUILD_TYPE) +
           "\", \"seed\": " + std::to_string(seed) + "}";
}

bool
releaseBuild()
{
#if defined(__OPTIMIZE__) && defined(NDEBUG)
    return std::strcmp(PMBENCH_BUILD_TYPE, "Release") == 0;
#else
    return false;
#endif
}

} // namespace pmbench
