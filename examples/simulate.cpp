/**
 * @file
 * simulate: a command-line driver over the experiment API — run
 * any Table 4 benchmark on any design with custom machine knobs and
 * dump the flattened statistics.
 *
 *   $ ./simulate --bench TPCC --design PMEM-Spec --cores 8 \
 *                    --ops 500 --path-ns 40 --spec-entries 8 --stats
 */

#include <cstdio>
#include <iostream>

#include "common/cli.hh"
#include "core/experiment.hh"

int
main(int argc, char **argv)
{
    using namespace pmemspec;
    using cli::Zero;
    using persistency::Design;

    workloads::BenchId bench = workloads::BenchId::Tpcc;
    Design design = Design::PmemSpec;
    unsigned cores = 8;
    std::uint64_t ops = 400;
    std::uint64_t seed = 1;
    unsigned path_ns = 20;
    unsigned spec_entries = 4;
    unsigned pmcs = 1;
    bool unordered_noc = false;
    bool dump_stats = false;
    bool show_config = false;

    cli::Parser cli(argv[0]);
    cli.callback("--bench", "NAME",
                 [&](const std::string &name) {
                     return workloads::benchFromName(name, bench)
                                ? std::string()
                                : "unknown benchmark '" + name + "'";
                 },
                 "ArraySwaps|Queue|Hashmap|RB-Tree|TATP|TPCC|\n"
                 "Vacation|Memcached (default TPCC)");
    cli.callback("--design", "NAME",
                 [&](const std::string &name) {
                     return persistency::designFromName(name, design)
                                ? std::string()
                                : "unknown design '" + name + "'";
                 },
                 "IntelX86|DPO|HOPS|PMEM-Spec (default PMEM-Spec)");
    cli.count("--cores", cores, Zero::Refused, "threads/cores");
    cli.count("--ops", ops, Zero::Refused, "FASEs per thread");
    cli.count("--path-ns", path_ns, Zero::Refused,
              "persist-path latency in ns");
    cli.count("--spec-entries", spec_entries, Zero::Refused,
              "speculation buffer entries");
    cli.count("--pmcs", pmcs, Zero::Refused, "PM controllers");
    cli.flag("--unordered-noc", unordered_noc,
             "multi-PMC NoC does not preserve order");
    cli.count("--seed", seed, Zero::Allowed, "workload RNG seed");
    cli.flag("--stats", dump_stats, "dump the flattened statistics");
    cli.flag("--config", show_config,
             "print the Table 3 configuration");
    cli.parseOrExit(argc, argv);

    core::ExperimentConfig cfg;
    cfg.withBench(bench)
        .withDesign(design)
        .withMachine(core::defaultMachineConfig(cores))
        .withThreads(cores)
        .withOps(ops)
        .withSeed(seed);
    auto &mem = cfg.machine.mem;
    mem.persistPathLatency = nsToTicks(path_ns);
    mem.specBufferEntries = spec_entries;
    mem.numPmcs = pmcs;
    mem.orderedNoc = !unordered_noc;

    if (show_config) {
        core::printConfig(std::cout, cfg.machine);
        std::printf("\n");
    }

    std::printf("running %s on %s (%u cores, %llu FASEs/thread)...\n",
                workloads::benchName(bench),
                persistency::designName(design).c_str(), cores,
                static_cast<unsigned long long>(ops));
    const core::ExperimentResult res = core::runExperiment(cfg);
    const cpu::RunResult &r = res.run;

    std::printf("  simulated time       %.2f us\n",
                static_cast<double>(r.simTicks) / 1e6);
    std::printf("  committed FASEs      %llu\n",
                static_cast<unsigned long long>(r.fases));
    std::printf("  throughput           %.3e FASEs/s\n",
                r.throughput());
    std::printf("  instructions         %llu\n",
                static_cast<unsigned long long>(r.instructions));
    std::printf("  aborts               %llu\n",
                static_cast<unsigned long long>(r.aborts));
    if (design == persistency::Design::PmemSpec) {
        std::printf("  load misspecs        %llu\n",
                    static_cast<unsigned long long>(r.loadMisspecs));
        std::printf("  store misspecs       %llu\n",
                    static_cast<unsigned long long>(r.storeMisspecs));
        std::printf("  spec-buffer pauses   %llu\n",
                    static_cast<unsigned long long>(
                        r.specBufFullPauses));
        if (pmcs > 1) {
            std::printf("  cross-PMC hazards    %llu%s\n",
                        static_cast<unsigned long long>(
                            r.crossPmcReorderHazards),
                        unordered_noc ? "  (unordered NoC)" : "");
        }
    }
    if (dump_stats) {
        std::printf("\n--- statistics ---\n");
        for (const auto &sv : res.stats) {
            std::printf("%s %.15g", sv.name.c_str(), sv.value);
            if (!sv.desc.empty())
                std::printf(" # %s", sv.desc.c_str());
            std::printf("\n");
        }
    }
    return 0;
}
