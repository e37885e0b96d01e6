/**
 * @file
 * Compare the four persistency-model implementations on one
 * benchmark: the Figure 2 programming models (ordering-instruction
 * mixes) side by side with the Figure 9 throughput they produce.
 *
 *   $ ./design_comparison [benchmark-name] [ops-per-thread]
 */

#include <cstdint>
#include <cstdio>

#include "common/cli.hh"
#include "core/sweep.hh"
#include "persistency/lowering.hh"

int
main(int argc, char **argv)
{
    using namespace pmemspec;
    using persistency::Design;

    std::vector<std::string> args;
    cli::Parser cli(argv[0]);
    cli.positionals(args, "[benchmark-name [ops-per-thread]]");
    cli.parseOrExit(argc, argv);

    workloads::BenchId bench = workloads::BenchId::Tpcc;
    if (args.size() > 2)
        cli.fail("too many arguments");
    if (args.size() > 0 && !workloads::benchFromName(args[0], bench))
        cli.fail("unknown benchmark '" + args[0] + "'");
    workloads::WorkloadParams p;
    p.numThreads = 8;
    p.opsPerThread = 200;
    if (args.size() > 1) {
        const std::string why =
            cli::readCount("ops-per-thread", args[1], cli::Zero::Refused,
                           UINT64_MAX, p.opsPerThread);
        if (!why.empty())
            cli.fail(why);
    }

    std::printf("Benchmark: %s (8 cores, %llu FASEs/thread)\n\n",
                workloads::benchName(bench),
                static_cast<unsigned long long>(p.opsPerThread));

    // The programming models: what the "compiler/library" inserted.
    auto logical = workloads::generateTraces(bench, p);
    std::printf("%-10s %9s %9s %9s %9s %9s %9s\n", "design", "stores",
                "clwb", "sfence", "ofence", "dfence", "spec-bar");
    for (Design d : {Design::IntelX86, Design::DPO, Design::HOPS,
                     Design::PmemSpec}) {
        auto mix =
            persistency::instrMix(persistency::lower(logical[0], d));
        std::printf("%-10s %9zu %9zu %9zu %9zu %9zu %9zu\n",
                    persistency::designName(d).c_str(), mix.stores,
                    mix.clwbs, mix.sfences, mix.ofences, mix.dfences,
                    mix.specBarriers);
    }

    // The throughput those models produce.
    const auto row = core::runNormalizedSweep(
        {bench}, core::defaultMachineConfig(8), p, core::SweepRunner())[0];
    std::printf("\nThroughput normalised to IntelX86:\n");
    for (Design d : row.designs) {
        std::printf("  %-10s %6.3f\n",
                    persistency::designName(d).c_str(),
                    row.normalized.at(d));
    }
    std::printf("\nStrict persistency with speculation (PMEM-Spec) "
                "needs one ordering instruction per FASE and still "
                "tops the relaxed models -- the paper's thesis.\n");
    return 0;
}
