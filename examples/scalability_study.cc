/**
 * @file
 * Scalability study: the large-machine question the paper poses but
 * could not answer with 4-CPU ATUM traces.
 *
 * Sweeps the processor count with the generic scaled workload and
 * reports, per machine size:
 *   - bus cycles/reference for Dir1NB, Dir0B, DirnNB and Dragon;
 *   - the Figure-1 statistic (share of clean-block writes that
 *     invalidate at most one cache) — the paper's argument for
 *     limited-pointer directories stands or falls with it;
 *   - the DiriB pointer sweep at a realistic broadcast cost, showing
 *     where extra pointers stop paying off;
 *   - directory storage per memory block for the competing
 *     organisations at that scale.
 *
 * Run with --help for the options.
 */

#include <iostream>
#include <string>
#include <vector>

#include "analysis/evaluation.hh"
#include "analysis/exhibits.hh"
#include "analysis/extensions.hh"
#include "bus/bus_model.hh"
#include "cli/parse.hh"
#include "sim/cost_model.hh"
#include "stats/table.hh"

int
main(int argc, char **argv)
{
    using namespace dirsim;

    const char *const usage =
        "Usage: scalability_study [maxCpus]\n"
        "  maxCpus    largest machine, 2..64 (default 32); the sweep\n"
        "             doubles the CPU count from 2 up to it\n"
        "  -h, --help print this help and exit\n";
    const std::vector<std::string> args =
        cli::positionalArgs(argc, argv, usage, 1);
    unsigned max_cpus = 32;
    if (!args.empty())
        max_cpus =
            cli::parseUnsignedInRange(args[0].c_str(), "maxCpus", 2, 64);

    std::vector<unsigned> counts;
    for (unsigned n = 2; n <= max_cpus; n *= 2)
        counts.push_back(n);

    std::cout << "Scaling the directory-scheme evaluation to "
              << max_cpus << " CPUs...\n\n";
    const auto points = analysis::scalingStudy(counts);
    std::cout << analysis::renderScaling(points).toString() << "\n";

    // DiriB pointer sweep at the largest machine.
    const gen::WorkloadConfig big =
        gen::scaledConfig(max_cpus, 100'000 * max_cpus);
    const analysis::Evaluation eval =
        analysis::evaluateWorkloads({big});
    const auto pipe = bus::standardBuses().pipelined;
    stats::TextTable sweep(
        "DiriB at " + std::to_string(max_cpus) +
            " CPUs (broadcast cost b = cycles to reach every cache)",
        {"i", "b=4", "b=" + std::to_string(max_cpus)});
    for (unsigned i : {1u, 2u, 4u, 8u}) {
        sim::CostOptions opts;
        opts.nPointers = i;
        opts.broadcastCost = 4.0;
        const double b4 = sim::computeCost(sim::Scheme::DirIB,
                                           eval.average.inval, pipe,
                                           opts)
                              .total();
        opts.broadcastCost = max_cpus;
        const double bn = sim::computeCost(sim::Scheme::DirIB,
                                           eval.average.inval, pipe,
                                           opts)
                              .total();
        sweep.addRow({std::to_string(i), stats::TextTable::num(b4),
                      stats::TextTable::num(bn)});
    }
    std::cout << sweep.toString() << "\n";

    // Storage comparison at the swept machine sizes.
    std::cout << analysis::renderStorage(
                     counts, "Directory storage (bits per memory block)")
                     .toString();
    return 0;
}
