/**
 * @file
 * Quickstart: generate a small synthetic multiprocessor workload, run
 * the three coherence state engines over it, and print the paper's
 * headline comparison — bus cycles per memory reference for Dir1NB,
 * WTI, Dir0B and Dragon on both bus models.
 *
 * This is the minimal end-to-end use of the library: workload ->
 * simulator -> cost model -> table.
 */

#include <cstdio>
#include <cstring>
#include <iostream>

#include "analysis/evaluation.hh"
#include "analysis/exhibits.hh"
#include "gen/workloads.hh"

int
main(int argc, char **argv)
{
    using namespace dirsim;

    const char *const usage = "Usage: quickstart [-h|--help]\n"
                              "  Takes no arguments.\n";
    if (argc > 1) {
        if (std::strcmp(argv[1], "--help") == 0 ||
            std::strcmp(argv[1], "-h") == 0) {
            std::cout << usage;
            return 0;
        }
        std::cerr << "error: unexpected argument '" << argv[1] << "'\n"
                  << usage;
        return 2;
    }

    // A quarter-size pops-like workload keeps this instant.
    gen::WorkloadConfig cfg = gen::popsConfig();
    cfg.totalRefs = 400'000;

    std::cout << "Simulating workload '" << cfg.name << "' ("
              << cfg.totalRefs << " refs, " << cfg.space.nCpus
              << " CPUs)...\n\n";

    const analysis::Evaluation eval =
        analysis::evaluateWorkloads({cfg});

    std::cout << analysis::table4(eval).toString() << "\n";
    std::cout << analysis::figure2(eval).toString() << "\n";

    const analysis::Figure1 fig1 = analysis::figure1(eval);
    std::printf("Writes to previously-clean blocks invalidating at "
                "most one cache: %.1f%%\n",
                100.0 * fig1.fracAtMostOne);
    return 0;
}
