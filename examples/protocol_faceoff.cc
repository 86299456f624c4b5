/**
 * @file
 * Protocol face-off: the paper's full small-multiprocessor evaluation
 * on the three workloads (Sections 4-5), printed exhibit by exhibit.
 *
 * Run with --help for the options.
 */

#include <cstring>
#include <iostream>

#include "analysis/evaluation.hh"
#include "analysis/exhibits.hh"
#include "gen/workloads.hh"

int
main(int argc, char **argv)
{
    using namespace dirsim;

    const char *const usage =
        "Usage: protocol_faceoff [--full]\n"
        "  --full     use full-size (~3.2M reference) traces as in the\n"
        "             paper; default is quarter-size for a fast run\n"
        "  -h, --help print this help and exit\n";
    bool full_size = false;
    for (int a = 1; a < argc; ++a) {
        if (std::strcmp(argv[a], "--help") == 0 ||
            std::strcmp(argv[a], "-h") == 0) {
            std::cout << usage;
            return 0;
        }
        if (std::strcmp(argv[a], "--full") != 0) {
            std::cerr << "error: unexpected argument '" << argv[a]
                      << "'\n"
                      << usage;
            return 2;
        }
        full_size = true;
    }

    const auto workloads = gen::standardWorkloads(full_size);
    std::cout << analysis::table3(
                     analysis::characterizeWorkloads(workloads))
                     .toString()
              << "\n";

    const analysis::Evaluation eval =
        analysis::evaluateWorkloads(workloads);

    std::cout << analysis::table4(eval).toString() << "\n";
    std::cout << analysis::renderFigure1(analysis::figure1(eval),
                                         5)
                     .toString()
              << "\n";
    std::cout << analysis::figure2(eval).toString() << "\n";
    std::cout << analysis::figure3(eval).toString() << "\n";
    std::cout << analysis::table5(eval).toString() << "\n";
    std::cout << analysis::figure5(eval).toString() << "\n";
    return 0;
}
