/**
 * @file
 * Reproduces Figure 4: the Table 5 breakdown normalised to each
 * scheme's total — e.g. WTI dominated by write-throughs, Dragon
 * splitting roughly evenly between cache loading and write updates,
 * and Dir0B's directory-access share being small (the paper's
 * argument that the directory is not a bottleneck).
 */

#include "bench_common.hh"

namespace
{

using namespace dirsim;

void
BM_BreakdownFractions(benchmark::State &state)
{
    const auto &eval = bench::standardEval();
    for (auto _ : state) {
        const auto table = analysis::figure4(eval);
        benchmark::DoNotOptimize(table.rows());
    }
}
BENCHMARK(BM_BreakdownFractions);

} // namespace

int
main(int argc, char **argv)
{
    return dirsim::bench::runBench(argc, argv, [] {
        return dirsim::analysis::figure4(dirsim::bench::standardEval())
            .toString();
    });
}
