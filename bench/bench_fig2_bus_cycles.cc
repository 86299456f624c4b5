/**
 * @file
 * Reproduces Figure 2: bus cycles per memory reference for the four
 * schemes, with the pipelined and non-pipelined bus models as the
 * low/high ends of each bar (trace average).
 */

#include "bench_common.hh"

#include "sim/cost_model.hh"

namespace
{

using namespace dirsim;

void
BM_SchemeCosts(benchmark::State &state)
{
    const auto &eval = bench::standardEval();
    for (auto _ : state) {
        const auto costs = analysis::schemeCosts(eval.average);
        benchmark::DoNotOptimize(costs.size());
    }
}
BENCHMARK(BM_SchemeCosts);

} // namespace

int
main(int argc, char **argv)
{
    dirsim::bench::parseJobs(&argc, argv);
    return dirsim::bench::runBench(argc, argv, [] {
        return dirsim::analysis::figure2(dirsim::bench::standardEval())
                   .toString() +
               "\n" + dirsim::bench::sweepTimingReport();
    });
}
