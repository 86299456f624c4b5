/**
 * @file
 * Reproduces Figure 3: bus cycles per memory reference for each
 * individual trace.  The paper's observation — pops and thor are
 * similar while pero is much cheaper because it shares far less —
 * should be visible in the rows.
 */

#include "bench_common.hh"

namespace
{

using namespace dirsim;

void
BM_PerTraceCosts(benchmark::State &state)
{
    const auto &eval = bench::standardEval();
    for (auto _ : state) {
        double acc = 0.0;
        for (const auto &te : eval.traces) {
            for (const auto &sc : analysis::schemeCosts(te))
                acc += sc.pipelined.total();
        }
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_PerTraceCosts);

} // namespace

int
main(int argc, char **argv)
{
    dirsim::bench::parseJobs(&argc, argv);
    return dirsim::bench::runBench(argc, argv, [] {
        return dirsim::analysis::figure3(dirsim::bench::standardEval())
                   .toString() +
               "\n" + dirsim::bench::sweepTimingReport();
    });
}
