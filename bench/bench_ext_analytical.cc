/**
 * @file
 * Extension H: the Section 4 methodology argument, quantified.
 *
 * "Most previous studies that evaluated directory schemes used
 * analytical models ... the results are highly dependent on the
 * assumptions made."  This bench fits the canonical uniform-sharing
 * analytical model (Dubois-Briggs style) to each workload's measured
 * parameters and compares its predictions with trace-driven
 * simulation: the model tracks pero (genuinely unstructured sharing)
 * but misses the lock-structured pops/thor, which is precisely why
 * the paper insists on traces.
 */

#include "bench_common.hh"

#include "analysis/analytical.hh"

namespace
{

using namespace dirsim;

void
BM_AnalyticalPredict(benchmark::State &state)
{
    analysis::AnalyticalParams params;
    params.sharedRefFrac = 0.05;
    params.writeFrac = 0.2;
    params.nProcessors = 16;
    for (auto _ : state) {
        const auto pred = analysis::analyticalPredict(params);
        benchmark::DoNotOptimize(pred.coherenceMissesPerRef);
    }
}
BENCHMARK(BM_AnalyticalPredict);

void
BM_AnalyticalStudy(benchmark::State &state)
{
    auto workloads = gen::standardWorkloads();
    for (auto &cfg : workloads)
        cfg.totalRefs = 100'000;
    for (auto _ : state) {
        const auto rows = analysis::analyticalStudy(workloads);
        benchmark::DoNotOptimize(rows.size());
    }
}
BENCHMARK(BM_AnalyticalStudy);

} // namespace

int
main(int argc, char **argv)
{
    return dirsim::bench::runBench(argc, argv, [] {
        return dirsim::analysis::renderAnalytical(
                   dirsim::analysis::analyticalStudy(
                       dirsim::gen::standardWorkloads()))
            .toString();
    });
}
