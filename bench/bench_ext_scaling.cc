/**
 * @file
 * Extension A: scaling beyond four CPUs — the study the paper calls
 * for ("We are trying to obtain traces for a much larger number of
 * processes and hope to extend our results shortly").  Runs the
 * generic scaled workload at 2..32 processors and tracks whether the
 * key directory result — most invalidations touch at most one cache —
 * survives scale.
 */

#include "bench_common.hh"

#include "analysis/extensions.hh"

namespace
{

using namespace dirsim;

void
BM_ScaledSimulation(benchmark::State &state)
{
    const unsigned cpus = static_cast<unsigned>(state.range(0));
    const gen::WorkloadConfig cfg =
        gen::scaledConfig(cpus, 20'000 * cpus);
    for (auto _ : state) {
        const auto eval = analysis::evaluateWorkloads({cfg});
        benchmark::DoNotOptimize(
            eval.average.inval.events.totalRefs());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(cfg.totalRefs));
}
BENCHMARK(BM_ScaledSimulation)->Arg(4)->Arg(16)->Arg(32);

} // namespace

int
main(int argc, char **argv)
{
    return dirsim::bench::runBench(argc, argv, [] {
        return dirsim::analysis::renderScaling(
                   dirsim::analysis::scalingStudy({2, 4, 8, 16, 32}))
            .toString();
    });
}
