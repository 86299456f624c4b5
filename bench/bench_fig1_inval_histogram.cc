/**
 * @file
 * Reproduces Figure 1: the histogram of the number of caches that
 * must be invalidated on a write to a previously-clean block.  The
 * paper's headline: over 85 % of such writes invalidate at most one
 * cache, which is what motivates limited-pointer directories.
 */

#include "bench_common.hh"

#include "coherence/inval_engine.hh"
#include "gen/workload.hh"

namespace
{

using namespace dirsim;

void
BM_FanoutCollection(benchmark::State &state)
{
    gen::WorkloadConfig cfg = gen::thorConfig();
    cfg.totalRefs = 150'000;
    const auto trace = gen::generateTrace(cfg);
    for (auto _ : state) {
        coherence::InvalEngineConfig ecfg;
        ecfg.nUnits = 4;
        coherence::InvalEngine engine(ecfg);
        for (const auto &rec : trace.records()) {
            engine.access(rec.pid, rec.type, rec.addr / 16);
        }
        benchmark::DoNotOptimize(
            engine.results().whClnFanout.totalSamples());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_FanoutCollection);

} // namespace

int
main(int argc, char **argv)
{
    using namespace dirsim;
    return bench::runBench(argc, argv, [] {
        return analysis::renderFigure1(
                   analysis::figure1(bench::standardEval()),
                   bench::standardCpus + 1)
            .toString();
    });
}
