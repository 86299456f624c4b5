/**
 * @file
 * Extension G: distributed directories and locality.
 *
 * Sections 2 and 7 of the paper answer the "directory bottleneck"
 * concern by distributing memory and its directory across the
 * processor boards, so bandwidth scales with the machine.  How much
 * of the directory traffic actually stays on the local board depends
 * on block placement: this bench measures the local fraction of
 * home-node transactions under interleaved (block mod n) and
 * first-touch placement as the machine grows.
 */

#include "bench_common.hh"

#include "analysis/extensions.hh"
#include "coherence/inval_engine.hh"
#include "gen/workload.hh"
#include "sim/simulator.hh"

namespace
{

using namespace dirsim;

void
BM_HomeTracking(benchmark::State &state)
{
    gen::WorkloadConfig cfg = gen::scaledConfig(8, 120'000);
    for (auto _ : state) {
        sim::Simulator simulator;
        coherence::InvalEngineConfig icfg;
        icfg.nUnits = 8;
        icfg.homePolicy = coherence::HomePolicy::FirstTouch;
        auto &engine = simulator.addEngine(
            std::make_unique<coherence::InvalEngine>(icfg));
        gen::WorkloadSource source(cfg);
        simulator.run(source);
        benchmark::DoNotOptimize(
            engine.results().homeLocalTransactions);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(cfg.totalRefs));
}
BENCHMARK(BM_HomeTracking);

} // namespace

int
main(int argc, char **argv)
{
    return dirsim::bench::runBench(argc, argv, [] {
        return dirsim::analysis::renderHomeLocality(
                   dirsim::analysis::homeLocalityStudy({2, 4, 8, 16, 32}))
            .toString();
    });
}
