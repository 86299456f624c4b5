/**
 * @file
 * Reproduces Table 4: event frequencies for Dir1NB, WTI, Dir0B and
 * Dragon as percentages of all references (trace average), plus the
 * trace-driven simulation throughput of each state engine.
 */

#include "bench_common.hh"

#include "coherence/dragon_engine.hh"
#include "coherence/inval_engine.hh"
#include "coherence/limited_engine.hh"
#include "gen/workload.hh"
#include "sim/simulator.hh"

namespace
{

using namespace dirsim;

enum EngineSel { SelInval = 0, SelDir1NB = 1, SelDragon = 2 };

void
BM_EngineThroughput(benchmark::State &state)
{
    gen::WorkloadConfig cfg = gen::popsConfig();
    cfg.totalRefs = 200'000;
    const auto trace = gen::generateTrace(cfg);

    for (auto _ : state) {
        sim::Simulator simulator;
        switch (state.range(0)) {
          case SelInval: {
            coherence::InvalEngineConfig ecfg;
            ecfg.nUnits = 4;
            simulator.addEngine(
                std::make_unique<coherence::InvalEngine>(ecfg));
            break;
          }
          case SelDir1NB:
            simulator.addEngine(
                std::make_unique<coherence::LimitedEngine>(4, 1));
            break;
          default:
            simulator.addEngine(
                std::make_unique<coherence::DragonEngine>(4));
            break;
        }
        trace::MemoryTraceSource source(trace);
        benchmark::DoNotOptimize(simulator.run(source));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_EngineThroughput)
    ->Arg(SelInval)
    ->Arg(SelDir1NB)
    ->Arg(SelDragon);

void
BM_AllEnginesOnePass(benchmark::State &state)
{
    gen::WorkloadConfig cfg = gen::popsConfig();
    cfg.totalRefs = 200'000;
    const auto trace = gen::generateTrace(cfg);
    for (auto _ : state) {
        sim::Simulator simulator;
        coherence::InvalEngineConfig ecfg;
        ecfg.nUnits = 4;
        simulator.addEngine(
            std::make_unique<coherence::InvalEngine>(ecfg));
        simulator.addEngine(
            std::make_unique<coherence::LimitedEngine>(4, 1));
        simulator.addEngine(
            std::make_unique<coherence::DragonEngine>(4));
        trace::MemoryTraceSource source(trace);
        benchmark::DoNotOptimize(simulator.run(source));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_AllEnginesOnePass);

} // namespace

int
main(int argc, char **argv)
{
    return dirsim::bench::runBench(argc, argv, [] {
        return dirsim::analysis::table4(dirsim::bench::standardEval())
            .toString();
    });
}
