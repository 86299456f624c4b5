/**
 * @file
 * Reproduces Tables 1 and 2: fundamental bus-operation timings and
 * the derived per-event bus-cycle costs for the pipelined and
 * non-pipelined bus models.
 */

#include "bench_common.hh"

#include "bus/bus_model.hh"
#include "sim/cost_model.hh"

namespace
{

using namespace dirsim;

void
BM_BuildBusModels(benchmark::State &state)
{
    for (auto _ : state) {
        const bus::BusModels buses = bus::standardBuses();
        benchmark::DoNotOptimize(buses.pipelined.memoryAccess +
                                 buses.nonPipelined.memoryAccess);
    }
}
BENCHMARK(BM_BuildBusModels);

void
BM_CostEvaluation(benchmark::State &state)
{
    const auto &eval = bench::standardEval();
    const bus::BusCosts pipe = bus::standardBuses().pipelined;
    for (auto _ : state) {
        const auto cost = sim::computeCost(
            sim::Scheme::Dir0B, eval.average.inval, pipe);
        benchmark::DoNotOptimize(cost.total());
    }
}
BENCHMARK(BM_CostEvaluation);

} // namespace

int
main(int argc, char **argv)
{
    return dirsim::bench::runBench(argc, argv, [] {
        return dirsim::analysis::table1().toString() + "\n" +
               dirsim::analysis::table2().toString();
    });
}
