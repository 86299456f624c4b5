/**
 * @file
 * Reproduces Section 5.1: the effect of adding a fixed overhead of q
 * bus cycles to every bus transaction (arbitration, controller
 * propagation, initial cache access).  The paper's published models:
 * Dragon 0.0336 + 0.0206 q and Dir0B 0.0491 + 0.0114 q — at q = 1 the
 * directory scheme is nearly on par with the best snoopy scheme.
 */

#include "bench_common.hh"

#include "sim/cost_model.hh"

namespace
{

using namespace dirsim;

void
BM_OverheadSweep(benchmark::State &state)
{
    const auto &eval = bench::standardEval();
    const auto pipe = bus::standardBuses().pipelined;
    for (auto _ : state) {
        double acc = 0.0;
        for (double q = 0.0; q <= 4.0; q += 0.5) {
            sim::CostOptions opts;
            opts.overheadQ = q;
            acc += sim::computeCost(sim::Scheme::Dir0B,
                                    eval.average.inval, pipe, opts)
                       .total();
            acc += sim::computeCost(sim::Scheme::Dragon,
                                    eval.average.dragon, pipe, opts)
                       .total();
        }
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_OverheadSweep);

} // namespace

int
main(int argc, char **argv)
{
    return dirsim::bench::runBench(argc, argv, [] {
        return dirsim::analysis::section51(dirsim::bench::standardEval(),
                                           {0.0, 1.0, 2.0, 4.0})
            .toString();
    });
}
