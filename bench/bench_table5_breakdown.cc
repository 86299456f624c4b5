/**
 * @file
 * Reproduces Table 5: the breakdown of bus cycles per reference by
 * operation class on the pipelined bus, with the cumulative row the
 * paper publishes as 0.3210 / 0.1466 / 0.0491 / 0.0336.
 */

#include "bench_common.hh"

#include "sim/cost_model.hh"

namespace
{

using namespace dirsim;

void
BM_BreakdownAllSchemes(benchmark::State &state)
{
    const auto &eval = bench::standardEval();
    const auto pipe = bus::standardBuses().pipelined;
    for (auto _ : state) {
        double acc = 0.0;
        acc += sim::computeCost(sim::Scheme::Dir1NB,
                                eval.average.dir1nb, pipe)
                   .total();
        acc += sim::computeCost(sim::Scheme::WTI, eval.average.inval,
                                pipe)
                   .total();
        acc += sim::computeCost(sim::Scheme::Dir0B, eval.average.inval,
                                pipe)
                   .total();
        acc += sim::computeCost(sim::Scheme::Dragon,
                                eval.average.dragon, pipe)
                   .total();
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_BreakdownAllSchemes);

} // namespace

int
main(int argc, char **argv)
{
    return dirsim::bench::runBench(argc, argv, [] {
        return dirsim::analysis::table5(dirsim::bench::standardEval())
            .toString();
    });
}
