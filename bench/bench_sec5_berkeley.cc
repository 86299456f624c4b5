/**
 * @file
 * Reproduces the Section 5 aside: estimating the Berkeley Ownership
 * protocol from the Dir0B event frequencies by pricing the directory
 * probe at zero (the cache's own block state answers whether an
 * invalidation is needed).  Also prints the Yen-Fu single-bit
 * refinement, which trades the same probe for single-bit maintenance
 * traffic (Section 2's discussion).
 */

#include "bench_common.hh"

#include "sim/cost_model.hh"
#include "stats/table.hh"

namespace
{

using namespace dirsim;

std::string
exhibit()
{
    const auto &eval = bench::standardEval();
    const auto buses = bus::standardBuses();
    // The real Berkeley Ownership engine run: ownership persists
    // across read misses, so more misses are serviced cache-to-cache
    // than the Dir0B-based estimate assumes.
    const coherence::EngineResults berkeley_own =
        analysis::berkeleyResults(gen::standardWorkloads());

    stats::TextTable table(
        "Section 5 aside: the Berkeley estimate vs the real protocol "
        "(and relatives), bus cycles per reference",
        {"Scheme", "Pipelined", "Non-pipelined"});
    auto row = [&](sim::Scheme scheme,
                   const coherence::EngineResults &results) {
        const auto pipe_cost =
            sim::computeCost(scheme, results, buses.pipelined);
        const auto np_cost =
            sim::computeCost(scheme, results, buses.nonPipelined);
        table.addRow({pipe_cost.scheme,
                      stats::TextTable::num(pipe_cost.total()),
                      stats::TextTable::num(np_cost.total())});
    };
    row(sim::Scheme::Dir0B, eval.average.inval);
    row(sim::Scheme::Berkeley, eval.average.inval);
    row(sim::Scheme::BerkeleyOwn, berkeley_own);
    row(sim::Scheme::MESI, eval.average.inval);
    row(sim::Scheme::YenFu, eval.average.inval);
    row(sim::Scheme::Dragon, eval.average.dragon);
    return table.toString();
}

void
BM_VariantCosts(benchmark::State &state)
{
    const auto &eval = bench::standardEval();
    const auto pipe = bus::standardBuses().pipelined;
    for (auto _ : state) {
        double acc = 0.0;
        acc += sim::computeCost(sim::Scheme::Berkeley,
                                eval.average.inval, pipe)
                   .total();
        acc += sim::computeCost(sim::Scheme::YenFu,
                                eval.average.inval, pipe)
                   .total();
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_VariantCosts);

} // namespace

int
main(int argc, char **argv)
{
    return dirsim::bench::runBench(argc, argv, exhibit);
}
