/**
 * @file
 * Reproduces the Section 5 closing estimate: how many effective
 * processors a single shared bus supports under each protocol.  The
 * paper's arithmetic — ~0.03 bus cycles per reference, 10-MIPS
 * processors, a 100ns bus — yields "a maximum performance of 15
 * effective processors", the number that motivates moving to
 * directory schemes on scalable interconnects.  The queueing column
 * shows how contention erodes throughput before the hard ceiling.
 */

#include "bench_common.hh"

#include "analysis/system_perf.hh"

namespace
{

using namespace dirsim;

std::string
exhibit()
{
    std::vector<analysis::SystemEstimate> estimates;
    for (const auto &sc :
         analysis::schemeCosts(bench::standardEval().average)) {
        estimates.push_back(analysis::systemEstimate(
            sc.pipelined, analysis::MachineParams{}));
    }
    return analysis::renderSystemLimits(estimates, {4, 8, 16, 32})
        .toString();
}

void
BM_SystemEstimates(benchmark::State &state)
{
    const auto costs =
        analysis::schemeCosts(bench::standardEval().average);
    for (auto _ : state) {
        double acc = 0.0;
        for (const auto &sc : costs) {
            const auto est = analysis::systemEstimate(
                sc.pipelined, analysis::MachineParams{});
            acc += est.effectiveProcessorsAt(16);
        }
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_SystemEstimates);

} // namespace

int
main(int argc, char **argv)
{
    return dirsim::bench::runBench(argc, argv, exhibit);
}
