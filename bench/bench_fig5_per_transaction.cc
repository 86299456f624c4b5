/**
 * @file
 * Reproduces Figure 5: average bus cycles per bus transaction.
 * Dragon's transactions are short one-word updates while Dir0B's are
 * block transfers, which is why fixed per-transaction overheads
 * (Section 5.1) erode Dragon's lead.
 */

#include "bench_common.hh"

namespace
{

using namespace dirsim;

void
BM_PerTransaction(benchmark::State &state)
{
    const auto &eval = bench::standardEval();
    for (auto _ : state) {
        double acc = 0.0;
        for (const auto &sc : analysis::schemeCosts(eval.average))
            acc += sc.pipelined.perTransaction();
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_PerTransaction);

} // namespace

int
main(int argc, char **argv)
{
    return dirsim::bench::runBench(argc, argv, [] {
        return dirsim::analysis::figure5(dirsim::bench::standardEval())
            .toString();
    });
}
