/**
 * @file
 * Extension E: the paper's scaling thesis, quantified.
 *
 * Section 2: "Attempts to scale [snoopy schemes] by replacing the bus
 * with a higher bandwidth communication network will not be
 * successful since the consistency protocol relies on low-latency
 * broadcasts...  [directory] messages are directed (i.e., not
 * broadcast), they can be easily sent over any arbitrary
 * interconnection network."
 *
 * This bench prices the protocols on a point-to-point network of n
 * nodes (log2(n) hop diameter, broadcast emulated as n-1 directed
 * messages) and sweeps n: the broadcast-reliant schemes (snoopy WTI,
 * identity-free Dir0B) blow up with machine size while the directed
 * directory schemes (full map, limited pointers) stay nearly flat.
 */

#include "bench_common.hh"

#include "analysis/extensions.hh"
#include "bus/network.hh"

namespace
{

using namespace dirsim;

void
BM_NetworkStudyPoint(benchmark::State &state)
{
    const unsigned cpus = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        const auto points =
            analysis::networkStudy({cpus}, 30'000);
        benchmark::DoNotOptimize(points[0].dirnnbDirected);
    }
}
BENCHMARK(BM_NetworkStudyPoint)->Arg(4)->Arg(16);

void
BM_NetworkCostTables(benchmark::State &state)
{
    for (auto _ : state) {
        double acc = 0.0;
        for (unsigned n : {4u, 16u, 64u}) {
            bus::NetworkParams params;
            params.nNodes = n;
            acc += bus::networkCosts(params).memoryAccess;
            acc += bus::networkBroadcastCost(params);
        }
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_NetworkCostTables);

} // namespace

int
main(int argc, char **argv)
{
    return dirsim::bench::runBench(argc, argv, [] {
        return dirsim::analysis::renderNetwork(
                   dirsim::analysis::networkStudy({2, 4, 8, 16, 32, 64}))
            .toString();
    });
}
