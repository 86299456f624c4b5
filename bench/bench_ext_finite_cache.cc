/**
 * @file
 * Extension B: finite caches.  The paper evaluates infinite caches to
 * isolate coherence traffic and argues finite-cache behaviour can be
 * estimated "to first order by adding the costs due to the finite
 * cache size"; this study simulates 4-way LRU caches directly and
 * shows how the Dir0B cost decomposes as capacity shrinks.
 */

#include "bench_common.hh"

#include "analysis/extensions.hh"
#include "mem/set_assoc.hh"

namespace
{

using namespace dirsim;

void
BM_FiniteCacheSimulation(benchmark::State &state)
{
    mem::CacheGeometry geom;
    geom.capacityBytes = static_cast<std::uint64_t>(state.range(0));
    geom.blockBytes = 16;
    geom.ways = 4;
    auto workloads = gen::standardWorkloads();
    for (auto &cfg : workloads)
        cfg.totalRefs = 100'000;
    for (auto _ : state) {
        const auto results =
            analysis::invalWithFiniteCaches(workloads, geom);
        benchmark::DoNotOptimize(results.replacementEvictions);
    }
}
BENCHMARK(BM_FiniteCacheSimulation)
    ->Arg(16 * 1024)
    ->Arg(256 * 1024);

} // namespace

int
main(int argc, char **argv)
{
    return dirsim::bench::runBench(argc, argv, [] {
        return dirsim::analysis::renderFiniteCache(
                   dirsim::analysis::finiteCacheStudy(
                       {8 * 1024, 32 * 1024, 128 * 1024, 512 * 1024,
                        2048 * 1024}))
            .toString();
    });
}
