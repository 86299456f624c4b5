/**
 * @file
 * Reproduces Table 3: the characteristics of the three workload
 * traces (reference counts, instruction/read/write mix, user/system
 * split), plus generator and characteriser throughput.
 */

#include "bench_common.hh"

#include "trace/characterize.hh"

namespace
{

using namespace dirsim;

void
BM_GenerateReferences(benchmark::State &state)
{
    gen::WorkloadConfig cfg = gen::popsConfig();
    cfg.totalRefs = static_cast<std::uint64_t>(state.range(0));
    for (auto _ : state) {
        gen::WorkloadSource source(cfg);
        trace::TraceRecord rec;
        std::uint64_t checksum = 0;
        while (source.next(rec))
            checksum += rec.addr;
        benchmark::DoNotOptimize(checksum);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(cfg.totalRefs));
}
BENCHMARK(BM_GenerateReferences)->Arg(100'000)->Arg(400'000);

void
BM_Characterize(benchmark::State &state)
{
    gen::WorkloadConfig cfg = gen::thorConfig();
    cfg.totalRefs = 200'000;
    for (auto _ : state) {
        gen::WorkloadSource source(cfg);
        const auto ch = trace::characterize(source, cfg.name);
        benchmark::DoNotOptimize(ch.refs);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(cfg.totalRefs));
}
BENCHMARK(BM_Characterize);

} // namespace

int
main(int argc, char **argv)
{
    return dirsim::bench::runBench(argc, argv, [] {
        return dirsim::analysis::table3(
                   dirsim::analysis::characterizeWorkloads(
                       dirsim::gen::standardWorkloads()))
            .toString();
    });
}
