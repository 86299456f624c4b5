/**
 * @file
 * Extension C: process- versus processor-based sharing — the check
 * Section 4.4 reports qualitatively ("the numbers were not
 * significantly different") made quantitative, with process migration
 * enabled so the two domains can actually diverge.
 */

#include "bench_common.hh"

#include "analysis/extensions.hh"

namespace
{

using namespace dirsim;

void
BM_BothDomains(benchmark::State &state)
{
    for (auto _ : state) {
        const auto cmp = analysis::sharingDomainStudy(0.02);
        benchmark::DoNotOptimize(
            cmp.byProcessor.average.inval.events.totalRefs());
    }
}
BENCHMARK(BM_BothDomains);

} // namespace

int
main(int argc, char **argv)
{
    return dirsim::bench::runBench(argc, argv, [] {
        return dirsim::analysis::renderSharingDomain(
                   dirsim::analysis::sharingDomainStudy(0.02))
            .toString();
    });
}
