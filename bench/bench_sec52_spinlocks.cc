/**
 * @file
 * Reproduces Section 5.2: the impact of spin-lock test reads.  The
 * paper reruns the evaluation with all lock tests excluded: Dir1NB
 * improves dramatically (0.32 -> 0.12 bus cycles per reference,
 * because contended locks bounce the single copy between spinners)
 * while Dir0B is unchanged.
 */

#include "bench_common.hh"

#include "trace/filter.hh"

namespace
{

using namespace dirsim;

const analysis::Evaluation &
filteredEval()
{
    static const analysis::Evaluation eval = [] {
        analysis::EvalOptions opts;
        opts.dropLockTests = true;
        return analysis::evaluateWorkloads(gen::standardWorkloads(),
                                           opts);
    }();
    return eval;
}

void
BM_FilteredSimulation(benchmark::State &state)
{
    gen::WorkloadConfig cfg = gen::popsConfig();
    cfg.totalRefs = 150'000;
    for (auto _ : state) {
        analysis::EvalOptions opts;
        opts.dropLockTests = true;
        const auto eval = analysis::evaluateWorkloads({cfg}, opts);
        benchmark::DoNotOptimize(
            eval.average.dir1nb.events.totalRefs());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(cfg.totalRefs));
}
BENCHMARK(BM_FilteredSimulation);

} // namespace

int
main(int argc, char **argv)
{
    return dirsim::bench::runBench(argc, argv, [] {
        return dirsim::analysis::section52(dirsim::bench::standardEval(),
                                           filteredEval())
            .toString();
    });
}
