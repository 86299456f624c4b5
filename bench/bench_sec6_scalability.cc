/**
 * @file
 * Reproduces Section 6: scalable directory alternatives.
 *
 *  - DirnNB sequential invalidation versus Dir0B broadcast (published
 *    0.0491 -> 0.0499: nearly free, because most invalidations hit at
 *    most one cache);
 *  - the Dir1B model cycles/ref = base + slope * b;
 *  - the DiriB pointer sweep at a fixed broadcast cost;
 *  - the DiriNB pointer sweep (misses grow as i shrinks);
 *  - per-block directory storage for every organisation, including
 *    the 2*log2(n)-bit coarse-vector code.
 */

#include "bench_common.hh"

#include <sstream>

#include "analysis/extensions.hh"
#include "directory/storage.hh"
#include "sim/cost_model.hh"

namespace
{

using namespace dirsim;

constexpr double broadcastCost = 8.0;

std::string
storageExhibit()
{
    const std::vector<unsigned> counts = {4, 8, 16, 32, 64};
    const auto rows =
        directory::storageTable(counts, directory::StorageParams{});
    stats::TextTable table(
        "Section 6: directory storage (bits per main-memory block)",
        {"Scheme", "n=4", "n=8", "n=16", "n=32", "n=64"});
    for (const auto &row : rows) {
        std::vector<std::string> cells = {row.scheme};
        for (double bits : row.bitsPerBlock)
            cells.push_back(stats::TextTable::num(bits, 1));
        table.addRow(cells);
    }
    return table.toString();
}

std::string
exhibit()
{
    const auto &eval = dirsim::bench::standardEval();
    std::ostringstream os;
    const analysis::Section6 sec =
        analysis::section6(eval, broadcastCost);
    os << analysis::renderSection6(sec, broadcastCost).toString()
       << "\n";

    // The DiriNB pointer sweep is the widest fan-out in this exhibit
    // (workloads x pointer counts); run it on the sweep engine.
    const std::vector<unsigned> pointer_counts = {1, 2, 3, 4};
    dirsim::bench::WallTimer sweep_timer;
    const auto sweep = analysis::limitedSweep(
        gen::standardWorkloads(), pointer_counts,
        dirsim::bench::sweepOptions());
    os << analysis::limitedSweepTable(sweep, pointer_counts)
              .toString()
       << "\n";
    os << "[sweep] DiriNB pointer sweep (" << pointer_counts.size()
       << " pointer counts x 3 workloads, --jobs "
       << dirsim::bench::sweepJobs() << "): " << sweep_timer.seconds()
       << " s\n\n";

    os << analysis::renderDirectoryMessages(
              analysis::directoryMessageStudy())
              .toString()
       << "\n";
    os << storageExhibit();
    return os.str();
}

void
BM_Section6Analytics(benchmark::State &state)
{
    const auto &eval = dirsim::bench::standardEval();
    for (auto _ : state) {
        const auto sec = analysis::section6(eval, broadcastCost);
        benchmark::DoNotOptimize(sec.dirnnbSeq);
    }
}
BENCHMARK(BM_Section6Analytics);

void
BM_LimitedSweep(benchmark::State &state)
{
    auto workloads = gen::standardWorkloads();
    for (auto &cfg : workloads)
        cfg.totalRefs = 100'000;
    for (auto _ : state) {
        const auto sweep =
            analysis::limitedSweep(workloads, {1, 2, 4});
        benchmark::DoNotOptimize(sweep.size());
    }
}
BENCHMARK(BM_LimitedSweep);

} // namespace

int
main(int argc, char **argv)
{
    dirsim::bench::parseJobs(&argc, argv);
    return dirsim::bench::runBench(argc, argv, [] {
        return exhibit() + "\n" + dirsim::bench::sweepTimingReport();
    });
}
