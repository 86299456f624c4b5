/**
 * @file
 * Timed-bus contention exhibit: what the paper's static tables hide.
 *
 * The static cost model prices traffic as frequency × cycles with an
 * always-free bus.  The timed subsystem replays the same streams
 * through a bus with real occupancy and arbitration, making queueing
 * visible.  This bench prints:
 *
 *  - bus utilization and queueing delay versus CPU count, per scheme
 *    (utilization climbs monotonically toward saturation);
 *  - the three arbitration disciplines at a saturated bus, where
 *    FCFS and round-robin spread the stall evenly and fixed priority
 *    starves the high-index CPUs.
 *
 * The timed sweep fans out with `--jobs N`; results are bit-identical
 * across worker counts.  A closing `[bench]` line reports the sweep's
 * wall clock and refs/sec.
 */

#include <cstdlib>
#include <cstring>
#include <iostream>

#include "bench_common.hh"
#include "cli/parse.hh"

#include "coherence/dragon_engine.hh"
#include "coherence/inval_engine.hh"
#include "coherence/limited_engine.hh"
#include "gen/workloads.hh"
#include "stats/table.hh"
#include "timing/sweep.hh"
#include "timing/timed_bus.hh"

namespace
{

using namespace dirsim;

const std::vector<sim::Scheme> contentionSchemes = {
    sim::Scheme::Dir0B, sim::Scheme::Dir1NB, sim::Scheme::Dragon,
    sim::Scheme::WTI};

constexpr std::uint64_t refsPerCpu = 20'000;

timing::TimedSweepPoint
pointFor(sim::Scheme scheme, unsigned nCpus, timing::Discipline d)
{
    const gen::WorkloadConfig workload =
        gen::scaledConfig(nCpus, refsPerCpu * nCpus);
    timing::TimedSweepPoint point;
    point.name = sim::schemeName(scheme) + "@" +
                 std::to_string(nCpus) + "/" +
                 timing::disciplineName(d);
    point.config.scheme = scheme;
    point.config.bus = timing::timedPipelinedBus();
    point.config.discipline = d;
    point.engine = [scheme, units = workload.space.nProcesses] {
        switch (sim::engineKindFor(scheme)) {
          case sim::EngineKind::Limited:
            return std::unique_ptr<coherence::CoherenceEngine>(
                std::make_unique<coherence::LimitedEngine>(units, 1));
          case sim::EngineKind::Dragon:
            return std::unique_ptr<coherence::CoherenceEngine>(
                std::make_unique<coherence::DragonEngine>(units));
          default: {
            coherence::InvalEngineConfig cfg;
            cfg.nUnits = units;
            return std::unique_ptr<coherence::CoherenceEngine>(
                std::make_unique<coherence::InvalEngine>(cfg));
          }
        }
    };
    point.source = [workload] {
        return std::make_unique<gen::WorkloadSource>(workload);
    };
    return point;
}

const char *const kUsage =
    "Usage: bench_timing_contention [--jobs N]\n"
    "  --jobs N   worker threads for the timed sweep (0 = one per\n"
    "             hardware thread; default 1)\n"
    "  -h, --help print this help and exit\n";

std::string
exhibit(unsigned jobs)
{
    const std::vector<unsigned> cpuCounts = {2, 4, 8, 16};

    // One sweep for the whole matrix, fanned out per --jobs.
    std::vector<timing::TimedSweepPoint> points;
    for (const sim::Scheme scheme : contentionSchemes)
        for (const unsigned n : cpuCounts)
            points.push_back(
                pointFor(scheme, n, timing::Discipline::FCFS));
    for (const auto d :
         {timing::Discipline::FCFS, timing::Discipline::RoundRobin,
          timing::Discipline::FixedPriority})
        points.push_back(pointFor(sim::Scheme::WTI, 8, d));

    bench::WallTimer timer;
    const auto runs = timing::runTimedSweep(points, jobs);
    const double sweep_s = timer.seconds();
    std::uint64_t refs = 0;
    for (const timing::TimedRun &run : runs)
        refs += run.refs;

    std::ostringstream os;

    std::vector<std::string> headers = {"Scheme"};
    for (const unsigned n : cpuCounts)
        headers.push_back("n=" + std::to_string(n));
    stats::TextTable util(
        "Timed pipelined bus: utilization (fraction of makespan busy)",
        headers);
    stats::TextTable delay(
        "Mean queueing delay per bus transaction (cycles)", headers);
    std::size_t r = 0;
    for (const sim::Scheme scheme : contentionSchemes) {
        std::vector<std::string> urow = {sim::schemeName(scheme)};
        std::vector<std::string> drow = {sim::schemeName(scheme)};
        for (std::size_t c = 0; c < cpuCounts.size(); ++c, ++r) {
            urow.push_back(
                stats::TextTable::num(runs[r].busUtilization()));
            drow.push_back(
                stats::TextTable::num(runs[r].meanQueueDelay()));
        }
        util.addRow(urow);
        delay.addRow(drow);
    }
    os << util.toString() << "\n" << delay.toString() << "\n";

    stats::TextTable disc(
        "Arbitration at a saturated bus (WTI, 8 CPUs): who eats the "
        "stall",
        {"Discipline", "Util", "Mean delay", "p95 delay",
         "Stall cpu0", "Stall cpu7"});
    for (; r < runs.size(); ++r) {
        const timing::TimedRun &run = runs[r];
        disc.addRow(
            {run.discipline,
             stats::TextTable::num(run.busUtilization()),
             stats::TextTable::num(run.meanQueueDelay()),
             stats::TextTable::num(run.p95QueueDelay()),
             stats::TextTable::num(run.cpus.front().stallFraction()),
             stats::TextTable::num(run.cpus.back().stallFraction())});
    }
    os << disc.toString() << "\n";
    os << bench::throughputLine(std::to_string(points.size()) +
                                    " timed runs (--jobs " +
                                    std::to_string(jobs) + ")",
                                refs, sweep_s)
       << "\n";
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned jobs = 1;
    for (int a = 1; a < argc; ++a) {
        if (std::strcmp(argv[a], "--help") == 0 ||
            std::strcmp(argv[a], "-h") == 0) {
            std::cout << kUsage;
            return 0;
        } else if (std::strcmp(argv[a], "--jobs") == 0 && a + 1 < argc) {
            jobs = dirsim::cli::parseUnsigned(argv[++a], "--jobs");
        } else {
            std::cerr << "error: unknown or incomplete option '"
                      << argv[a] << "'\n"
                      << kUsage;
            return 2;
        }
    }
    std::cout << exhibit(jobs);
    return 0;
}
