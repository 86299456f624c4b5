/**
 * @file
 * Shared plumbing for the exhibit benchmarks.
 *
 * Every bench binary checks its command line, prints its reproduced
 * table/figure (so running all benches regenerates the paper's
 * evaluation section) and then runs google-benchmark timings of the
 * simulation kernels behind it.  The evaluation of the three standard workloads is cached per
 * process.
 *
 * Benches that run simulation sweeps take a `--jobs N` knob (parsed
 * and stripped by parseJobs() before google-benchmark sees argv):
 * the protocol×workload matrix (analysis::evaluateMatrix) runs on N
 * worker threads (default 1), N = 0 uses one thread per hardware
 * thread.  Parallel results are bit-identical to serial ones;
 * sweepTimingReport()
 * prints the wall-clock comparison.
 */

#ifndef DIRSIM_BENCH_COMMON_HH
#define DIRSIM_BENCH_COMMON_HH

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>

#include "analysis/evaluation.hh"
#include "analysis/exhibits.hh"
#include "cli/parse.hh"
#include "gen/workloads.hh"

namespace dirsim::bench
{

/** Worker threads for sweep-based exhibits; set by parseJobs(). */
inline unsigned &
sweepJobs()
{
    static unsigned jobs = 1;
    return jobs;
}

/** Parse a --jobs value, exiting with a clear error on garbage. */
inline unsigned
parseJobsValue(const char *text)
{
    return cli::parseUnsigned(text, "--jobs");
}

/**
 * Consume `--jobs N` / `--jobs=N` from argv before google-benchmark
 * parses it.  Call first thing in main().
 */
inline void
parseJobs(int *argc, char **argv)
{
    int out = 1;
    for (int a = 1; a < *argc; ++a) {
        if (std::strcmp(argv[a], "--jobs") == 0) {
            if (a + 1 >= *argc) {
                std::cerr << "error: --jobs requires a value\n";
                std::exit(2);
            }
            sweepJobs() = parseJobsValue(argv[++a]);
        } else if (std::strncmp(argv[a], "--jobs=", 7) == 0) {
            sweepJobs() = parseJobsValue(argv[a] + 7);
        } else {
            argv[out++] = argv[a];
        }
    }
    *argc = out;
}

/** EvalOptions carrying the --jobs setting. */
inline analysis::EvalOptions
sweepOptions()
{
    analysis::EvalOptions opts;
    opts.jobs = sweepJobs();
    return opts;
}

/** Seconds elapsed on a steady clock since construction. */
class WallTimer
{
  public:
    double
    seconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - _start)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point _start =
        std::chrono::steady_clock::now();
};

namespace detail
{

/** Standard eval computed once with the --jobs setting, plus timing. */
struct TimedStandardEval
{
    analysis::Evaluation eval;
    double seconds = 0.0;
    unsigned jobs = 1;

    TimedStandardEval()
    {
        jobs = sweepJobs();
        WallTimer timer;
        eval = analysis::evaluateWorkloads(gen::standardWorkloads(),
                                           sweepOptions());
        seconds = timer.seconds();
    }
};

inline const TimedStandardEval &
timedStandardEval()
{
    static const TimedStandardEval timed;
    return timed;
}

} // namespace detail

/** Quarter-size standard evaluation, computed once per binary. */
inline const analysis::Evaluation &
standardEval()
{
    return detail::timedStandardEval().eval;
}

/** Number of CPUs in the standard workloads (for rendering). */
constexpr unsigned standardCpus = 4;

/**
 * Uniform one-line throughput report: every bench prints wall clock
 * and refs/sec in the same shape, so runs are comparable across
 * binaries and greppable by "[bench]".
 */
inline std::string
throughputLine(const std::string &name, std::uint64_t refs,
               double seconds)
{
    std::ostringstream os;
    os << "[bench] " << name << ": " << seconds << " s wall, " << refs
       << " refs";
    if (seconds > 0.0 && refs > 0)
        os << ", "
           << static_cast<std::uint64_t>(
                  static_cast<double>(refs) / seconds)
           << " refs/sec";
    return os.str();
}

/**
 * Wall-clock report for the standard protocol×workload sweep.  With
 * --jobs > 1 it also times a serial reference run so the speedup of
 * the parallel sweep engine is visible (and the results comparable —
 * they are bit-identical by construction and by test).
 */
inline std::string
sweepTimingReport()
{
    const auto &timed = detail::timedStandardEval();
    std::uint64_t traceRefs = 0;
    for (const gen::WorkloadConfig &w : gen::standardWorkloads())
        traceRefs += w.totalRefs;
    std::ostringstream os;
    os << throughputLine("standard-sweep", traceRefs, timed.seconds)
       << "\n";
    os << "[sweep] standard workloads x 3 engines: ";
    if (timed.jobs == 1) {
        os << "serial " << timed.seconds
           << " s (pass --jobs N for the parallel sweep engine)\n";
        return os.str();
    }
    WallTimer timer;
    const analysis::Evaluation serial =
        analysis::evaluateWorkloads(gen::standardWorkloads());
    const double serial_s = timer.seconds();
    const bool identical =
        serial.average.inval == timed.eval.average.inval &&
        serial.average.dir1nb == timed.eval.average.dir1nb &&
        serial.average.dragon == timed.eval.average.dragon;
    os << "serial " << serial_s << " s, --jobs " << timed.jobs
       << " parallel " << timed.seconds << " s, speedup "
       << (timed.seconds > 0.0 ? serial_s / timed.seconds : 0.0)
       << "x, results " << (identical ? "bit-identical" : "DIVERGED!")
       << "\n";
    return os.str();
}

/**
 * Check the command line, compute and print the exhibit, then hand
 * over to google-benchmark.  Call from main() after registering
 * benchmarks (and after parseJobs() where the binary takes --jobs).
 * An unrecognised flag exits 2 before @p exhibit runs, so a typo
 * neither computes nor prints anything.
 */
inline int
runBench(int argc, char **argv,
         const std::function<std::string()> &exhibit)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 2;
    std::cout << exhibit() << "\n";
    WallTimer timer;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    std::cout << "[bench] timing phase: " << timer.seconds()
              << " s wall\n";
    return 0;
}

} // namespace dirsim::bench

#endif // DIRSIM_BENCH_COMMON_HH
