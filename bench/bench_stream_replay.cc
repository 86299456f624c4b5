/**
 * @file
 * Out-of-core streaming replay exhibit: RSS ceiling and throughput
 * of the stored-trace path versus full in-memory materialisation.
 *
 * The windowed StoredTrace replay claims O(chunk) resident memory
 * however long the trace is; this harness makes the claim a measured
 * number.  It spills one workload straight from the generator to a
 * store file (never materialising it), replays the file through an
 * invalidate engine at several chunk sizes, and only then builds the
 * same trace fully in memory and replays that.  Because getrusage's
 * peak RSS is a process-lifetime high-water mark, the streamed phase
 * MUST run first — the materialised phase then raises the peak by
 * however much the full SoA costs, and the delta ratio is the
 * headline number.  The engine results of both paths are compared
 * and the bench fails on any divergence, so the exhibit doubles as
 * an end-to-end correctness check.
 *
 * Flags:
 *   --refs N       trace length (default 4,000,000)
 *   --reps N       repetitions per chunk size, best-of (default 2)
 *   --out PATH     JSON output path (default BENCH_stream_replay.json)
 *   --rss-floor R  fail (exit 1) if the materialised-over-streamed
 *                  RSS ratio falls below R (default 0 = report only)
 *   --smoke        small quick run for CI (256k refs, 1 rep)
 *   -h, --help     print the usage line on stdout and exit 0
 */

#include <sys/resource.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "cli/parse.hh"
#include "coherence/engine.hh"
#include "coherence/inval_engine.hh"
#include "gen/workload.hh"
#include "gen/workloads.hh"
#include "sim/simulator.hh"
#include "trace/prepared.hh"
#include "trace/store.hh"

#include "bench_common.hh"

namespace
{

using namespace dirsim;

struct Options
{
    std::uint64_t refs = 4'000'000;
    unsigned reps = 2;
    std::string out = "BENCH_stream_replay.json";
    double rssFloor = 0.0;
    bool smoke = false;
};

struct ChunkPoint
{
    std::uint64_t chunkRefs = 0;
    std::uint64_t refs = 0;
    double seconds = 0.0;
    double refsPerSec = 0.0;
    std::uint64_t fileBytes = 0;
};

const char *const kUsage =
    "Usage: bench_stream_replay [--refs N] [--reps N] [--out PATH] "
    "[--rss-floor R] [--smoke]\n";

Options
parseOptions(int argc, char **argv)
{
    Options opts;
    for (int a = 1; a < argc; ++a) {
        if (std::strcmp(argv[a], "--help") == 0 ||
            std::strcmp(argv[a], "-h") == 0) {
            std::cout << kUsage;
            std::exit(0);
        }
        const auto want = [&](const char *flag) -> const char * {
            if (a + 1 >= argc) {
                std::cerr << "error: " << flag
                          << " requires a value\n";
                std::exit(2);
            }
            return argv[++a];
        };
        if (std::strcmp(argv[a], "--refs") == 0) {
            opts.refs = cli::parseUnsigned(want("--refs"), "--refs");
        } else if (std::strcmp(argv[a], "--reps") == 0) {
            opts.reps = cli::parseUnsignedInRange(
                want("--reps"), "--reps", 1, 100);
        } else if (std::strcmp(argv[a], "--out") == 0) {
            opts.out = want("--out");
        } else if (std::strcmp(argv[a], "--rss-floor") == 0) {
            opts.rssFloor = cli::parseDoubleInRange(
                want("--rss-floor"), "--rss-floor", 0.0,
                std::numeric_limits<double>::max());
        } else if (std::strcmp(argv[a], "--smoke") == 0) {
            opts.smoke = true;
        } else {
            std::cerr << "error: unknown flag '" << argv[a] << "'\n"
                      << kUsage;
            std::exit(2);
        }
    }
    if (opts.smoke) {
        opts.refs = 256 * 1024;
        opts.reps = 1;
    }
    return opts;
}

long
peakRssKb()
{
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0;
    return ru.ru_maxrss; // KiB on Linux.
}

std::unique_ptr<coherence::CoherenceEngine>
makeEngine(unsigned units)
{
    coherence::InvalEngineConfig cfg;
    cfg.nUnits = units;
    return std::make_unique<coherence::InvalEngine>(cfg);
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parseOptions(argc, argv);

    gen::WorkloadConfig workload = gen::popsConfig();
    workload.totalRefs = opts.refs;
    const unsigned units = workload.space.nProcesses;

    // Chunk sizes to sweep; the largest bounds the streamed window,
    // so keep it well under refs or the RSS ratio collapses to 1.
    std::vector<std::uint64_t> chunkSizes;
    if (opts.smoke)
        chunkSizes = {4 * 1024, 16 * 1024};
    else
        chunkSizes = {16 * 1024, 64 * 1024, 256 * 1024};

    std::cout << "bench_stream_replay: workload=" << workload.name
              << " refs=" << opts.refs << " reps=" << opts.reps
              << (opts.smoke ? " (smoke)" : "") << "\n";

    const std::string storePath =
        (std::filesystem::temp_directory_path() /
         ("dirsim-bench-stream-" + std::to_string(::getpid()) +
          ".dspt"))
            .string();

    const long baselineKb = peakRssKb();

    // Streamed phase FIRST (peak RSS is a lifetime high-water mark).
    // Spill straight from the generator — the full trace never exists
    // in memory at any point of this phase.
    std::vector<ChunkPoint> points;
    coherence::EngineResults streamedResults;
    bool haveStreamed = false;
    for (const std::uint64_t chunk : chunkSizes) {
        gen::WorkloadSource source(workload);
        trace::StoreWriteOptions wopts;
        wopts.chunkRefs = chunk;
        trace::spillFromSource(source, workload.name, {}, storePath,
                               wopts);
        const auto stored = trace::StoredTrace::open(storePath);

        ChunkPoint pt;
        pt.chunkRefs = chunk;
        pt.fileBytes = std::filesystem::file_size(storePath);
        for (unsigned rep = 0; rep < opts.reps; ++rep) {
            sim::Simulator sim;
            coherence::CoherenceEngine &engine =
                sim.addEngine(makeEngine(units));
            const auto spans = stored->spanCursor();
            bench::WallTimer timer;
            const std::uint64_t refs = sim.run(*spans);
            const double s = timer.seconds();
            if (rep == 0 || s < pt.seconds) {
                pt.seconds = s;
                pt.refs = refs;
            }
            if (!haveStreamed) {
                streamedResults = engine.results();
                haveStreamed = true;
            } else if (!(engine.results() == streamedResults)) {
                std::cerr << "FAIL: streamed replay diverged "
                             "across chunk sizes\n";
                std::filesystem::remove(storePath);
                return 1;
            }
        }
        pt.refsPerSec =
            pt.seconds > 0.0
                ? static_cast<double>(pt.refs) / pt.seconds
                : 0.0;
        points.push_back(pt);
        std::cout << bench::throughputLine(
                         "streamed chunk=" +
                             std::to_string(chunk),
                         pt.refs, pt.seconds)
                  << " (" << pt.fileBytes / 1024 << " KiB file)\n";
    }
    std::filesystem::remove(storePath);
    const long streamedKb = peakRssKb();

    // Materialised phase: the classic generate → decode → replay
    // pipeline holding everything in memory at once.
    ChunkPoint mat;
    coherence::EngineResults materialResults;
    {
        const trace::MemoryTrace trace = gen::generateTrace(workload);
        const trace::PreparedTrace prepared =
            trace::PreparedTrace::build(trace);
        for (unsigned rep = 0; rep < opts.reps; ++rep) {
            sim::Simulator sim;
            coherence::CoherenceEngine &engine =
                sim.addEngine(makeEngine(units));
            bench::WallTimer timer;
            const std::uint64_t refs = sim.run(prepared);
            const double s = timer.seconds();
            if (rep == 0 || s < mat.seconds) {
                mat.seconds = s;
                mat.refs = refs;
            }
            materialResults = engine.results();
        }
        mat.refsPerSec =
            mat.seconds > 0.0
                ? static_cast<double>(mat.refs) / mat.seconds
                : 0.0;
    }
    const long materialKb = peakRssKb();
    std::cout << bench::throughputLine("materialised", mat.refs,
                                       mat.seconds)
              << "\n";

    if (!haveStreamed || !(streamedResults == materialResults)) {
        std::cerr << "FAIL: streamed and materialised replays "
                     "disagree\n";
        return 1;
    }
    std::cout << "  engine results bit-identical streamed vs "
                 "materialised\n";

    const long streamedDelta =
        streamedKb > baselineKb ? streamedKb - baselineKb : 1;
    const long materialDelta =
        materialKb > baselineKb ? materialKb - baselineKb : 1;
    const double rssRatio = static_cast<double>(materialDelta) /
                            static_cast<double>(streamedDelta);
    std::cout << "  RSS: baseline " << baselineKb << " KiB, streamed "
              << "+" << streamedDelta << " KiB, materialised +"
              << materialDelta << " KiB, ratio " << rssRatio
              << "x\n";

    std::ofstream os(opts.out);
    if (!os) {
        std::cerr << "error: cannot write '" << opts.out << "'\n";
        return 1;
    }
    os << "{\n";
    os << "  \"bench\": \"stream-replay\",\n";
    os << "  \"workload\": \"" << workload.name << "\",\n";
    os << "  \"refs\": " << opts.refs << ",\n";
    os << "  \"reps\": " << opts.reps << ",\n";
    os << "  \"smoke\": " << (opts.smoke ? "true" : "false") << ",\n";
    os << "  \"baseline_rss_kb\": " << baselineKb << ",\n";
    os << "  \"streamed_rss_delta_kb\": " << streamedDelta << ",\n";
    os << "  \"materialized_rss_delta_kb\": " << materialDelta
       << ",\n";
    os << "  \"rss_ratio\": " << rssRatio << ",\n";
    os << "  \"materialized\": {\"refs\": " << mat.refs
       << ", \"seconds\": " << mat.seconds << ", \"refs_per_sec\": "
       << static_cast<std::uint64_t>(mat.refsPerSec) << "},\n";
    os << "  \"streamed\": [\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
        const ChunkPoint &p = points[i];
        os << "    {\"chunk_refs\": " << p.chunkRefs << ", "
           << "\"refs\": " << p.refs << ", "
           << "\"seconds\": " << p.seconds << ", "
           << "\"refs_per_sec\": "
           << static_cast<std::uint64_t>(p.refsPerSec) << ", "
           << "\"file_bytes\": " << p.fileBytes << "}"
           << (i + 1 < points.size() ? "," : "") << "\n";
    }
    os << "  ]\n";
    os << "}\n";
    std::cout << "  wrote " << opts.out << "\n";

    if (opts.rssFloor > 0.0) {
        if (rssRatio < opts.rssFloor) {
            std::cerr << "FAIL: RSS ratio " << rssRatio
                      << "x below floor " << opts.rssFloor << "x\n";
            return 1;
        }
        std::cout << "  RSS floor check passed (" << rssRatio
                  << "x >= " << opts.rssFloor << "x)\n";
    }
    return 0;
}
