/**
 * @file
 * Extension: finite sparse directory caches.
 *
 * The paper's directory schemes assume an entry per memory block; a
 * real machine keeps directory entries in a finite set-associative
 * cache, and replacing an entry force-invalidates every cached copy
 * of the victim (a dirty owner writes back first).  This exhibit
 * sweeps the directory-cache size against bus cycles per reference
 * for every directory scheme the repo costs — DiriB (i = 1, 2, 4),
 * DirnNB, and DiriNB (i = 1, 2, 4) — over pops, thor and pero.
 *
 * Two limiting rows anchor each sweep:
 *  - entries = inf: the unbounded cache, identical to the paper's
 *    entry-per-block model (the golden suite pins this bit-for-bit);
 *  - Dir0B: the zero-directory-storage broadcast design — the same
 *    end point a directoryless LLC (DLS-style) design reaches by
 *    construction, so it bounds what shrinking the directory can
 *    cost before keeping *no* sharing state wins.
 *
 * Per-point replacement locality is reported too (hit rate,
 * evictions, and the spread of per-set replacement counts): a skewed
 * per-set histogram flags a set index that aliases the workload's
 * footprint.
 *
 * Flags:
 *   --refs N    per-workload trace length (default: the standard
 *               quarter-size workloads' own lengths)
 *   --jobs N    worker threads for the point sweep (default 1)
 *   --assoc N   directory-cache associativity (default 4)
 *   --out PATH  JSON output path (default BENCH_dir_cache.json)
 *   --smoke     tiny CI configuration: short traces, two sizes
 *   -h, --help  print the usage line on stdout and exit 0
 */

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bus/bus_model.hh"
#include "cli/parse.hh"
#include "coherence/inval_engine.hh"
#include "coherence/limited_engine.hh"
#include "directory/dir_cache.hh"
#include "gen/workloads.hh"
#include "sim/cost_model.hh"
#include "sim/simulator.hh"
#include "sim/sweep.hh"
#include "sim/trace_repo.hh"
#include "stats/table.hh"
#include "trace/prepared.hh"

#include "bench_common.hh"

namespace
{

using namespace dirsim;

struct Options
{
    std::uint64_t refs = 0; //!< 0 = standard workload lengths.
    unsigned jobs = 1;
    unsigned assoc = 4;
    std::string out = "BENCH_dir_cache.json";
    bool smoke = false;
};

const char *const kUsage =
    "Usage: bench_ext_dir_cache [--refs N] [--jobs N] [--assoc N] "
    "[--out PATH] [--smoke]\n";

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
        } else if (std::strcmp(argv[a], "--jobs") == 0) {
            opts.jobs = cli::parseUnsignedInRange(want("--jobs"),
                                                  "--jobs", 1, 256);
        } else if (std::strcmp(argv[a], "--assoc") == 0) {
            opts.assoc = cli::parseUnsignedInRange(want("--assoc"),
                                                   "--assoc", 1, 64);
        } else if (std::strcmp(argv[a], "--out") == 0) {
            opts.out = want("--out");
        } else if (std::strcmp(argv[a], "--smoke") == 0) {
            opts.smoke = true;
        } else {
            std::cerr << "error: unknown flag '" << argv[a] << "'\n"
                      << kUsage;
            std::exit(2);
        }
    }
    return opts;
}

/** Replacement-locality summary of one finite directory cache. */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t sets = 0;
    /** Per-set replacement spread (all zero for unbounded caches). */
    std::uint64_t minSetRepl = 0;
    std::uint64_t maxSetRepl = 0;
    double meanSetRepl = 0.0;

    double
    hitRate() const
    {
        const std::uint64_t lookups = hits + misses;
        return lookups ? static_cast<double>(hits) / lookups : 0.0;
    }
};

CacheStats
summarize(const directory::DirectoryCache *cache)
{
    CacheStats s;
    if (!cache)
        return s;
    s.hits = cache->hits();
    s.misses = cache->misses();
    s.evictions = cache->evictions();
    const std::vector<std::uint64_t> &repl = cache->setReplacements();
    s.sets = repl.size();
    if (!repl.empty()) {
        s.minSetRepl = *std::min_element(repl.begin(), repl.end());
        s.maxSetRepl = *std::max_element(repl.begin(), repl.end());
        std::uint64_t total = 0;
        for (const std::uint64_t n : repl)
            total += n;
        s.meanSetRepl =
            static_cast<double>(total) / static_cast<double>(s.sets);
    }
    return s;
}

/** One (workload, directory-cache size) sweep point. */
struct Point
{
    std::string workload;
    std::uint64_t entries = 0; //!< 0 = unbounded.
    coherence::EngineResults inval;
    std::vector<coherence::EngineResults> limited; //!< i = 1, 2, 4.
    CacheStats invalCache;
    CacheStats limitedCache; //!< From the Dir1NB engine.
};

const std::vector<unsigned> kPointerCounts = {1, 2, 4};

/** Run every engine of one point over a shared prepared trace. */
Point
runPoint(const gen::WorkloadConfig &cfg,
         std::shared_ptr<const trace::PreparedTrace> prepared,
         std::uint64_t entries, unsigned assoc)
{
    directory::DirCacheConfig dc;
    dc.enabled = true;
    dc.entries = entries;
    dc.associativity =
        entries == 0 ? assoc
                     : static_cast<unsigned>(std::min<std::uint64_t>(
                           assoc, entries));

    const unsigned units = cfg.space.nProcesses;
    sim::Simulator simulator;
    coherence::InvalEngineConfig icfg;
    icfg.nUnits = units;
    icfg.dirCache = dc;
    auto &inval = static_cast<coherence::InvalEngine &>(
        simulator.addEngine(
            std::make_unique<coherence::InvalEngine>(icfg)));
    std::vector<coherence::LimitedEngine *> limited;
    for (const unsigned i : kPointerCounts)
        limited.push_back(static_cast<coherence::LimitedEngine *>(
            &simulator.addEngine(
                std::make_unique<coherence::LimitedEngine>(units, i,
                                                           dc))));
    simulator.run(*prepared);

    Point point;
    point.workload = cfg.name;
    point.entries = entries;
    point.inval = inval.results();
    for (const coherence::LimitedEngine *engine : limited)
        point.limited.push_back(engine->results());
    point.invalCache = summarize(inval.dirCache());
    point.limitedCache = summarize(limited.front()->dirCache());
    return point;
}

/** Bus cycles/ref of every costed scheme at one point. */
struct CostRow
{
    std::vector<double> dirIB;  //!< Dir1B, Dir2B, Dir4B.
    double dirNNB = 0.0;
    std::vector<double> dirINB; //!< Dir1NB, Dir2NB, Dir4NB.
};

CostRow
costPoint(const Point &point, const bus::BusCosts &bus)
{
    CostRow row;
    for (const unsigned i : kPointerCounts) {
        sim::CostOptions opts;
        opts.nPointers = i;
        row.dirIB.push_back(
            sim::computeCost(sim::Scheme::DirIB, point.inval, bus,
                             opts)
                .total());
    }
    row.dirNNB = sim::computeCost(sim::Scheme::DirNNBSeq, point.inval,
                                  bus, sim::CostOptions{})
                     .total();
    for (std::size_t p = 0; p < kPointerCounts.size(); ++p) {
        sim::CostOptions opts;
        opts.nPointers = kPointerCounts[p];
        const sim::Scheme scheme = kPointerCounts[p] == 1
                                       ? sim::Scheme::Dir1NB
                                       : sim::Scheme::DirINB;
        row.dirINB.push_back(
            sim::computeCost(scheme, point.limited[p], bus, opts)
                .total());
    }
    return row;
}

std::string
fmt(double v)
{
    std::ostringstream os;
    os.setf(std::ios::fixed);
    os.precision(3);
    os << v;
    return os.str();
}

std::string
entriesLabel(std::uint64_t entries)
{
    return entries == 0 ? "inf" : std::to_string(entries);
}

void
writeJson(const Options &opts, const std::vector<Point> &points,
          const std::vector<CostRow> &costs,
          const std::vector<std::pair<std::string, double>> &dir0b)
{
    std::ofstream os(opts.out);
    if (!os) {
        std::cerr << "error: cannot write '" << opts.out << "'\n";
        std::exit(1);
    }
    os << "{\n  \"bench\": \"ext-dir-cache\",\n";
    os << "  \"associativity\": " << opts.assoc << ",\n";
    os << "  \"dir0b_limit\": {";
    for (std::size_t i = 0; i < dir0b.size(); ++i)
        os << (i ? ", " : "") << "\"" << dir0b[i].first
           << "\": " << dir0b[i].second;
    os << "},\n";
    os << "  \"points\": [\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
        const Point &p = points[i];
        const CostRow &c = costs[i];
        os << "    {\"workload\": \"" << p.workload << "\", "
           << "\"entries\": " << p.entries << ", "
           << "\"refs\": " << p.inval.events.totalRefs() << ",\n";
        os << "     \"cycles_per_ref\": {"
           << "\"dir1b\": " << c.dirIB[0] << ", "
           << "\"dir2b\": " << c.dirIB[1] << ", "
           << "\"dir4b\": " << c.dirIB[2] << ", "
           << "\"dirnnb\": " << c.dirNNB << ", "
           << "\"dir1nb\": " << c.dirINB[0] << ", "
           << "\"dir2nb\": " << c.dirINB[1] << ", "
           << "\"dir4nb\": " << c.dirINB[2] << "},\n";
        os << "     \"inval_cache\": {"
           << "\"hits\": " << p.invalCache.hits << ", "
           << "\"misses\": " << p.invalCache.misses << ", "
           << "\"evictions\": " << p.invalCache.evictions << ", "
           << "\"eviction_invals\": "
           << p.inval.dirCacheEvictionInvals << ", "
           << "\"eviction_write_backs\": "
           << p.inval.dirCacheEvictionWriteBacks << ", "
           << "\"sets\": " << p.invalCache.sets << ", "
           << "\"set_repl_min\": " << p.invalCache.minSetRepl << ", "
           << "\"set_repl_mean\": " << p.invalCache.meanSetRepl
           << ", "
           << "\"set_repl_max\": " << p.invalCache.maxSetRepl << "}}"
           << (i + 1 < points.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parseOptions(argc, argv);

    std::vector<gen::WorkloadConfig> workloads =
        gen::standardWorkloads();
    if (opts.smoke) {
        for (auto &cfg : workloads)
            cfg.totalRefs = 30'000;
    } else if (opts.refs != 0) {
        for (auto &cfg : workloads)
            cfg.totalRefs = opts.refs;
    }
    const std::vector<std::uint64_t> sizes =
        opts.smoke ? std::vector<std::uint64_t>{128, 0}
                   : std::vector<std::uint64_t>{128, 512, 2048, 8192,
                                                0};

    std::cout << "bench_ext_dir_cache: " << workloads.size()
              << " workloads x " << sizes.size()
              << " directory-cache sizes, assoc=" << opts.assoc
              << ", jobs=" << opts.jobs << "\n";

    // Decode each workload once; every point replays the shared SoA.
    std::vector<std::shared_ptr<const trace::PreparedTrace>> traces;
    dirsim::bench::WallTimer decodeTimer;
    for (const gen::WorkloadConfig &cfg : workloads)
        traces.push_back(sim::TraceRepository::global().get(cfg));
    std::cout << "  traces prepared in " << decodeTimer.seconds()
              << " s\n";

    // Fan the (workload, size) grid across workers; runOrdered keeps
    // results in submission order, so output is jobs-invariant.
    std::vector<std::function<Point()>> tasks;
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        for (const std::uint64_t entries : sizes) {
            const gen::WorkloadConfig &cfg = workloads[w];
            auto prepared = traces[w];
            tasks.push_back([cfg, prepared, entries, &opts] {
                return runPoint(cfg, prepared, entries, opts.assoc);
            });
        }
    }
    dirsim::bench::WallTimer sweepTimer;
    const std::vector<Point> points =
        sim::runOrdered<Point>(opts.jobs, tasks);
    std::cout << "  " << points.size() << " points in "
              << sweepTimer.seconds() << " s\n";

    const bus::BusCosts bus = bus::pipelinedBus();
    std::vector<CostRow> costs;
    for (const Point &p : points)
        costs.push_back(costPoint(p, bus));

    // The zero-directory-storage limit: Dir0B costed from the
    // unbounded inval run of each workload (broadcast needs no
    // directory, so it is flat across every cache size).
    std::vector<std::pair<std::string, double>> dir0b;
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        const Point &unbounded =
            points[w * sizes.size() + sizes.size() - 1];
        dir0b.emplace_back(
            unbounded.workload,
            sim::computeCost(sim::Scheme::Dir0B, unbounded.inval, bus,
                             sim::CostOptions{})
                .total());
    }

    stats::TextTable table(
        "Directory-cache size vs bus cycles/ref (pipelined bus)",
        {"workload", "entries", "dir1b", "dir2b", "dir4b", "dirnnb",
         "dir1nb", "dir2nb", "dir4nb"});
    stats::TextTable locality(
        "Directory-cache replacement locality (inval engine)",
        {"workload", "entries", "hit rate", "evictions", "ev-invals",
         "ev-wbacks", "sets", "repl min/mean/max"});
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        for (std::size_t s = 0; s < sizes.size(); ++s) {
            const std::size_t i = w * sizes.size() + s;
            const Point &p = points[i];
            const CostRow &c = costs[i];
            table.addRow({p.workload, entriesLabel(p.entries),
                          fmt(c.dirIB[0]), fmt(c.dirIB[1]),
                          fmt(c.dirIB[2]), fmt(c.dirNNB),
                          fmt(c.dirINB[0]), fmt(c.dirINB[1]),
                          fmt(c.dirINB[2])});
            std::ostringstream spread;
            spread << p.invalCache.minSetRepl << "/"
                   << fmt(p.invalCache.meanSetRepl) << "/"
                   << p.invalCache.maxSetRepl;
            locality.addRow(
                {p.workload, entriesLabel(p.entries),
                 fmt(p.invalCache.hitRate()),
                 std::to_string(p.invalCache.evictions),
                 std::to_string(p.inval.dirCacheEvictionInvals),
                 std::to_string(p.inval.dirCacheEvictionWriteBacks),
                 std::to_string(p.invalCache.sets), spread.str()});
        }
        // The no-directory design point closes each workload group.
        table.addRow({workloads[w].name, "dir0b",
                      fmt(dir0b[w].second), fmt(dir0b[w].second),
                      fmt(dir0b[w].second), "-", "-", "-", "-"});
        table.addSeparator();
        locality.addSeparator();
    }

    std::cout << table.toString() << "\n" << locality.toString();
    writeJson(opts, points, costs, dir0b);
    std::cout << "  wrote " << opts.out << "\n";

    // Smoke sanity: finite caches must actually evict, and the
    // unbounded point must record zero evictions.
    for (const Point &p : points) {
        const bool finite = p.entries != 0;
        if (finite && p.inval.dirCacheEvictions == 0) {
            std::cerr << "FAIL: finite point " << p.workload << "/"
                      << p.entries << " never evicted\n";
            return 1;
        }
        if (!finite && p.inval.dirCacheEvictions != 0) {
            std::cerr << "FAIL: unbounded point " << p.workload
                      << " evicted\n";
            return 1;
        }
    }
    return 0;
}
