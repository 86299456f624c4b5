/**
 * @file
 * The four benchmark workloads (README.md says why each exists).
 *
 * Each workload builds its inputs, runs the measured calls, stamps
 * Context::finish(), and only then checks its results, so checking
 * never counts toward the measured time.
 */

#include <algorithm>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "analysis/analytical.hh"
#include "analysis/evaluation.hh"
#include "analysis/exhibits.hh"
#include "analysis/extensions.hh"
#include "analysis/system_perf.hh"
#include "bench.hh"
#include "bus/bus_model.hh"
#include "coherence/dragon_engine.hh"
#include "coherence/inval_engine.hh"
#include "coherence/limited_engine.hh"
#include "directory/coarse_vector.hh"
#include "directory/full_map.hh"
#include "gen/workloads.hh"
#include "sim/cost_model.hh"
#include "sim/fused_replay.hh"
#include "sim/sweep.hh"
#include "sim/thread_pool.hh"
#include "sim/trace_repo.hh"
#include "stats/table.hh"
#include "timing/sweep.hh"
#include "timing/transactions.hh"
#include "trace/prepared.hh"
#include "trace/store.hh"

namespace perfbench
{

namespace
{

using namespace dirsim;
namespace fs = std::filesystem;

/** References per preset trace at --size tiny (the tests' size). */
constexpr std::uint64_t kTinyRefs = 20'000;
/** References per CPU of the timed traces (tiny: 2'000). */
constexpr std::uint64_t kTimedRefsPerCpu = 100'000;
/** Chunk size of the streamed sweep's store files: small, so replay
 *  RSS is a few windows, not the trace. */
constexpr std::uint64_t kStreamChunkRefs = 65'536;

void
writeFile(const fs::path &path, const std::string &text)
{
    std::ofstream out(path);
    out << text;
    if (!out)
        throw std::runtime_error("cannot write " + path.string());
}

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** Render @p table to text and CSV and write both (stats layer). */
std::pair<std::string, std::string>
render(Tracer &tracer, const fs::path &dir, const std::string &name,
       const stats::TextTable &table)
{
    Span span(tracer, "stats.render", name);
    std::pair<std::string, std::string> out{table.toString(),
                                            table.toCsv()};
    writeFile(dir / (name + ".txt"), out.first);
    writeFile(dir / (name + ".csv"), out.second);
    return out;
}

/** Run @p task for every index on a pool of @p jobs workers and
 *  rethrow the first failure. */
void
parallelFor(unsigned jobs, std::size_t n,
            const std::function<void(std::size_t)> &task)
{
    std::mutex mutex;
    std::exception_ptr error;
    {
        sim::ThreadPool pool(static_cast<unsigned>(
            std::min<std::size_t>(jobs, n)));
        for (std::size_t i = 0; i < n; ++i)
            pool.submit([&, i] {
                try {
                    task(i);
                } catch (...) {
                    std::lock_guard<std::mutex> lock(mutex);
                    if (!error)
                        error = std::current_exception();
                }
            });
        pool.wait();
    }
    if (error)
        std::rethrow_exception(error);
}

/** Apply the benchmark seed to a config the benchmark builds; seed 0
 *  keeps the preset's own seed, so it reproduces the paper runs. */
gen::WorkloadConfig
seeded(gen::WorkloadConfig cfg, std::uint64_t seed)
{
    if (seed != 0) {
        // splitmix64 of (preset seed, benchmark seed): distinct
        // presets stay distinct under one benchmark seed.
        std::uint64_t z = cfg.seed + seed * 0x9E3779B97F4A7C15ull;
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        cfg.seed = z ^ (z >> 31);
    }
    return cfg;
}

std::vector<gen::WorkloadConfig>
presets(const Options &opts, bool fullSize)
{
    std::vector<gen::WorkloadConfig> cfgs;
    for (gen::WorkloadConfig cfg : gen::standardWorkloads(fullSize)) {
        if (opts.tiny)
            cfg.totalRefs = kTinyRefs;
        cfgs.push_back(seeded(cfg, opts.seed));
    }
    return cfgs;
}

const char *const kEngineNames[] = {"inval", "dir1nb", "dragon"};

/** Check an Evaluation's per-trace results; filtered runs consume
 *  fewer refs than the trace, so they check against inval's count. */
void
checkEvaluation(Checker &checker, const std::string &prefix,
                const analysis::Evaluation &eval,
                const std::vector<std::uint64_t> &traceRefs)
{
    for (std::size_t t = 0; t < eval.traces.size(); ++t) {
        const analysis::TraceEvaluation &te = eval.traces[t];
        const std::uint64_t refs = traceRefs.empty()
                                       ? te.inval.events.totalRefs()
                                       : traceRefs[t];
        const coherence::EngineResults *rs[] = {&te.inval, &te.dir1nb,
                                                &te.dragon};
        for (std::size_t e = 0; e < 3; ++e)
            checker.result(prefix + "/" + te.trace + "/" +
                               kEngineNames[e],
                           canonical(*rs[e]), false,
                           Checker::engineProblems(*rs[e], refs));
    }
}

std::uint64_t
evalEngineRefs(const analysis::Evaluation &eval)
{
    std::uint64_t refs = 0;
    for (const analysis::TraceEvaluation &te : eval.traces)
        refs += te.inval.events.totalRefs() +
                te.dir1nb.events.totalRefs() +
                te.dragon.events.totalRefs();
    return refs;
}

/**
 * Mirror of how the analysis runners plan a call on a SweepRunner:
 * one fusion group per workload holding one point per engine, with
 * the DiriNB cells marked for multi-lane collapse.  Records the
 * runner's planned group and lane counts.
 */
void
recordPlan(Span &span, unsigned jobs,
           const std::vector<gen::WorkloadConfig> &cfgs,
           const std::vector<std::vector<unsigned>> &calls)
{
    sim::SweepRunner runner(jobs);
    for (std::size_t k = 0; k < calls.size(); ++k)
        for (std::size_t c = 0; c < cfgs.size(); ++c)
            for (const unsigned pointers : calls[k]) {
                sim::SweepPoint point;
                point.name = cfgs[c].name;
                point.fuseKey = std::to_string(k) + "#" +
                                std::to_string(c);
                point.multiPointers = pointers;
                point.multiUnits = pointers ? cfgs[c].space.nProcesses
                                            : 0;
                // Planned, never run: the factories only satisfy add().
                point.engines = [] {
                    return std::vector<
                        std::unique_ptr<coherence::CoherenceEngine>>{};
                };
                point.source = [] {
                    return std::unique_ptr<trace::RefSource>{};
                };
                runner.add(std::move(point));
            }
    std::size_t lanes = 0;
    for (const std::size_t n : runner.plannedMultiLanes())
        lanes += n;
    span.counter("sim.groups",
                 double(runner.plannedGroupSizes().size()));
    span.counter("sim.lanes", double(lanes));
}

} // namespace

// ---------------------------------------------------------------------
// campaign: every exhibit reproduce_paper emits, in its order.

void
runCampaign(Context &ctx)
{
    Tracer &tr = ctx.tracer;
    const fs::path out = ctx.opts.outDir;
    fs::create_directories(out);
    analysis::setDefaultEvalJobs(ctx.opts.jobs);
    const std::vector<gen::WorkloadConfig> workloads =
        presets(ctx.opts, false);
    const std::vector<unsigned> sweepPointers = {1, 2, 3, 4};

    struct Exhibit
    {
        std::string name;
        std::string txt;
        std::string csv;
        bool seedIndependent;
    };
    std::vector<Exhibit> exhibits;
    // Studies that build their configs internally keep fixed seeds,
    // so their exhibits are compared with the table at every seed.
    const auto emit = [&](const std::string &name, bool seedIndependent,
                          const std::function<stats::TextTable()> &make) {
        ctx.markFirstResult();
        std::optional<stats::TextTable> table;
        {
            Span span(tr, "analysis." + name);
            table.emplace(make());
        }
        auto [txt, csv] = render(tr, out, name, *table);
        exhibits.push_back({name, std::move(txt), std::move(csv),
                            seedIndependent});
    };
    const auto replay = [&](const std::string &label, auto &&fn) {
        ctx.markFirstResult();
        Span span(tr, "sim.replay", label);
        return fn();
    };

    emit("table1", true, [] { return analysis::table1(); });
    emit("table2", true, [] { return analysis::table2(); });
    emit("table3", false, [&] {
        return analysis::table3(
            analysis::characterizeWorkloads(workloads));
    });

    const analysis::Evaluation eval = replay("evaluateWorkloads", [&] {
        return analysis::evaluateWorkloads(workloads);
    });
    emit("table4", false, [&] { return analysis::table4(eval); });
    emit("figure1", false, [&] {
        return analysis::renderFigure1(analysis::figure1(eval), 5);
    });
    emit("figure2", false, [&] { return analysis::figure2(eval); });
    emit("figure3", false, [&] { return analysis::figure3(eval); });
    emit("table5", false, [&] { return analysis::table5(eval); });
    emit("figure4", false, [&] { return analysis::figure4(eval); });
    emit("figure5", false, [&] { return analysis::figure5(eval); });
    emit("sec51_overhead", false, [&] {
        return analysis::section51(eval, {0.0, 1.0, 2.0, 4.0});
    });

    analysis::Evaluation noLocks;
    emit("sec52_spinlocks", false, [&] {
        analysis::EvalOptions opts;
        opts.dropLockTests = true;
        noLocks = replay("evaluateWorkloads(dropLockTests)", [&] {
            return analysis::evaluateWorkloads(workloads, opts);
        });
        return analysis::section52(eval, noLocks);
    });

    emit("sec6_alternatives", false, [&] {
        return analysis::renderSection6(analysis::section6(eval, 8.0),
                                        8.0);
    });
    std::vector<coherence::EngineResults> sweep;
    emit("sec6_dirinb_sweep", false, [&] {
        sweep = replay("limitedSweep", [&] {
            return analysis::limitedSweep(workloads, sweepPointers);
        });
        return analysis::limitedSweepTable(sweep, sweepPointers);
    });
    emit("ext_directory_messages", true, [] {
        return analysis::renderDirectoryMessages(
            analysis::directoryMessageStudy(false));
    });
    emit("sec5_system_limit", false, [&] {
        std::vector<analysis::SchemeCost> costs;
        {
            Span span(tr, "sim.cost", "schemeCosts");
            costs = analysis::schemeCosts(eval.average);
        }
        std::vector<analysis::SystemEstimate> estimates;
        for (const analysis::SchemeCost &sc : costs)
            estimates.push_back(analysis::systemEstimate(
                sc.pipelined, analysis::MachineParams{}));
        return analysis::renderSystemLimits(estimates, {4, 8, 16, 32});
    });
    emit("ext_scaling", true, [] {
        return analysis::renderScaling(
            analysis::scalingStudy({2, 4, 8, 16}));
    });
    emit("ext_finite_cache", true, [] {
        return analysis::renderFiniteCache(analysis::finiteCacheStudy(
            {16 * 1024, 128 * 1024, 1024 * 1024}, false));
    });
    emit("ext_sharing_domain", true, [] {
        return analysis::renderSharingDomain(
            analysis::sharingDomainStudy(0.02, false));
    });
    emit("ext_network", true, [] {
        return analysis::renderNetwork(
            analysis::networkStudy({2, 4, 8, 16, 32, 64}));
    });
    emit("ext_home_locality", true, [] {
        return analysis::renderHomeLocality(
            analysis::homeLocalityStudy({2, 4, 8, 16, 32}));
    });
    emit("ext_analytical", false, [&] {
        return analysis::renderAnalytical(
            analysis::analyticalStudy(workloads));
    });

    // Only the paper-matrix calls return EngineResults the benchmark
    // can count; the extension studies return their own summaries.
    ctx.engineRefs = evalEngineRefs(eval) + evalEngineRefs(noLocks);
    for (const coherence::EngineResults &r : sweep)
        ctx.engineRefs += r.events.totalRefs();
    if (tr.enabled()) {
        Span span(tr, "bench.plan");
        std::vector<std::vector<unsigned>> calls = {{0, 1, 0},
                                                    {0, 1, 0}};
        calls.push_back(sweepPointers);
        recordPlan(span, ctx.opts.jobs, workloads, calls);
    }
    ctx.finish();

    for (const Exhibit &ex : exhibits) {
        for (const auto &[ext, text] :
             {std::pair{".txt", &ex.txt}, std::pair{".csv", &ex.csv}}) {
            std::vector<std::string> problems;
            if (readFile(out / (ex.name + ext)) != *text)
                problems.push_back("file differs from rendered text");
            ctx.checker.result(ex.name + ext, *text, ex.seedIndependent,
                               problems);
        }
    }
    std::vector<std::uint64_t> traceRefs;
    std::uint64_t allRefs = 0;
    for (const gen::WorkloadConfig &cfg : workloads) {
        traceRefs.push_back(cfg.totalRefs);
        allRefs += cfg.totalRefs;
    }
    checkEvaluation(ctx.checker, "evaluate", eval, traceRefs);
    checkEvaluation(ctx.checker, "evaluate_no_locks", noLocks, {});
    for (std::size_t i = 0; i < sweep.size(); ++i)
        ctx.checker.result(
            "limited_sweep/dir" + std::to_string(sweepPointers[i]) + "nb",
            canonical(sweep[i]), false,
            Checker::engineProblems(sweep[i], allRefs));
}

// ---------------------------------------------------------------------
// sweep_full / sweep_streamed: the design-space sweep.

namespace
{

struct SweepResult
{
    std::string name;
    coherence::EngineResults results;
    /** References each result must have consumed. */
    std::uint64_t refs;
    sim::Scheme scheme;
    unsigned pointers;
};

} // namespace

void
runSweep(Context &ctx, bool streamed)
{
    Tracer &tr = ctx.tracer;
    const fs::path out = ctx.opts.outDir;
    fs::create_directories(out);
    const std::vector<gen::WorkloadConfig> cfgs =
        presets(ctx.opts, true);
    const unsigned jobs = ctx.opts.jobs;

    analysis::EvalOptions opts;
    opts.jobs = jobs;
    opts.streamReplay = streamed;
    // The analysis runners key the repository on these options.
    trace::PrepareOptions prep;
    prep.blockBytes = opts.sim.blockBytes;
    prep.domain = opts.sim.domain;

    sim::DiskCacheConfig disk;
    if (streamed) {
        disk.dir = (out / "store").string();
        disk.chunkRefs = kStreamChunkRefs;
        sim::TraceRepository::global().setDiskCache(disk);
    }

    // Set-up: every trace built cold through the repository.
    std::vector<std::shared_ptr<const trace::PreparedTrace>> prepared(
        cfgs.size());
    std::vector<std::shared_ptr<const trace::StoredTrace>> stored(
        cfgs.size());
    std::vector<std::uint64_t> refs(cfgs.size());
    std::uint64_t allRefs = 0;
    {
        Span span(tr, streamed ? "store.spill" : "gen.prepare");
        parallelFor(jobs, cfgs.size(), [&](std::size_t c) {
            auto &repo = sim::TraceRepository::global();
            if (streamed) {
                stored[c] = repo.getStored(cfgs[c], prep);
                refs[c] = stored[c]->totalRefs();
            } else {
                prepared[c] = repo.get(cfgs[c], prep);
                refs[c] = prepared[c]->totalRefs();
            }
        });
        for (std::size_t c = 0; c < cfgs.size(); ++c) {
            allRefs += refs[c];
            if (streamed)
                span.counter("store.bytes",
                             double(stored[c]->fileBytes()));
        }
        span.counter("gen.refs", double(allRefs));
    }
    if (streamed && tr.enabled()) {
        // Warm open of the spilled files, as a second process sees
        // them: a fresh repository over the same directory.
        Span span(tr, "store.open");
        sim::TraceRepository fresh(jobs);
        fresh.setDiskCache(disk);
        for (const gen::WorkloadConfig &cfg : cfgs)
            fresh.getStored(cfg, prep);
    }

    std::vector<SweepResult> results;
    const auto call = [&](const std::string &name, const char *layer,
                          const std::function<void()> &fn) {
        ctx.markFirstResult();
        Span span(tr, "sim.replay", name);
        if (layer) {
            Span inner(tr, layer, name);
            fn();
        } else {
            fn();
        }
    };
    const auto merged = [&](const std::string &name,
                            coherence::EngineResults r,
                            sim::Scheme scheme, unsigned pointers = 1) {
        results.push_back(
            {name, std::move(r), allRefs, scheme, pointers});
    };

    call("evaluateWorkloads", nullptr, [&] {
        const analysis::Evaluation eval =
            analysis::evaluateWorkloads(cfgs, opts);
        for (std::size_t c = 0; c < eval.traces.size(); ++c) {
            const analysis::TraceEvaluation &te = eval.traces[c];
            const std::string p = "evaluate/" + te.trace + "/";
            results.push_back({p + "inval", te.inval, refs[c],
                               sim::Scheme::Dir0B, 1});
            results.push_back({p + "dir1nb", te.dir1nb, refs[c],
                               sim::Scheme::Dir1NB, 1});
            results.push_back({p + "dragon", te.dragon, refs[c],
                               sim::Scheme::Dragon, 1});
        }
    });
    const std::vector<unsigned> pointers = {1, 2, 3, 4, 5, 6, 7, 8};
    call("limitedSweep", nullptr, [&] {
        auto sweep = analysis::limitedSweep(cfgs, pointers, opts);
        for (std::size_t i = 0; i < sweep.size(); ++i)
            merged("limited/dir" + std::to_string(pointers[i]) + "nb",
                   std::move(sweep[i]),
                   pointers[i] == 1 ? sim::Scheme::Dir1NB
                                    : sim::Scheme::DirINB,
                   pointers[i]);
    });
    call("berkeleyResults", nullptr, [&] {
        merged("berkeley", analysis::berkeleyResults(cfgs, opts),
               sim::Scheme::BerkeleyOwn);
    });
    call("invalWithDirectory(full map)", nullptr, [&] {
        const directory::FullMapFactory factory;
        merged("directory/full_map",
               analysis::invalWithDirectory(cfgs, factory, opts),
               sim::Scheme::DirNNBSeq);
    });
    call("invalWithDirectory(coarse vector)", nullptr, [&] {
        const directory::CoarseVectorFactory factory;
        merged("directory/coarse_vector",
               analysis::invalWithDirectory(cfgs, factory, opts),
               sim::Scheme::DirNNBSeq);
    });
    const std::vector<std::uint64_t> dirEntries = {1024, 4096, 16384};
    for (const std::uint64_t entries : dirEntries) {
        directory::DirCacheConfig dc;
        dc.enabled = true;
        dc.entries = entries;
        const std::string e = std::to_string(entries);
        call("invalWithDirCache(" + e + ")", "directory.dircache", [&] {
            merged("dircache/inval/" + e,
                   analysis::invalWithDirCache(cfgs, dc, opts),
                   sim::Scheme::DirNNBSeq);
        });
        call("limitedWithDirCache(4, " + e + ")", "directory.dircache",
             [&] {
                 merged("dircache/dir4nb/" + e,
                        analysis::limitedWithDirCache(cfgs, 4, dc, opts),
                        sim::Scheme::DirINB, 4);
             });
    }
    const std::vector<std::uint64_t> capacities = {16 * 1024, 64 * 1024,
                                                   256 * 1024};
    for (const std::uint64_t capacity : capacities) {
        mem::CacheGeometry geometry;
        geometry.capacityBytes = capacity;
        const std::string k = std::to_string(capacity / 1024) + "k";
        call("invalWithFiniteCaches(" + k + ")", "mem.finite", [&] {
            merged("finite/" + k,
                   analysis::invalWithFiniteCaches(cfgs, geometry, opts),
                   sim::Scheme::Dir0B);
        });
    }
    for (const SweepResult &r : results)
        ctx.engineRefs += r.results.events.totalRefs();

    stats::TextTable table("Design-space sweep: pipelined bus cycles "
                           "per reference",
                           {"Result", "Refs", "Cycles/ref"});
    {
        Span span(tr, "sim.cost", "computeCost");
        const bus::BusCosts bus = bus::pipelinedBus();
        for (const SweepResult &r : results) {
            sim::CostOptions co;
            co.nPointers = r.pointers;
            table.addRow({r.name,
                          std::to_string(r.results.events.totalRefs()),
                          stats::TextTable::num(
                              sim::computeCost(r.scheme, r.results, bus,
                                               co)
                                  .total())});
        }
    }
    render(tr, out, "sweep", table);

    if (tr.enabled()) {
        // Per-engine replay seconds of the evaluateWorkloads engine
        // set, from one timed fused pass per trace.
        Span span(tr, "bench.engine_probe", "FusedReplay timeEngines");
        sim::FusedReplayOptions fr;
        fr.timeEngines = true;
        for (std::size_t c = 0; c < cfgs.size(); ++c) {
            const unsigned units = cfgs[c].space.nProcesses;
            coherence::InvalEngineConfig ic;
            ic.nUnits = units;
            std::vector<std::unique_ptr<coherence::CoherenceEngine>> es;
            es.push_back(std::make_unique<coherence::InvalEngine>(ic));
            es.push_back(
                std::make_unique<coherence::LimitedEngine>(units, 1));
            es.push_back(
                std::make_unique<coherence::DragonEngine>(units));
            std::vector<coherence::CoherenceEngine *> ptrs;
            for (auto &e : es) {
                e->reserveBlocks(gen::expectedUniqueBlocks(cfgs[c].space));
                ptrs.push_back(e.get());
            }
            std::unique_ptr<trace::PreparedSpanSource> spans =
                streamed ? stored[c]->spanCursor()
                         : std::make_unique<trace::PreparedTraceSpans>(
                               *prepared[c]);
            const sim::FusedReplayRun run =
                sim::FusedReplay(fr).run(*spans, ptrs);
            for (std::size_t e = 0; e < ptrs.size(); ++e)
                span.counter(std::string("sim.engine.") +
                                 kEngineNames[e] + "_s",
                             run.engineSeconds[e]);
        }
        Span plan(tr, "bench.plan");
        std::vector<std::vector<unsigned>> calls = {{0, 1, 0}, pointers};
        // berkeley, two organisations, six dir-cache and three
        // finite-cache calls: one engine per workload each.
        calls.resize(calls.size() + 3 + 2 * dirEntries.size() +
                         capacities.size(),
                     {0});
        recordPlan(plan, jobs, cfgs, calls);
    }
    ctx.finish();

    for (const SweepResult &r : results)
        ctx.checker.result(r.name, canonical(r.results), false,
                           Checker::engineProblems(r.results, r.refs));
    if (streamed) {
        // The streamed results must equal in-memory replay of the
        // same traces (checked at every seed; at seed 0 the in-memory
        // results also meet the shared digest table).
        analysis::EvalOptions memOpts = opts;
        memOpts.streamReplay = false;
        const analysis::Evaluation mem =
            analysis::evaluateWorkloads(cfgs, memOpts);
        std::size_t i = 0;
        for (const analysis::TraceEvaluation &te : mem.traces) {
            const coherence::EngineResults *rs[] = {&te.inval,
                                                    &te.dir1nb,
                                                    &te.dragon};
            for (std::size_t e = 0; e < 3; ++e, ++i) {
                std::vector<std::string> problems;
                if (!(*rs[e] == results[i].results))
                    problems.push_back("streamed replay differs from "
                                       "in-memory replay");
                ctx.checker.result(results[i].name, canonical(*rs[e]),
                                   false, problems);
            }
        }
    }
}

// ---------------------------------------------------------------------
// timed_contention: the discrete-event bus under contention.

void
runTimedContention(Context &ctx)
{
    Tracer &tr = ctx.tracer;
    const fs::path out = ctx.opts.outDir;
    fs::create_directories(out);
    const unsigned jobs = ctx.opts.jobs;
    const std::uint64_t refsPerCpu =
        ctx.opts.tiny ? 2'000 : kTimedRefsPerCpu;
    const std::vector<unsigned> cpuCounts = {4, 8, 16, 32};
    // The CPU count at which the three disciplines are crossed.
    constexpr std::size_t kDisciplineIndex = 2;
    const std::vector<sim::Scheme> schemes = {
        sim::Scheme::Dir0B, sim::Scheme::Dir1NB, sim::Scheme::Dragon,
        sim::Scheme::WTI};

    std::vector<gen::WorkloadConfig> cfgs;
    for (const unsigned n : cpuCounts)
        cfgs.push_back(
            seeded(gen::scaledConfig(n, refsPerCpu * n), ctx.opts.seed));
    trace::PrepareOptions prep;
    prep.timedStreams = true;

    std::vector<std::shared_ptr<const trace::PreparedTrace>> traces(
        cfgs.size());
    {
        Span span(tr, "gen.prepare");
        parallelFor(jobs, cfgs.size(), [&](std::size_t i) {
            traces[i] = sim::TraceRepository::global().get(cfgs[i], prep);
        });
        std::uint64_t refs = 0;
        for (const auto &t : traces)
            refs += t->totalRefs();
        span.counter("gen.refs", double(refs));
    }

    std::vector<timing::TimedSweepPoint> points;
    std::vector<std::size_t> traceOf;
    const auto add = [&](sim::Scheme scheme, std::size_t i,
                         timing::Discipline d) {
        const unsigned units = cfgs[i].space.nProcesses;
        timing::TimedSweepPoint point;
        point.name = sim::schemeName(scheme) + "@" +
                     std::to_string(cpuCounts[i]) + "/" +
                     timing::disciplineName(d);
        point.config.scheme = scheme;
        point.config.bus = timing::timedPipelinedBus();
        point.config.discipline = d;
        point.engine = [scheme, units]()
            -> std::unique_ptr<coherence::CoherenceEngine> {
            switch (sim::engineKindFor(scheme)) {
              case sim::EngineKind::Limited:
                return std::make_unique<coherence::LimitedEngine>(units,
                                                                  1);
              case sim::EngineKind::Dragon:
                return std::make_unique<coherence::DragonEngine>(units);
              default: {
                coherence::InvalEngineConfig ic;
                ic.nUnits = units;
                return std::make_unique<coherence::InvalEngine>(ic);
              }
            }
        };
        point.prepared = traces[i];
        points.push_back(std::move(point));
        traceOf.push_back(i);
    };
    for (const sim::Scheme scheme : schemes)
        for (std::size_t i = 0; i < cpuCounts.size(); ++i)
            add(scheme, i, timing::Discipline::FCFS);
    for (const sim::Scheme scheme : schemes)
        for (const timing::Discipline d :
             {timing::Discipline::RoundRobin,
              timing::Discipline::FixedPriority})
            add(scheme, kDisciplineIndex, d);

    ctx.markFirstResult();
    std::vector<timing::TimedRun> runs;
    {
        Span sweep(tr, "timing.sweep", "runTimedSweep");
        if (!tr.enabled()) {
            runs = timing::runTimedSweep(points, jobs);
        } else {
            // The same jobs runTimedSweep submits, each in a span.
            std::vector<std::function<timing::TimedRun()>> tasks;
            for (const timing::TimedSweepPoint &point : points)
                tasks.push_back([&tr, &point, parent = sweep.id()] {
                    Span span(tr, "timing.point", point.name, parent);
                    timing::TimedBusSim sim(point.config,
                                            point.engine());
                    timing::TimedRun run = sim.run(*point.prepared);
                    run.name = point.name;
                    return run;
                });
            runs = sim::runOrdered<timing::TimedRun>(jobs, tasks);
        }
        std::uint64_t transactions = 0;
        for (const timing::TimedRun &run : runs) {
            transactions += run.transactions;
            ctx.engineRefs += run.refs;
        }
        sweep.counter("timing.transactions", double(transactions));
    }

    stats::TextTable table(
        "Timed pipelined bus under contention",
        {"Point", "Util", "Mean delay", "Timed cycles/ref",
         "Static cycles/ref"});
    std::vector<std::uint64_t> staticCycles;
    {
        Span span(tr, "sim.cost", "computeCost");
        for (std::size_t p = 0; p < runs.size(); ++p) {
            const timing::TimedBusConfig &cfg = points[p].config;
            staticCycles.push_back(timing::staticBusCycles(
                cfg.scheme, runs[p].engine, cfg.bus.costs,
                cfg.costOpts));
            table.addRow(
                {runs[p].name,
                 stats::TextTable::num(runs[p].busUtilization()),
                 stats::TextTable::num(runs[p].meanQueueDelay()),
                 stats::TextTable::num(runs[p].busCyclesPerRef()),
                 stats::TextTable::num(
                     sim::computeCost(cfg.scheme, runs[p].engine,
                                      cfg.bus.costs, cfg.costOpts)
                         .total())});
        }
    }
    render(tr, out, "timed_contention", table);
    ctx.finish();

    for (std::size_t p = 0; p < runs.size(); ++p) {
        const timing::TimedRun &run = runs[p];
        std::vector<std::string> problems = Checker::engineProblems(
            run.engine, traces[traceOf[p]]->totalRefs());
        if (run.refs != run.engine.events.totalRefs())
            problems.push_back("timed refs differ from engine refs");
        if (run.busBusyCycles != staticCycles[p])
            problems.push_back(
                "bus-busy cycles " + std::to_string(run.busBusyCycles) +
                " differ from the static cost " +
                std::to_string(staticCycles[p]));
        ctx.checker.result("timed/" + run.name, canonical(run), false,
                           problems);
    }
}

} // namespace perfbench
