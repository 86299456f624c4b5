#include "analysis/evaluation.hh"

#include "coherence/berkeley_engine.hh"
#include "coherence/dragon_engine.hh"
#include "coherence/inval_engine.hh"
#include "coherence/limited_engine.hh"
#include "gen/workload.hh"
#include "sim/sweep.hh"
#include "sim/thread_pool.hh"
#include "sim/trace_repo.hh"
#include "trace/prepared.hh"

#include <algorithm>

namespace dirsim::analysis
{

namespace
{

unsigned defaultJobs = 1;
bool defaultStream = false;

} // namespace

void
setDefaultEvalJobs(unsigned jobs)
{
    defaultJobs = jobs;
}

unsigned
defaultEvalJobs()
{
    return defaultJobs;
}

void
setDefaultStreamReplay(bool stream)
{
    defaultStream = stream;
}

bool
defaultStreamReplay()
{
    return defaultStream;
}

namespace
{

unsigned
unitsFor(const gen::WorkloadConfig &cfg, const EvalOptions &opts)
{
    if (opts.nUnits != 0)
        return opts.nUnits;
    return opts.sim.domain == sim::SharingDomain::Process
               ? cfg.space.nProcesses
               : cfg.space.nCpus;
}

/** Per-workload SimConfig: the caller's options plus the workload's
 *  expected-unique-blocks reserve hint (unless explicitly set). */
sim::SimConfig
simConfigFor(const gen::WorkloadConfig &cfg, const EvalOptions &opts)
{
    sim::SimConfig sc = opts.sim;
    if (sc.expectedBlocks == 0)
        sc.expectedBlocks = gen::expectedUniqueBlocks(cfg.space);
    return sc;
}

/** Workers for @p tasks independent tasks: never more than the
 *  tasks, so a short list does not spawn idle threads. */
unsigned
workersFor(unsigned jobs, std::size_t tasks)
{
    return static_cast<unsigned>(std::min<std::size_t>(
        sim::ThreadPool::resolveThreads(jobs), tasks));
}

/** Decode parameters matching this run's options: the lock-test
 *  filter folds into the decode, so the prepared stream replays with
 *  no per-record filtering at all. */
trace::PrepareOptions
prepareOptionsFor(const EvalOptions &opts)
{
    trace::PrepareOptions prep;
    prep.blockBytes = opts.sim.blockBytes;
    prep.domain = opts.sim.domain;
    prep.dropLockTests = opts.dropLockTests;
    return prep;
}

} // namespace

std::vector<std::vector<coherence::EngineResults>>
evaluateMatrix(const std::vector<gen::WorkloadConfig> &cfgs,
               const std::vector<EngineSpec> &specs,
               const EvalOptions &opts)
{
    std::vector<std::vector<coherence::EngineResults>> results(
        cfgs.size());
    if (cfgs.empty() || specs.empty())
        return results;
    const unsigned jobs = sim::ThreadPool::resolveThreads(opts.jobs);

    // Phase 1: one stream per workload, as the template its cells'
    // points copy.  The traces are immutable and shared read-only by
    // every job; a streamed cell builds its own windowed cursor over
    // the shared store, so concurrent cells each keep one chunk
    // resident.
    const trace::PrepareOptions prep = prepareOptionsFor(opts);
    std::vector<std::function<sim::SweepPoint()>> fetches;
    for (std::size_t c = 0; c < cfgs.size(); ++c) {
        fetches.push_back([&, c] {
            sim::TraceRepository &repo = sim::TraceRepository::global();
            sim::SweepPoint point;
            point.name = cfgs[c].name;
            point.sim = simConfigFor(cfgs[c], opts);
            // Unique per index: workload names can repeat.
            point.fuseKey = "workload#" + std::to_string(c);
            if (opts.streamReplay)
                point.spans = [stored = repo.getStored(cfgs[c], prep)] {
                    return stored->spanCursor();
                };
            else
                point.prepared = repo.get(cfgs[c], prep);
            return point;
        });
    }
    const std::vector<sim::SweepPoint> streams =
        sim::runOrdered<sim::SweepPoint>(workersFor(jobs, cfgs.size()),
                                         fetches);

    // Phase 2: one sweep point per (workload, engine) cell.
    sim::SweepRunner runner(jobs);
    for (std::size_t c = 0; c < cfgs.size(); ++c) {
        const unsigned units = unitsFor(cfgs[c], opts);
        for (const EngineSpec &spec : specs) {
            sim::SweepPoint point = streams[c];
            point.multiPointers = spec.limitedPointers;
            point.multiUnits = units;
            point.engines = [&factory = spec.make, units] {
                std::vector<
                    std::unique_ptr<coherence::CoherenceEngine>>
                    engines;
                engines.push_back(factory(units));
                return engines;
            };
            runner.add(std::move(point));
        }
    }
    std::vector<sim::SweepPointResult> points = runner.run();
    for (std::size_t c = 0; c < cfgs.size(); ++c) {
        for (std::size_t f = 0; f < specs.size(); ++f) {
            results[c].push_back(std::move(
                points[c * specs.size() + f].engines.front()));
        }
    }
    return results;
}

namespace
{

/** Each matrix column merged across the workloads. */
std::vector<coherence::EngineResults>
mergeColumns(
    const std::vector<std::vector<coherence::EngineResults>> &matrix,
    std::size_t columns)
{
    std::vector<coherence::EngineResults> merged(columns);
    for (const auto &row : matrix) {
        for (std::size_t e = 0; e < columns; ++e) {
            merged[e].name = row[e].name;
            merged[e].merge(row[e]);
        }
    }
    return merged;
}

/** Run one engine per workload, merged across the workloads. */
coherence::EngineResults
runMerged(const std::vector<gen::WorkloadConfig> &cfgs,
          const EvalOptions &opts, EngineSpec spec)
{
    return mergeColumns(evaluateMatrix(cfgs, {std::move(spec)}, opts), 1)
        .front();
}

EngineFactory
invalFactory(const directory::DirEntryFactory *dirFactory = nullptr,
             const directory::DirCacheConfig &dirCache = {})
{
    return [dirFactory, dirCache](unsigned units) {
        coherence::InvalEngineConfig cfg;
        cfg.nUnits = units;
        cfg.dirFactory = dirFactory;
        cfg.dirCache = dirCache;
        return std::make_unique<coherence::InvalEngine>(cfg);
    };
}

/**
 * A DiriNB cell.  Collapsible into a multi-config lane only without
 * a directory cache: eviction state is per-configuration, so finite-
 * cache runs always use the independent engine.
 */
EngineSpec
limitedSpec(unsigned nPointers,
            const directory::DirCacheConfig &dirCache = {})
{
    return {[nPointers, dirCache](unsigned units) {
                return std::make_unique<coherence::LimitedEngine>(
                    units, nPointers, dirCache);
            },
            dirCache.enabled ? 0u : nPointers};
}

} // namespace

Evaluation
evaluateWorkloads(const std::vector<gen::WorkloadConfig> &cfgs,
                  const EvalOptions &opts)
{
    const std::vector<EngineSpec> specs = {
        {invalFactory(nullptr, opts.dirCache)},
        limitedSpec(1, opts.dirCache),
        {[](unsigned units) {
            return std::make_unique<coherence::DragonEngine>(units);
        }},
    };
    const auto matrix = evaluateMatrix(cfgs, specs, opts);

    Evaluation eval;
    eval.average.trace = "average";
    for (std::size_t c = 0; c < cfgs.size(); ++c) {
        TraceEvaluation te;
        te.trace = cfgs[c].name;
        te.inval = matrix[c][0];
        te.dir1nb = matrix[c][1];
        te.dragon = matrix[c][2];

        eval.average.inval.merge(te.inval);
        eval.average.dir1nb.merge(te.dir1nb);
        eval.average.dragon.merge(te.dragon);
        eval.traces.push_back(std::move(te));
    }
    return eval;
}

Evaluation
evaluateStandard(bool fullSize)
{
    return evaluateWorkloads(gen::standardWorkloads(fullSize));
}

std::vector<trace::TraceCharacteristics>
characterizeWorkloads(const std::vector<gen::WorkloadConfig> &cfgs)
{
    std::vector<std::function<trace::TraceCharacteristics()>> tasks;
    for (const gen::WorkloadConfig &cfg : cfgs) {
        tasks.push_back([&cfg] {
            gen::WorkloadSource source(cfg);
            return trace::characterize(source, cfg.name,
                                       cfg.space.blockBytes);
        });
    }
    return sim::runOrdered<trace::TraceCharacteristics>(
        workersFor(defaultEvalJobs(), cfgs.size()), tasks);
}

std::vector<coherence::EngineResults>
limitedSweep(const std::vector<gen::WorkloadConfig> &cfgs,
             const std::vector<unsigned> &pointerCounts,
             const EvalOptions &opts)
{
    std::vector<EngineSpec> specs;
    for (unsigned i : pointerCounts)
        specs.push_back(limitedSpec(i, opts.dirCache));
    return mergeColumns(evaluateMatrix(cfgs, specs, opts),
                        pointerCounts.size());
}

coherence::EngineResults
invalWithDirectory(const std::vector<gen::WorkloadConfig> &cfgs,
                   const directory::DirEntryFactory &factory,
                   const EvalOptions &opts)
{
    return runMerged(cfgs, opts, {invalFactory(&factory, opts.dirCache)});
}

coherence::EngineResults
berkeleyResults(const std::vector<gen::WorkloadConfig> &cfgs,
                const EvalOptions &opts)
{
    return runMerged(cfgs, opts, {[](unsigned units) {
                         return std::make_unique<
                             coherence::BerkeleyEngine>(units);
                     }});
}

coherence::EngineResults
invalWithFiniteCaches(const std::vector<gen::WorkloadConfig> &cfgs,
                      const mem::CacheGeometry &geometry,
                      const EvalOptions &opts)
{
    return runMerged(cfgs, opts, {[&geometry](unsigned units) {
                         coherence::InvalEngineConfig cfg;
                         cfg.nUnits = units;
                         cfg.cacheFactory = [&geometry]() {
                             return std::make_unique<
                                 mem::SetAssocTagStore>(geometry);
                         };
                         return std::make_unique<
                             coherence::InvalEngine>(cfg);
                     }});
}

coherence::EngineResults
invalWithDirCache(const std::vector<gen::WorkloadConfig> &cfgs,
                  const directory::DirCacheConfig &dirCache,
                  const EvalOptions &opts)
{
    return runMerged(cfgs, opts, {invalFactory(nullptr, dirCache)});
}

coherence::EngineResults
limitedWithDirCache(const std::vector<gen::WorkloadConfig> &cfgs,
                    unsigned nPointers,
                    const directory::DirCacheConfig &dirCache,
                    const EvalOptions &opts)
{
    return runMerged(cfgs, opts, limitedSpec(nPointers, dirCache));
}

} // namespace dirsim::analysis
