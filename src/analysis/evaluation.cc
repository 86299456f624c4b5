#include "analysis/evaluation.hh"

#include "coherence/berkeley_engine.hh"
#include "coherence/dragon_engine.hh"
#include "coherence/inval_engine.hh"
#include "coherence/limited_engine.hh"
#include "coherence/multi_limited_engine.hh"
#include "gen/workload.hh"
#include "sim/sweep.hh"
#include "sim/thread_pool.hh"
#include "sim/trace_repo.hh"
#include "trace/prepared.hh"
#include "trace/store.hh"

#include <algorithm>
#include <exception>
#include <numeric>

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

/** One workload's replay input: the in-memory columns, or a store
 *  each task reads through its own windowed cursor. */
struct WorkloadStream
{
    std::shared_ptr<const trace::PreparedTrace> prepared;
    std::shared_ptr<const trace::StoredTrace> stored;
};

/**
 * One workload's replay tasks, as groups of spec columns.  An
 * in-memory trace runs each column as its own task, except that the
 * DiriNB columns the collapse rule accepts share one task (one
 * MultiLimitedEngine probe serves every lane).  A streamed trace runs
 * every column in one fused task, so each store window is read once.
 */
struct WorkloadPlan
{
    std::vector<std::vector<std::size_t>> groups;
    /** The limitedPointers columns run as MultiLimitedEngine lanes. */
    bool collapse = false;
};

WorkloadPlan
planWorkload(const std::vector<EngineSpec> &specs, unsigned units,
             bool streamed)
{
    std::vector<sim::CollapseHint> hints;
    for (const EngineSpec &spec : specs)
        hints.push_back({spec.limitedPointers, units});
    WorkloadPlan plan;
    plan.collapse = sim::planCollapse(hints).collapse;
    if (streamed) {
        plan.groups.emplace_back(specs.size());
        std::iota(plan.groups[0].begin(), plan.groups[0].end(), 0);
        return plan;
    }
    std::size_t laneGroup = specs.size();
    for (std::size_t f = 0; f < specs.size(); ++f) {
        if (!plan.collapse || specs[f].limitedPointers == 0) {
            plan.groups.push_back({f});
        } else if (laneGroup == specs.size()) {
            laneGroup = plan.groups.size();
            plan.groups.push_back({f});
        } else {
            plan.groups[laneGroup].push_back(f);
        }
    }
    return plan;
}

/**
 * Replay the spec columns @p cols of one workload in one Simulator
 * over @p stream, writing each column's results into @p row.  With
 * @p collapse, the columns carrying a limitedPointers hint run as the
 * lanes of one shared MultiLimitedEngine.
 */
void
replayColumns(const sim::SimConfig &sc, const WorkloadStream &stream,
              const std::vector<EngineSpec> &specs,
              const std::vector<std::size_t> &cols, unsigned units,
              bool collapse, std::vector<coherence::EngineResults> &row)
{
    std::vector<unsigned> lanePointers;
    if (collapse) {
        for (const std::size_t f : cols)
            if (specs[f].limitedPointers != 0)
                lanePointers.push_back(specs[f].limitedPointers);
    }
    sim::Simulator simulator(sc);
    const coherence::MultiLimitedEngine *multi = nullptr;
    if (!lanePointers.empty()) {
        auto engine = std::make_unique<coherence::MultiLimitedEngine>(
            units, lanePointers);
        multi = engine.get();
        simulator.addEngine(std::move(engine));
    }
    for (const std::size_t f : cols)
        if (!multi || specs[f].limitedPointers == 0)
            simulator.addEngine(specs[f].make(units));

    if (stream.stored)
        simulator.run(*stream.stored->spanCursor());
    else
        simulator.run(*stream.prepared);

    std::size_t lane = 0;
    std::size_t slot = multi ? 1 : 0;
    for (const std::size_t f : cols) {
        if (multi && specs[f].limitedPointers != 0)
            row[f] = multi->laneResults(lane++);
        else
            row[f] = simulator.engine(slot++).results();
    }
}

} // namespace

std::vector<std::vector<coherence::EngineResults>>
evaluateMatrix(const std::vector<gen::WorkloadConfig> &cfgs,
               const std::vector<EngineSpec> &specs,
               const EvalOptions &opts)
{
    std::vector<std::vector<coherence::EngineResults>> results(
        cfgs.size(), std::vector<coherence::EngineResults>(specs.size()));
    if (cfgs.empty() || specs.empty())
        return results;

    // Plan on the caller's thread, so a bad hint throws here rather
    // than inside the pool.
    std::vector<WorkloadPlan> plans;
    std::size_t maxTasks = 0;
    for (const gen::WorkloadConfig &cfg : cfgs) {
        plans.push_back(planWorkload(specs, unitsFor(cfg, opts),
                                     opts.streamReplay));
        maxTasks += plans.back().groups.size();
    }
    // The longest trace generates first: it heads the critical path.
    std::vector<std::size_t> order(cfgs.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return cfgs[a].totalRefs > cfgs[b].totalRefs;
                     });

    // Each cell's result and error slot is written by exactly one
    // task, so tasks share no mutable state; pool.wait() orders every
    // write before the harvest below.
    const trace::PrepareOptions prep = prepareOptionsFor(opts);
    std::vector<std::exception_ptr> errors(cfgs.size() * specs.size());
    const auto fail = [&](std::size_t c,
                          const std::vector<std::size_t> &cols) {
        for (const std::size_t f : cols)
            errors[c * specs.size() + f] = std::current_exception();
    };
    {
        sim::ThreadPool pool(workersFor(opts.jobs, maxTasks));
        for (const std::size_t c : order) {
            // Fetch the trace, then queue its replays at once: no
            // workload waits for another's trace.
            pool.submit([&, c] {
                const WorkloadPlan &plan = plans[c];
                std::size_t submitted = 0;
                try {
                    sim::TraceRepository &repo =
                        sim::TraceRepository::global();
                    WorkloadStream stream;
                    if (opts.streamReplay)
                        stream.stored = repo.getStored(cfgs[c], prep);
                    else
                        stream.prepared = repo.get(cfgs[c], prep);
                    const sim::SimConfig sc = simConfigFor(cfgs[c], opts);
                    const unsigned units = unitsFor(cfgs[c], opts);
                    for (; submitted < plan.groups.size(); ++submitted) {
                        const std::vector<std::size_t> *cols =
                            &plan.groups[submitted];
                        pool.submit([&, c, sc, units, stream, cols] {
                            try {
                                replayColumns(sc, stream, specs, *cols,
                                              units, plans[c].collapse,
                                              results[c]);
                            } catch (...) {
                                fail(c, *cols);
                            }
                        });
                    }
                } catch (...) {
                    for (std::size_t g = submitted;
                         g < plan.groups.size(); ++g)
                        fail(c, plan.groups[g]);
                }
            });
        }
        pool.wait();
    }
    // The earliest (workload, spec) failure wins, at any job count.
    for (const std::exception_ptr &error : errors) {
        if (error)
            std::rethrow_exception(error);
    }
    return results;
}

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

namespace
{

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

EngineSpec
invalDirectorySpec(const directory::DirEntryFactory &factory,
                   const directory::DirCacheConfig &dirCache)
{
    return {invalFactory(&factory, dirCache)};
}

EngineSpec
invalFiniteCacheSpec(const mem::CacheGeometry &geometry)
{
    return {[geometry](unsigned units) {
        coherence::InvalEngineConfig cfg;
        cfg.nUnits = units;
        cfg.cacheFactory = [geometry] {
            return std::make_unique<mem::SetAssocTagStore>(geometry);
        };
        return std::make_unique<coherence::InvalEngine>(cfg);
    }};
}

coherence::EngineResults
invalWithDirectory(const std::vector<gen::WorkloadConfig> &cfgs,
                   const directory::DirEntryFactory &factory,
                   const EvalOptions &opts)
{
    return runMerged(cfgs, opts,
                     invalDirectorySpec(factory, opts.dirCache));
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
    return runMerged(cfgs, opts, invalFiniteCacheSpec(geometry));
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
