/**
 * @file
 * Evaluation runner: executes the paper's simulation campaign.
 *
 * One Evaluation holds, per trace and averaged, the results of the
 * three state-change engines the paper's protocols reduce to:
 *
 *  - inval:  multiple-clean / single-dirty write-invalidate (costs
 *            Dir0B, WTI, DirnNB, DiriB, Berkeley and Yen-Fu);
 *  - dir1nb: the single-copy engine;
 *  - dragon: the update engine.
 *
 * Helper runners cover the variants that need their own state
 * dynamics: the DiriNB pointer sweep, directory-organisation shadows,
 * lock-test filtering (Section 5.2), finite caches, and processor-
 * rather than process-based sharing.
 */

#ifndef DIRSIM_ANALYSIS_EVALUATION_HH
#define DIRSIM_ANALYSIS_EVALUATION_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "coherence/engine.hh"
#include "coherence/results.hh"
#include "directory/dir_cache.hh"
#include "directory/entry.hh"
#include "gen/workloads.hh"
#include "mem/set_assoc.hh"
#include "sim/simulator.hh"
#include "trace/characterize.hh"

namespace dirsim::analysis
{

/** Engine results for one trace. */
struct TraceEvaluation
{
    std::string trace;
    coherence::EngineResults inval;
    coherence::EngineResults dir1nb;
    coherence::EngineResults dragon;
};

/** Results for a set of traces plus their merge. */
struct Evaluation
{
    std::vector<TraceEvaluation> traces;
    /** All traces merged (the paper reports averages across traces). */
    TraceEvaluation average;
};

/**
 * @name Process-wide default for EvalOptions::jobs.
 *
 * The extension studies build their EvalOptions internally; setting
 * the default once (e.g.\ from a --jobs flag) fans every defaulted
 * evaluation in the process out over the sweep engine without
 * threading a parameter through each study's signature.  Explicitly
 * constructed options can still override the field.  Not thread-safe:
 * set it during start-up, before evaluations run.
 * @{
 */
void setDefaultEvalJobs(unsigned jobs);
unsigned defaultEvalJobs();
/** @} */

/**
 * @name Process-wide default for EvalOptions::streamReplay.
 *
 * Same pattern as setDefaultEvalJobs(): a driver that enables the
 * out-of-core trace cache (e.g.\ from --trace-cache-dir) flips this
 * once and every defaulted evaluation streams from disk.  Requires
 * sim::TraceRepository::global() to have a configured disk tier.
 * @{
 */
void setDefaultStreamReplay(bool stream);
bool defaultStreamReplay();
/** @} */

/** Options for evaluation runs. */
struct EvalOptions
{
    sim::SimConfig sim;
    /** Drop spin-lock test reads first (the Section 5.2 experiment). */
    bool dropLockTests = false;
    /** Units for the engines; 0 = use each workload's process count. */
    unsigned nUnits = 0;
    /**
     * Worker threads for the run; 0 means one per hardware thread.
     * Every evaluation takes the same path at any job count: each
     * workload's trace comes from sim::TraceRepository::global()
     * (decoded once, shared read-only), and evaluateMatrix() replays
     * the workload×engine matrix as one dependency-driven plan on one
     * pool.  Results are bit-identical at any job count (the test
     * suite enforces this).
     *
     * Initialised from defaultEvalJobs() (1 unless a driver raised
     * it).
     */
    unsigned jobs = defaultEvalJobs();
    /**
     * Replay each workload as an out-of-core StoredTrace via the
     * repository's disk tier (sim::TraceRepository::getStored)
     * instead of holding the prepared columns in memory: peak RSS per
     * replay is one chunk window, and warm cache files carry the
     * generate+decode work across processes.  Results are
     * bit-identical to the in-memory prepared path (golden suite).
     * Requires the global repository's disk cache to be configured.
     * Initialised from defaultStreamReplay().
     */
    bool streamReplay = defaultStreamReplay();
    /**
     * Finite directory-entry cache applied to the directory-based
     * engines (inval and DiriNB; the snoopy engines have no directory
     * to cache).  Disabled by default — the paper's entry-per-block
     * model.
     */
    directory::DirCacheConfig dirCache;
};

/** Builds one engine for a given unit count. */
using EngineFactory =
    std::function<std::unique_ptr<coherence::CoherenceEngine>(unsigned)>;

/**
 * One engine column of an evaluation matrix: the factory that builds
 * its engine, plus the multi-configuration collapse hint.  A nonzero
 * limitedPointers marks the column as a plain DiriNB run (no
 * directory cache) with that pointer count, which evaluateMatrix()
 * may run as one lane of a shared coherence::MultiLimitedEngine (see
 * sim::planCollapse()).  The factory is the fallback when a workload
 * carries fewer than two such columns.
 */
struct EngineSpec
{
    EngineFactory make;
    unsigned limitedPointers = 0;
};

/**
 * Run every engine column of @p specs over every workload of
 * @p cfgs as ONE plan, and harvest each cell's results.
 *
 * Every evaluation in the process goes through here, at any job
 * count.  The plan is dependency-driven, on one pool of opts.jobs
 * workers:
 *
 *  - One fetch task per workload takes its trace from
 *    sim::TraceRepository::global() — the in-memory PreparedTrace,
 *    or with opts.streamReplay the out-of-core StoredTrace.  Fetches
 *    are queued longest trace first (totalRefs descending, ties in
 *    @p cfgs order), since the longest generate heads the critical
 *    path.
 *  - As soon as a fetch returns, it queues that workload's replays;
 *    no workload waits for another's trace.  An in-memory trace
 *    replays each column as its own task (one Simulator, one
 *    engine), except that its DiriNB columns (EngineSpec::
 *    limitedPointers) collapse into one shared MultiLimitedEngine
 *    task under sim::planCollapse().  A streamed trace replays all of
 *    its columns as one fused task over one cursor, so each store
 *    window is read once.
 *
 * A study that sweeps a parameter over many workloads should build
 * every config first and make one call.  Each cell's results land in
 * its own slot, so any job count is bit-identical to jobs = 1.  A
 * failing fetch or replay marks its cells; once the pool drains, the
 * earliest failing (workload, spec) cell's exception is rethrown.  A
 * factory is called on worker threads and must be safe to call
 * concurrently.
 *
 * @return results[workload][spec].
 */
std::vector<std::vector<coherence::EngineResults>>
evaluateMatrix(const std::vector<gen::WorkloadConfig> &cfgs,
               const std::vector<EngineSpec> &specs,
               const EvalOptions &opts = EvalOptions{});

/** Each of the first @p columns matrix columns merged across the
 *  workloads (the rows of @p matrix). */
std::vector<coherence::EngineResults>
mergeColumns(
    const std::vector<std::vector<coherence::EngineResults>> &matrix,
    std::size_t columns);

/**
 * An invalidation-engine column shadowing the directory organisation
 * @p factory builds (see invalWithDirectory()).  The factory is held
 * by reference and must outlive the evaluation.
 */
EngineSpec invalDirectorySpec(const directory::DirEntryFactory &factory,
                              const directory::DirCacheConfig &dirCache =
                                  {});

/** An invalidation-engine column with finite caches of @p geometry
 *  (held by value, so specs for several geometries can share one
 *  evaluateMatrix() call). */
EngineSpec invalFiniteCacheSpec(const mem::CacheGeometry &geometry);

/** Run the three standard engines over each workload. */
Evaluation evaluateWorkloads(const std::vector<gen::WorkloadConfig> &cfgs,
                             const EvalOptions &opts = EvalOptions{});

/** The paper's campaign: pops, thor and pero. */
Evaluation evaluateStandard(bool fullSize = false);

/**
 * Characterise each workload (Table 3): one task per workload on
 * defaultEvalJobs() workers, results in @p cfgs order.
 */
std::vector<trace::TraceCharacteristics>
characterizeWorkloads(const std::vector<gen::WorkloadConfig> &cfgs);

/**
 * Run the DiriNB engine for each pointer count in @p pointerCounts,
 * merged across the workloads.
 *
 * @return One merged EngineResults per pointer count, in order.
 */
std::vector<coherence::EngineResults>
limitedSweep(const std::vector<gen::WorkloadConfig> &cfgs,
             const std::vector<unsigned> &pointerCounts,
             const EvalOptions &opts = EvalOptions{});

/**
 * Run the invalidation engine shadowing a real directory organisation,
 * merged across workloads; the result's dir* counters report what that
 * organisation would have sent.
 */
coherence::EngineResults
invalWithDirectory(const std::vector<gen::WorkloadConfig> &cfgs,
                   const directory::DirEntryFactory &factory,
                   const EvalOptions &opts = EvalOptions{});

/**
 * Run the real Berkeley Ownership engine, merged across workloads
 * (the clean/dirty miss split differs from the invalidation model
 * because ownership persists across read misses).
 */
coherence::EngineResults
berkeleyResults(const std::vector<gen::WorkloadConfig> &cfgs,
                const EvalOptions &opts = EvalOptions{});

/**
 * Run the invalidation engine with finite caches of the given
 * geometry, merged across workloads.
 */
coherence::EngineResults
invalWithFiniteCaches(const std::vector<gen::WorkloadConfig> &cfgs,
                      const mem::CacheGeometry &geometry,
                      const EvalOptions &opts = EvalOptions{});

/**
 * Run the invalidation engine behind a finite directory cache,
 * merged across workloads.  Equivalent to setting opts.dirCache but
 * keeps call sites that sweep cache sizes compact.
 */
coherence::EngineResults
invalWithDirCache(const std::vector<gen::WorkloadConfig> &cfgs,
                  const directory::DirCacheConfig &dirCache,
                  const EvalOptions &opts = EvalOptions{});

/**
 * Run the DiriNB engine behind a finite directory cache, merged
 * across workloads.
 */
coherence::EngineResults
limitedWithDirCache(const std::vector<gen::WorkloadConfig> &cfgs,
                    unsigned nPointers,
                    const directory::DirCacheConfig &dirCache,
                    const EvalOptions &opts = EvalOptions{});

} // namespace dirsim::analysis

#endif // DIRSIM_ANALYSIS_EVALUATION_HH
