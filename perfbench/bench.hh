/**
 * @file
 * Shared pieces of the dirsim benchmark's instance runner.
 *
 * One `dirsim_bench` process runs one workload instance (see
 * README.md): it builds its own inputs from the seed, calls the
 * dirsim libraries only through their public headers, and prints one
 * JSON line with raw timestamps, peak RSS and check counts.  run.py
 * turns those lines into the benchmark's metrics.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "coherence/results.hh"
#include "timing/timed_bus.hh"

namespace perfbench
{

/** Seconds on the system-wide monotonic clock (CLOCK_MONOTONIC on
 *  Linux), so the parent can subtract its own spawn timestamp. */
double now();
/** User + system CPU seconds of the whole process so far. */
double cpuSeconds();
/** @p s as a JSON string literal. */
std::string jsonString(const std::string &s);

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    bool trace = false;
    bool tiny = false;
    /** Fresh directory the instance writes its outputs into. */
    std::string outDir;
    /** Digest table to compare against (empty: invariants only). */
    std::string expected;
    /** Write this run's digests here (to refresh the table). */
    std::string record;
    unsigned jobs = 4;
};

/** One recorded span; parent 0 is the root. */
struct SpanRecord
{
    int id = 0;
    int parent = 0;
    std::string name;
    std::string label;
    double start = 0.0;
    double end = 0.0;
    /** Process CPU seconds over the span (main-thread spans only). */
    double cpu = -1.0;
    std::map<std::string, double> counters;
};

/**
 * In-memory span log, written out once at the end of a traced run.
 * When disabled every call is a no-op, so untraced runs pay only a
 * branch per call.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : _enabled(enabled) {}

    bool enabled() const { return _enabled; }
    int open(const std::string &name, const std::string &label,
             int parent);
    void close(int id, double cpu,
               const std::map<std::string, double> &counters);
    void counter(int id, const std::string &name, double value);
    /** Write every span as JSON to @p path. */
    void write(const std::string &path) const;

  private:
    bool _enabled;
    mutable std::mutex _mutex;
    std::vector<SpanRecord> _spans;
};

/**
 * RAII span.  Main-thread spans nest through a thread-local current
 * span and also record process CPU time and TraceRepository counter
 * deltas; worker-thread spans name their parent explicitly and record
 * only their interval.
 */
class Span
{
  public:
    Span(Tracer &tracer, const std::string &name,
         const std::string &label = {});
    Span(Tracer &tracer, const std::string &name,
         const std::string &label, int parent);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    int id() const { return _id; }
    void counter(const std::string &name, double value);

  private:
    Tracer &_tracer;
    int _id = 0;
    int _prev = 0;
    bool _nested = false;
    double _cpu0 = 0.0;
    std::map<std::string, double> _repo0;
};

/** FNV-1a 64 of @p text (run.py computes the same for files). */
std::uint64_t fnv1a(const std::string &text);
/** Canonical text of every counter and histogram of @p r. */
std::string canonical(const dirsim::coherence::EngineResults &r);
/** Canonical text of every field of @p run, engine results included. */
std::string canonical(const dirsim::timing::TimedRun &run);

/**
 * Counts checked results and failures.  A result fails when an
 * invariant it must satisfy for every input does not hold, or when a
 * digest table is loaded, the result is comparable at this seed, and
 * its digest differs from (or is missing in) the table.
 */
class Checker
{
  public:
    Checker(const std::string &expectedPath, bool defaultSeed);

    /**
     * @param seedIndependent The result does not depend on the
     *        workload seed, so it is compared at every seed.
     * @param problems Invariant violations found for this result.
     */
    void result(const std::string &name, const std::string &text,
                bool seedIndependent,
                const std::vector<std::string> &problems = {});
    /** Invariants every EngineResults satisfies: the event counts sum
     *  to the references consumed, which must equal @p refs. */
    static std::vector<std::string>
    engineProblems(const dirsim::coherence::EngineResults &r,
                   std::uint64_t refs);

    std::uint64_t attempted() const { return _attempted; }
    std::uint64_t failed() const { return _failures.size(); }
    const std::vector<std::string> &failures() const
    {
        return _failures;
    }
    /** Write every digest computed so far as a digest table. */
    void record(const std::string &path) const;

  private:
    bool _compare = false;
    bool _defaultSeed;
    std::map<std::string, std::uint64_t> _expected;
    std::vector<std::pair<std::string, std::uint64_t>> _seen;
    std::uint64_t _attempted = 0;
    std::vector<std::string> _failures;
};

/** What a workload hands back to main(). */
struct Context
{
    Context(const Options &o, Tracer &t, Checker &c)
        : opts(o), tracer(t), checker(c)
    {
    }

    const Options &opts;
    Tracer &tracer;
    Checker &checker;
    /** Start of the first result-producing call (0 until then). */
    double firstResult = 0.0;
    /** End of the workload; checks run after it. */
    double end = 0.0;
    /** Peak RSS sampled at the end, before the checks. */
    long peakRssKiB = 0;
    /** Engine-references consumed, once per engine or lane. */
    std::uint64_t engineRefs = 0;
    /** Span over the whole workload; finish() closes it. */
    std::optional<Span> root;

    void markFirstResult()
    {
        if (firstResult == 0.0)
            firstResult = now();
    }
    /** Stamp the end of the workload and sample peak RSS. */
    void finish();
};

void runCampaign(Context &ctx);
void runSweep(Context &ctx, bool streamed);
void runTimedContention(Context &ctx);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
