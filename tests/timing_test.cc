/**
 * @file
 * Tests for the timed bus subsystem.
 *
 * The load-bearing property: with one CPU the bus is free at every
 * request, so the timed simulator's total bus-busy cycles equal the
 * static cost model's total *exactly* — integer cycle for integer
 * cycle — for every scheme × workload × bus organisation.  On top of
 * that: the cycles-equal-static invariant holds for any CPU count
 * (per-reference charges sum to the aggregate), runs are
 * deterministic, timed sweeps are bit-identical across worker counts,
 * utilization grows with CPU count, and the arbitration disciplines
 * behave per their contracts (including fixed-priority starvation).
 * Two oracles are kept here: the snapshot charger, which recovers
 * each reference's charge by diffing EngineResults across one
 * access(), and the binary-heap event loop that drove it.  The
 * engines' per-reference outcomes must charge exactly what the
 * snapshot charger does, and the wave-batched, calendar-driven
 * TimedBusSim must match the heap loop bit for bit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bus/bus_model.hh"
#include "coherence/berkeley_engine.hh"
#include "coherence/dragon_engine.hh"
#include "coherence/inval_engine.hh"
#include "coherence/limited_engine.hh"
#include "coherence/outcome.hh"
#include "directory/dir_cache.hh"
#include "gen/workload.hh"
#include "gen/workloads.hh"
#include "mem/set_assoc.hh"
#include "sim/cost_model.hh"
#include "sim/simulator.hh"
#include "timing/arbiter.hh"
#include "timing/event_queue.hh"
#include "timing/sweep.hh"
#include "timing/timed_bus.hh"
#include "timing/transactions.hh"
#include "trace/prepared.hh"
#include "trace/store.hh"
#include "trace/trace.hh"

namespace
{

using namespace dirsim;

const std::vector<sim::Scheme> allSchemes = {
    sim::Scheme::Dir1NB,    sim::Scheme::DirINB,
    sim::Scheme::Dir0B,     sim::Scheme::DirNNBSeq,
    sim::Scheme::DirIB,     sim::Scheme::WTI,
    sim::Scheme::Dragon,    sim::Scheme::Berkeley,
    sim::Scheme::YenFu,     sim::Scheme::BerkeleyOwn,
    sim::Scheme::MESI,
};

/**
 * The engine each scheme is costed from: the engineKindFor() mapping,
 * with BerkeleyOwn on the real ownership engine the way the Section 5
 * exhibit (sec5_berkeley) pairs them.
 */
std::unique_ptr<coherence::CoherenceEngine>
engineFor(sim::Scheme scheme, unsigned units, unsigned nPointers)
{
    if (scheme == sim::Scheme::BerkeleyOwn)
        return std::make_unique<coherence::BerkeleyEngine>(units);
    switch (sim::engineKindFor(scheme)) {
      case sim::EngineKind::Limited:
        return std::make_unique<coherence::LimitedEngine>(
            units, scheme == sim::Scheme::Dir1NB ? 1 : nPointers);
      case sim::EngineKind::Dragon:
        return std::make_unique<coherence::DragonEngine>(units);
      case sim::EngineKind::Berkeley:
        return std::make_unique<coherence::BerkeleyEngine>(units);
      case sim::EngineKind::Inval:
      default: {
        coherence::InvalEngineConfig cfg;
        cfg.nUnits = units;
        return std::make_unique<coherence::InvalEngine>(cfg);
      }
    }
}

/** Cost options exercising pointers, broadcast and q-overhead. */
sim::CostOptions
testOpts()
{
    sim::CostOptions opts;
    opts.nPointers = 2;
    opts.broadcastCost = 4.0;
    opts.overheadQ = 1.0;
    return opts;
}

/**
 * Small standard workloads squeezed onto one CPU.  A short quantum
 * keeps all four processes interleaving (and therefore sharing) even
 * though a single processor issues every reference.
 */
std::vector<gen::WorkloadConfig>
oneCpuWorkloads()
{
    auto cfgs = gen::standardWorkloads();
    for (auto &cfg : cfgs) {
        cfg.totalRefs = 30'000;
        cfg.space.nCpus = 1;
        cfg.quantumRefs = 500;
    }
    return cfgs;
}

timing::TimedBusConfig
timedConfig(sim::Scheme scheme, const timing::TimedBusModel &bus,
            timing::Discipline d = timing::Discipline::FCFS)
{
    timing::TimedBusConfig cfg;
    cfg.scheme = scheme;
    cfg.costOpts = testOpts();
    cfg.bus = bus;
    cfg.discipline = d;
    return cfg;
}

timing::TimedRun
runTimed(const timing::TimedBusConfig &cfg,
         const gen::WorkloadConfig &workload)
{
    timing::TimedBusSim sim(
        cfg, engineFor(cfg.scheme, workload.space.nProcesses,
                       cfg.costOpts.nPointers));
    gen::WorkloadSource source(workload);
    return sim.run(source);
}

// --- Event calendar --------------------------------------------------

/** Consume the lowest-index CPU due this cycle: a one-CPU wave. */
bool
popCpu(timing::CycleCalendar &calendar, unsigned &cpu)
{
    std::vector<std::uint64_t> wave(calendar.maskWords());
    if (!calendar.takeWave(wave.data(), true))
        return false;
    for (unsigned w = 0; w < wave.size(); ++w) {
        if (wave[w] != 0) {
            EXPECT_EQ(wave[w] & (wave[w] - 1), 0u) << "one CPU only";
            cpu = w * 64 + unsigned(std::countr_zero(wave[w]));
            return true;
        }
    }
    ADD_FAILURE() << "takeWave returned an empty wave";
    return false;
}

TEST(CycleCalendarTest, CompletionPrecedesSameCycleReadies)
{
    timing::CycleCalendar calendar(4, 2);
    calendar.scheduleCpu(0, 3);
    calendar.scheduleBus(0);
    ASSERT_TRUE(calendar.advance());
    EXPECT_EQ(calendar.now(), 0u);
    EXPECT_TRUE(calendar.takeBusCompletion());
    EXPECT_FALSE(calendar.takeBusCompletion());
    unsigned cpu = 0;
    ASSERT_TRUE(popCpu(calendar, cpu));
    EXPECT_EQ(cpu, 3u);
    EXPECT_FALSE(popCpu(calendar, cpu));
    EXPECT_FALSE(calendar.advance());
}

TEST(CycleCalendarTest, ReadiesPopInIndexOrder)
{
    // Three mask words, so the walk crosses word boundaries.
    timing::CycleCalendar calendar(150, 2);
    for (const unsigned c : {149u, 5u, 64u, 0u, 63u, 128u})
        calendar.scheduleCpu(2, c);
    calendar.scheduleCpu(1, 7);
    calendar.scheduleBus(9);

    std::vector<std::pair<std::uint64_t, unsigned>> order;
    while (calendar.advance()) {
        if (calendar.takeBusCompletion())
            order.emplace_back(calendar.now(), ~0u);
        unsigned cpu;
        while (popCpu(calendar, cpu))
            order.emplace_back(calendar.now(), cpu);
    }
    const std::vector<std::pair<std::uint64_t, unsigned>> expected = {
        {1, 7},  {2, 0},   {2, 5},   {2, 63},
        {2, 64}, {2, 128}, {2, 149}, {9, ~0u}};
    EXPECT_EQ(order, expected);
}

TEST(CycleCalendarTest, ReArmAtCurrentCycleDeliveredSameCycle)
{
    timing::CycleCalendar calendar(8, 3);
    calendar.scheduleCpu(0, 2);
    calendar.scheduleCpu(0, 5);
    ASSERT_TRUE(calendar.advance());

    // CPU 2 re-arms itself at the current cycle twice, then three
    // cycles ahead; it keeps its index place ahead of CPU 5.
    std::vector<unsigned> delivered;
    unsigned cpu;
    unsigned rearms = 0;
    while (popCpu(calendar, cpu)) {
        delivered.push_back(cpu);
        if (cpu == 2)
            calendar.scheduleCpu(rearms++ < 2 ? 0 : 3, 2);
    }
    EXPECT_EQ(delivered, (std::vector<unsigned>{2, 2, 2, 5}));

    ASSERT_TRUE(calendar.advance());
    EXPECT_EQ(calendar.now(), 3u);
    ASSERT_TRUE(popCpu(calendar, cpu));
    EXPECT_EQ(cpu, 2u);
    EXPECT_FALSE(calendar.advance());
}

TEST(CycleCalendarTest, WaveTakesTheWholeCycleAndMaskRearms)
{
    // Two mask words: one wave takes both, and scheduleMask re-arms
    // the chosen CPUs later with one mask, clearing it.
    timing::CycleCalendar calendar(100, 2);
    for (const unsigned c : {3u, 64u, 99u})
        calendar.scheduleCpu(0, c);
    calendar.scheduleCpu(1, 7);
    ASSERT_TRUE(calendar.advance());
    std::vector<std::uint64_t> wave(calendar.maskWords());
    ASSERT_TRUE(calendar.takeWave(wave.data(), false));
    EXPECT_EQ(wave, (std::vector<std::uint64_t>{
                        std::uint64_t(1) << 3,
                        (std::uint64_t(1) << 0) | (std::uint64_t(1) << 35)}));
    EXPECT_FALSE(calendar.takeWave(wave.data(), false));

    std::vector<std::uint64_t> carry = {std::uint64_t(1) << 3,
                                        std::uint64_t(1) << 35};
    calendar.scheduleMask(2, carry.data());
    EXPECT_EQ(carry, (std::vector<std::uint64_t>{0, 0}));
    std::vector<std::pair<std::uint64_t, unsigned>> order;
    unsigned cpu;
    while (calendar.advance())
        while (popCpu(calendar, cpu))
            order.emplace_back(calendar.now(), cpu);
    const std::vector<std::pair<std::uint64_t, unsigned>> expected = {
        {1, 7}, {2, 3}, {2, 99}};
    EXPECT_EQ(order, expected);
}

TEST(CycleCalendarTest, ClockSkipsIdleCyclesToTheBusCompletion)
{
    timing::CycleCalendar calendar(2, 2);
    calendar.scheduleBus(1000);
    ASSERT_TRUE(calendar.advance());
    EXPECT_EQ(calendar.now(), 1000u);
    EXPECT_TRUE(calendar.takeBusCompletion());

    // A wake-up inside the horizon beats a later completion, and ring
    // slots are reused across the wrap.
    calendar.scheduleCpu(1002, 1);
    calendar.scheduleBus(1003);
    ASSERT_TRUE(calendar.advance());
    EXPECT_EQ(calendar.now(), 1002u);
    EXPECT_FALSE(calendar.takeBusCompletion());
    unsigned cpu;
    ASSERT_TRUE(popCpu(calendar, cpu));
    EXPECT_EQ(cpu, 1u);
    ASSERT_TRUE(calendar.advance());
    EXPECT_EQ(calendar.now(), 1003u);
    EXPECT_TRUE(calendar.takeBusCompletion());
    EXPECT_FALSE(popCpu(calendar, cpu));
}

// --- Arbiters --------------------------------------------------------

timing::BusRequest
req(unsigned cpu, std::uint64_t arrival, std::uint64_t seq)
{
    timing::BusRequest r;
    r.cpu = cpu;
    r.arrival = arrival;
    r.seq = seq;
    r.busCycles = 1;
    return r;
}

TEST(ArbiterTest, FcfsGrantsOldestThenIssueOrder)
{
    const auto arb =
        timing::BusArbiter::make(timing::Discipline::FCFS, 4);
    EXPECT_EQ(arb->discipline(), timing::Discipline::FCFS);
    const std::vector<timing::BusRequest> waiting = {
        req(2, 5, 10), req(0, 3, 11), req(1, 3, 9)};
    // Earliest arrival is cycle 3; the tie breaks on issue order.
    EXPECT_EQ(arb->pick(waiting), 2u);
}

TEST(ArbiterTest, RoundRobinRotatesAfterLastGrantee)
{
    const auto arb =
        timing::BusArbiter::make(timing::Discipline::RoundRobin, 4);
    // Initial state: priority starts at cpu 0.
    std::vector<timing::BusRequest> waiting = {req(2, 0, 0),
                                               req(0, 0, 1)};
    EXPECT_EQ(arb->pick(waiting), 1u); // cpu 0
    arb->granted(0);
    // Priority now starts at cpu 1, so cpu 2 beats cpu 0.
    EXPECT_EQ(arb->pick(waiting), 0u); // cpu 2
    arb->granted(2);
    // Priority starts at cpu 3 and wraps: cpu 0 beats cpu 2.
    EXPECT_EQ(arb->pick(waiting), 1u);
    // reset() restores the initial rotation.
    arb->reset();
    EXPECT_EQ(arb->pick(waiting), 1u); // cpu 0 again
}

TEST(ArbiterTest, FixedPriorityGrantsLowestCpu)
{
    const auto arb = timing::BusArbiter::make(
        timing::Discipline::FixedPriority, 4);
    const std::vector<timing::BusRequest> waiting = {
        req(3, 0, 0), req(1, 7, 1), req(2, 2, 2)};
    // Arrival times are ignored entirely.
    EXPECT_EQ(arb->pick(waiting), 1u);
}

TEST(ArbiterTest, NamesRoundTripAndGarbageThrows)
{
    for (const auto d :
         {timing::Discipline::FCFS, timing::Discipline::RoundRobin,
          timing::Discipline::FixedPriority})
        EXPECT_EQ(timing::parseDiscipline(timing::disciplineName(d)),
                  d);
    EXPECT_THROW(timing::parseDiscipline("lifo"),
                 std::invalid_argument);
    EXPECT_THROW(timing::BusArbiter::make(timing::Discipline::FCFS, 0),
                 std::invalid_argument);
}

// --- Transaction model validation ------------------------------------

TEST(TransactionModelTest, RejectsNonIntegerCycleOptions)
{
    const auto bus = bus::standardBuses().pipelined;
    sim::CostOptions opts;
    opts.broadcastCost = 2.5;
    EXPECT_THROW(
        timing::TransactionModel(sim::Scheme::DirIB, bus, opts),
        std::invalid_argument);
    opts.broadcastCost = 4.0;
    opts.overheadQ = 0.1;
    EXPECT_THROW(
        timing::TransactionModel(sim::Scheme::Dir0B, bus, opts),
        std::invalid_argument);
    opts.overheadQ = -1.0;
    EXPECT_THROW(
        timing::TransactionModel(sim::Scheme::Dir0B, bus, opts),
        std::invalid_argument);
}

// --- Zero-contention equivalence (the anchor) ------------------------

/**
 * One CPU, every scheme, every bus organisation, all three standard
 * workloads: the timed run must degenerate to the static cost model —
 * identical engine statistics, exactly equal integer bus cycles, and
 * a per-reference cost matching computeCost().total() to fp noise.
 */
TEST(ZeroContentionTest, TimedRunEqualsStaticCostModel)
{
    const auto opts = testOpts();
    const std::vector<timing::TimedBusModel> buses = {
        timing::timedPipelinedBus(), timing::timedNonPipelinedBus()};

    for (const auto &workload : oneCpuWorkloads()) {
        for (const sim::Scheme scheme : allSchemes) {
            // Untimed reference run of the same stream.
            sim::Simulator untimed;
            auto &engine = untimed.addEngine(engineFor(
                scheme, workload.space.nProcesses, opts.nPointers));
            gen::WorkloadSource source(workload);
            untimed.run(source);

            for (const auto &bus : buses) {
                const timing::TimedRun run =
                    runTimed(timedConfig(scheme, bus), workload);
                const std::string label = run.scheme + " / " +
                                          run.bus + " / " +
                                          workload.name;

                ASSERT_EQ(run.nCpus, 1u) << label;
                EXPECT_EQ(run.refs, workload.totalRefs) << label;

                // Same interleaving -> identical engine statistics.
                EXPECT_TRUE(run.engine == engine.results()) << label;

                // The integer-exact equivalence.
                EXPECT_EQ(run.busBusyCycles,
                          timing::staticBusCycles(scheme, run.engine,
                                                  bus.costs, opts))
                    << label;

                // And the continuous model agrees per reference.
                const double static_total =
                    sim::computeCost(scheme, run.engine, bus.costs,
                                     opts)
                        .total();
                EXPECT_NEAR(run.busCyclesPerRef(), static_total, 1e-9)
                    << label;

                // A lone CPU never queues.
                EXPECT_EQ(run.queueDelay.maxValue(), 0u) << label;
                EXPECT_EQ(run.meanQueueDelay(), 0.0) << label;
                EXPECT_EQ(run.p95QueueDelay(), 0.0) << label;
                EXPECT_EQ(run.queueDelay.totalSamples(),
                          run.transactions)
                    << label;
            }
        }
    }
}

// --- Contended runs --------------------------------------------------

gen::WorkloadConfig
fourCpuWorkload()
{
    auto cfg = gen::standardWorkloads()[0];
    cfg.totalRefs = 30'000;
    return cfg;
}

/** An invalidation engine with small two-way set-associative caches,
 *  so replacements (and dirty write-backs) happen often. */
std::unique_ptr<coherence::CoherenceEngine>
finiteInvalEngine(unsigned units)
{
    coherence::InvalEngineConfig cfg;
    cfg.nUnits = units;
    cfg.cacheFactory = [] {
        mem::CacheGeometry geometry;
        geometry.capacityBytes = 4 * 1024;
        geometry.blockBytes = 16;
        geometry.ways = 2;
        return std::make_unique<mem::SetAssocTagStore>(geometry);
    };
    return std::make_unique<coherence::InvalEngine>(cfg);
}

/**
 * Bus-busy cycles equal the static aggregate of *this run's* engine
 * statistics at any CPU count — per-reference charges sum to the
 * whole-run total no matter how the streams interleave.  Besides each
 * scheme's own engine, every invalidation-kind scheme also runs on
 * finite caches, whose replacement write-backs fold into tenures.
 */
TEST(ContentionTest, BusCyclesMatchStaticAggregateAtAnyCpuCount)
{
    const auto workload = fourCpuWorkload();
    const auto opts = testOpts();
    const std::vector<timing::TimedBusModel> buses = {
        timing::timedPipelinedBus(), timing::timedNonPipelinedBus()};

    std::vector<std::pair<sim::Scheme, bool>> inputs;
    for (const sim::Scheme scheme : allSchemes) {
        inputs.emplace_back(scheme, false);
        if (sim::engineKindFor(scheme) == sim::EngineKind::Inval)
            inputs.emplace_back(scheme, true);
    }
    for (const auto &[scheme, finite] : inputs) {
        for (const auto &bus : buses) {
            timing::TimedRun run;
            if (finite) {
                timing::TimedBusSim sim(timedConfig(scheme, bus),
                                        finiteInvalEngine(
                                            workload.space.nProcesses));
                gen::WorkloadSource source(workload);
                run = sim.run(source);
                EXPECT_GT(run.engine.replacementWriteBacks, 0u);
            } else {
                run = runTimed(timedConfig(scheme, bus), workload);
            }
            const std::string label = run.scheme + " / " + run.bus +
                                      (finite ? " / finite" : "");

            EXPECT_EQ(run.nCpus, 4u) << label;
            EXPECT_EQ(run.busBusyCycles,
                      timing::staticBusCycles(scheme, run.engine,
                                              bus.costs, opts))
                << label;

            // Structural sanity.
            EXPECT_GE(run.makespan, run.busBusyCycles) << label;
            EXPECT_LE(run.busUtilization(), 1.0 + 1e-12) << label;
            EXPECT_EQ(run.queueDelay.totalSamples(), run.transactions)
                << label;
            std::uint64_t refs = 0, txns = 0;
            for (const auto &cpu : run.cpus) {
                refs += cpu.refs;
                txns += cpu.transactions;
            }
            EXPECT_EQ(refs, run.refs) << label;
            EXPECT_EQ(txns, run.transactions) << label;
        }
    }
}

TEST(ContentionTest, RunsAreDeterministic)
{
    const auto workload = fourCpuWorkload();
    const auto cfg = timedConfig(sim::Scheme::Dir0B,
                                 timing::timedPipelinedBus(),
                                 timing::Discipline::RoundRobin);
    const timing::TimedRun a = runTimed(cfg, workload);
    const timing::TimedRun b = runTimed(cfg, workload);
    EXPECT_TRUE(a.identicalTo(b));
}

TEST(ContentionTest, UtilizationGrowsWithCpuCount)
{
    std::vector<double> utilization;
    for (const unsigned n : {2u, 4u, 8u}) {
        const gen::WorkloadConfig workload =
            gen::scaledConfig(n, 10'000 * n);
        const timing::TimedRun run = runTimed(
            timedConfig(sim::Scheme::Dir0B,
                        timing::timedPipelinedBus()),
            workload);
        EXPECT_EQ(run.nCpus, n);
        utilization.push_back(run.busUtilization());
    }
    EXPECT_GT(utilization[0], 0.0);
    EXPECT_GT(utilization[1], utilization[0]);
    EXPECT_GE(utilization[2], utilization[1]);
}

/**
 * Under load, fixed priority starves the high-index CPUs while FCFS
 * spreads the delay; the per-CPU stall distributions must differ
 * measurably.  WTI at eight CPUs keeps the bus saturated.
 */
TEST(ContentionTest, DisciplinesShapeStallDistributions)
{
    const gen::WorkloadConfig workload = gen::scaledConfig(8, 60'000);

    const timing::TimedRun fcfs = runTimed(
        timedConfig(sim::Scheme::WTI, timing::timedPipelinedBus(),
                    timing::Discipline::FCFS),
        workload);
    const timing::TimedRun fixed = runTimed(
        timedConfig(sim::Scheme::WTI, timing::timedPipelinedBus(),
                    timing::Discipline::FixedPriority),
        workload);
    const timing::TimedRun rr = runTimed(
        timedConfig(sim::Scheme::WTI, timing::timedPipelinedBus(),
                    timing::Discipline::RoundRobin),
        workload);

    ASSERT_EQ(fcfs.nCpus, 8u);
    ASSERT_EQ(fixed.nCpus, 8u);

    // Fixed priority: the lowest-index CPU stalls least, the highest
    // most — the starvation the arbiter contract promises.
    EXPECT_GT(fixed.cpus.back().stallCycles,
              fixed.cpus.front().stallCycles);
    EXPECT_GT(fixed.cpus.back().stallFraction(),
              fcfs.cpus.back().stallFraction());

    // The disciplines are not relabelings of each other: per-CPU
    // stall patterns diverge.
    EXPECT_FALSE(fcfs.cpus == fixed.cpus);
    EXPECT_FALSE(fcfs.cpus == rr.cpus);
}

// --- Timed sweeps ----------------------------------------------------

std::vector<timing::TimedSweepPoint>
sweepPoints()
{
    std::vector<timing::TimedSweepPoint> points;
    for (const sim::Scheme scheme :
         {sim::Scheme::Dir0B, sim::Scheme::DirINB,
          sim::Scheme::Dragon}) {
        for (const auto d : {timing::Discipline::FCFS,
                             timing::Discipline::RoundRobin}) {
            timing::TimedSweepPoint point;
            point.config = timedConfig(
                scheme, timing::timedPipelinedBus(), d);
            point.name = sim::schemeName(scheme, 2) + "/" +
                         timing::disciplineName(d);
            point.engine = [scheme] {
                return engineFor(scheme, 4, 2);
            };
            point.source = [] {
                return std::make_unique<gen::WorkloadSource>(
                    fourCpuWorkload());
            };
            points.push_back(std::move(point));
        }
    }
    return points;
}

TEST(TimedSweepTest, ParallelSweepBitIdenticalToSerial)
{
    const auto serial = timing::runTimedSweep(sweepPoints(), 1);
    const auto parallel = timing::runTimedSweep(sweepPoints(), 4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        // Submission-ordered, labelled, and bit-identical.
        EXPECT_EQ(serial[i].name, parallel[i].name);
        EXPECT_TRUE(serial[i].identicalTo(parallel[i]))
            << serial[i].name;
    }
}

TEST(TimedSweepTest, PropagatesJobFailure)
{
    auto points = sweepPoints();
    // Too few engine units for the workload's four processes.
    points[0].engine = [] {
        return engineFor(sim::Scheme::Dir0B, 2, 2);
    };
    EXPECT_THROW(timing::runTimedSweep(points, 2),
                 std::runtime_error);
}

TEST(TimedSweepTest, RejectsPointWithoutFactories)
{
    std::vector<timing::TimedSweepPoint> points(1);
    EXPECT_THROW(timing::runTimedSweep(points, 1),
                 std::invalid_argument);
}

// --- Decode-once prepared replay -------------------------------------

/** @p workload prepared with timed per-CPU streams for @p cfg. */
std::shared_ptr<const trace::PreparedTrace>
prepareTimed(const gen::WorkloadConfig &workload,
             const timing::TimedBusConfig &cfg)
{
    const trace::MemoryTrace trace = gen::generateTrace(workload);
    trace::PrepareOptions prep;
    prep.blockBytes = cfg.sim.blockBytes;
    prep.domain = cfg.sim.domain;
    prep.timedStreams = true;
    return std::make_shared<const trace::PreparedTrace>(
        trace::PreparedTrace::build(trace, prep));
}

/**
 * Replaying the prepared per-CPU streams must reproduce the raw
 * demux-per-run path field for field: same makespan, same bus cycles,
 * same per-CPU stats, same engine results.
 */
TEST(ContentionTest, PreparedReplayIdenticalToRaw)
{
    const auto workload = fourCpuWorkload();
    for (const sim::Scheme scheme :
         {sim::Scheme::Dir0B, sim::Scheme::Dragon,
          sim::Scheme::BerkeleyOwn}) {
        const auto cfg =
            timedConfig(scheme, timing::timedPipelinedBus());
        const timing::TimedRun raw = runTimed(cfg, workload);

        timing::TimedBusSim sim(
            cfg, engineFor(scheme, workload.space.nProcesses,
                           cfg.costOpts.nPointers));
        const timing::TimedRun prepared =
            sim.run(*prepareTimed(workload, cfg));
        EXPECT_TRUE(raw.identicalTo(prepared))
            << sim::schemeName(scheme, cfg.costOpts.nPointers);
    }
}

/** Prepared sweep points equal their source-factory twins. */
TEST(TimedSweepTest, PreparedPointsBitIdenticalToSourcePoints)
{
    const auto fromSource = timing::runTimedSweep(sweepPoints(), 1);

    auto points = sweepPoints();
    const auto prepared =
        prepareTimed(fourCpuWorkload(), points[0].config);
    for (auto &point : points) {
        point.source = nullptr;
        point.prepared = prepared;
    }
    const auto fromPrepared = timing::runTimedSweep(points, 2);

    ASSERT_EQ(fromSource.size(), fromPrepared.size());
    for (std::size_t i = 0; i < fromSource.size(); ++i)
        EXPECT_TRUE(fromSource[i].identicalTo(fromPrepared[i]))
            << fromSource[i].name;
}

TEST(ContentionTest, PreparedRunRejectsMismatchedDecode)
{
    const auto workload = fourCpuWorkload();
    const auto cfg =
        timedConfig(sim::Scheme::Dir0B, timing::timedPipelinedBus());

    // Decoded without timed streams: no per-CPU columns to replay.
    const trace::MemoryTrace trace = gen::generateTrace(workload);
    const auto untimed = trace::PreparedTrace::build(trace);
    timing::TimedBusSim sim(
        cfg, engineFor(sim::Scheme::Dir0B,
                       workload.space.nProcesses, 2));
    EXPECT_THROW(sim.run(untimed), std::invalid_argument);

    // Decoded for a different block size than the timed config.
    auto wrongCfg = cfg;
    wrongCfg.sim.blockBytes = 64;
    const auto wrongBlock = prepareTimed(workload, wrongCfg);
    EXPECT_THROW(sim.run(*wrongBlock), std::invalid_argument);
}

// --- Differential oracle: the snapshot charger ------------------------

/**
 * The per-reference charger the outcome path replaced, kept here as
 * an oracle: it recovers a reference's event, fanout k and aux deltas
 * by diffing the engine's EngineResults across exactly one access()
 * call, then applies the same sim::ChargeTable row.  It never sees a
 * RefOutcome, so it checks the engines' sink reporting as well as
 * TransactionModel::charge().
 */
class SnapshotCharger
{
  public:
    SnapshotCharger(sim::Scheme scheme, const bus::BusCosts &bus,
                    const sim::CostOptions &opts)
        : _nPointers(opts.nPointers),
          _overheadQ(static_cast<std::uint32_t>(opts.overheadQ))
    {
        const auto broadcast =
            static_cast<std::uint32_t>(opts.broadcastCost);
        const sim::ChargeTable &table =
            sim::chargeTable(scheme, _nPointers);
        for (std::size_t e = 0; e < coherence::numEvents; ++e) {
            Row &row = _rows[e];
            const sim::Fanout fanout =
                sim::fanoutOf(static_cast<coherence::Event>(e));
            row.fanout =
                fanout == nullptr                                  ? 0
                : fanout == &coherence::EngineResults::whClnFanout ? 1
                                                                   : 2;
            for (const sim::Tenure &terms : table.events[e]) {
                Tenure &tenure = row.tenures.at(row.count++);
                for (const sim::ChargeTerm &term : terms) {
                    const std::uint32_t cycles = bus.*term.op;
                    if (term.times == sim::Times::Once) {
                        tenure.fixed += cycles;
                    } else if (term.times == sim::Times::Copies) {
                        tenure.perCopy += cycles;
                    } else {
                        tenure.perPointer += cycles;
                        tenure.broadcast += broadcast;
                    }
                    tenure.usesMemory |=
                        term.op == &bus::BusCosts::memoryAccess;
                }
            }
        }
        for (const sim::AuxRule &rule : table.aux)
            _aux.push_back({rule.counter, bus.*rule.term.op,
                            rule.counted});
        _auxCounts.assign(_aux.size(), 0);
    }

    /** Diff @p r against the snapshot taken at the previous call. */
    timing::RefCharge
    charge(const coherence::EngineResults &r)
    {
        EXPECT_EQ(r.events.totalRefs(), _totalRefs + 1)
            << "charge() must follow exactly one engine access()";
        ++_totalRefs;

        // Exactly one event is recorded per reference; find it.
        std::size_t event = coherence::numEvents;
        for (std::size_t i = 0; i < coherence::numEvents; ++i) {
            const auto e = static_cast<coherence::Event>(i);
            if (r.events.count(e) != _events[i]) {
                event = i;
                ++_events[i];
                break;
            }
        }
        EXPECT_LT(event, coherence::numEvents);
        if (event == coherence::numEvents)
            return {};

        const std::uint64_t wh = r.whClnFanout.totalWeight();
        const std::uint64_t wm = r.wmClnFanout.totalWeight();
        const std::uint64_t copies[3] = {0, wh - _whWeight,
                                         wm - _wmWeight};
        _whWeight = wh;
        _wmWeight = wm;

        timing::RefCharge out;
        const auto emit = [&](std::uint64_t cycles, bool usesMemory,
                              bool counted) {
            if (counted)
                cycles += _overheadQ;
            if (cycles == 0)
                return;
            out.add(static_cast<std::uint32_t>(cycles), usesMemory,
                    counted);
        };
        const Row &row = _rows[event];
        const std::uint64_t k = copies[row.fanout];
        for (unsigned t = 0; t < row.count; ++t) {
            const Tenure &tenure = row.tenures[t];
            emit(tenure.fixed + k * tenure.perCopy +
                     (k <= _nPointers ? k * tenure.perPointer
                                      : tenure.broadcast),
                 tenure.usesMemory, true);
        }
        for (std::size_t a = 0; a < _aux.size(); ++a) {
            const std::uint64_t now = r.*_aux[a].counter;
            const std::uint64_t cycles =
                (now - _auxCounts[a]) * _aux[a].cycles;
            _auxCounts[a] = now;
            if (cycles == 0)
                continue;
            if (_aux[a].counted)
                emit(cycles, false, true);
            else if (out.count != 0)
                out.txns[out.count - 1].busCycles +=
                    static_cast<std::uint32_t>(cycles);
            else
                emit(cycles, false, false);
        }
        return out;
    }

  private:
    struct Tenure
    {
        std::uint32_t fixed = 0;
        std::uint32_t perCopy = 0;
        std::uint32_t perPointer = 0;
        std::uint32_t broadcast = 0;
        bool usesMemory = false;
    };
    struct Row
    {
        std::array<Tenure, 2> tenures;
        std::uint8_t count = 0;
        std::uint8_t fanout = 0; //!< 0 none, 1 wh, 2 wm.
    };
    struct Aux
    {
        std::uint64_t coherence::EngineResults::*counter;
        std::uint32_t cycles;
        bool counted;
    };

    unsigned _nPointers;
    std::uint32_t _overheadQ;
    std::array<Row, coherence::numEvents> _rows;
    std::vector<Aux> _aux;
    std::array<std::uint64_t, coherence::numEvents> _events{};
    std::uint64_t _totalRefs = 0;
    std::uint64_t _whWeight = 0;
    std::uint64_t _wmWeight = 0;
    std::vector<std::uint64_t> _auxCounts;
};

std::string
describe(const timing::RefCharge &charge)
{
    std::string out = "{";
    for (unsigned t = 0; t < charge.count; ++t)
        out += " " + std::to_string(charge.txns[t].busCycles) +
               (charge.txns[t].usesMemory ? "m" : "") +
               (charge.txns[t].counted ? "" : "u");
    return out + " }";
}

/**
 * Replays @p prepared's per-CPU streams round-robin, one reference
 * per CPU per wave, through two copies of one engine: @p outcomeEngine
 * one accessRecorded() call per wave, charged by TransactionModel, and
 * @p snapshotEngine one access() per reference, charged by the
 * snapshot oracle.  Every reference's charge must agree, and busFree()
 * must only ever claim references whose charge is empty.
 */
void
expectOutcomeChargesMatchSnapshot(
    sim::Scheme scheme, const sim::CostOptions &opts,
    const bus::BusCosts &bus, const trace::PreparedTrace &prepared,
    coherence::CoherenceEngine &outcomeEngine,
    coherence::CoherenceEngine &snapshotEngine, const std::string &label)
{
    const timing::TransactionModel model(scheme, bus, opts);
    SnapshotCharger oracle(scheme, bus, opts);
    outcomeEngine.reset();
    snapshotEngine.reset();

    const auto &streams = prepared.cpuStreams();
    std::vector<std::size_t> next(streams.size(), 0);
    std::vector<std::uint32_t> block(streams.size());
    std::vector<std::uint8_t> unit(streams.size()), typeFlags(streams.size());
    std::vector<coherence::RefOutcome> outcomes(streams.size());
    std::uint64_t refs = 0, tenures = 0, mismatches = 0;
    for (;;) {
        std::size_t n = 0;
        for (std::size_t cpu = 0; cpu < streams.size(); ++cpu) {
            if (next[cpu] == streams[cpu].size())
                continue;
            block[n] = streams[cpu].block[next[cpu]];
            unit[n] = streams[cpu].unit[next[cpu]];
            typeFlags[n] = streams[cpu].typeFlags[next[cpu]];
            ++next[cpu];
            ++n;
        }
        if (n == 0)
            break;
        outcomeEngine.accessRecorded(
            coherence::PreparedSlice{block.data(), unit.data(),
                                     typeFlags.data(), n},
            outcomes.data());
        for (std::size_t i = 0; i < n; ++i, ++refs) {
            snapshotEngine.access(unit[i],
                                  trace::packedRefType(typeFlags[i]),
                                  block[i]);
            const timing::RefCharge expected =
                oracle.charge(snapshotEngine.results());
            const timing::RefCharge got = model.charge(outcomes[i]);
            const bool same =
                describe(got) == describe(expected) &&
                (!model.busFree(outcomes[i]) || expected.empty());
            tenures += expected.count;
            if (!same && ++mismatches <= 3)
                ADD_FAILURE()
                    << label << ": reference " << refs << " charged "
                    << describe(got) << " (bus-free "
                    << model.busFree(outcomes[i]) << "), oracle "
                    << describe(expected);
        }
    }
    EXPECT_EQ(mismatches, 0u) << label;
    EXPECT_EQ(refs, prepared.totalRefs()) << label;
    EXPECT_GT(tenures, 0u) << label;
    EXPECT_TRUE(outcomeEngine.results() == snapshotEngine.results())
        << label;
}

/** @p workload decoded with timed per-CPU streams. */
trace::PreparedTrace
timedPrepared(const gen::WorkloadConfig &workload)
{
    trace::PrepareOptions prep;
    prep.timedStreams = true;
    return trace::PreparedTrace::build(gen::generateTrace(workload), prep);
}

/** Sixteen processes on sixteen CPUs: enough sharers that Dir2B's
 *  fanout passes i and broadcasts. */
gen::WorkloadConfig
sixteenCpuWorkload()
{
    return gen::scaledConfig(16, 16 * 1'500);
}

/**
 * Every scheme on the engine it is costed from (BerkeleyOwn on the
 * ownership engine), at i = 2 and 4, with and without overhead q, on
 * both buses: the outcome-driven charge equals the snapshot oracle
 * reference by reference.
 */
TEST(OutcomeChargeTest, EverySchemeMatchesSnapshotOracle)
{
    for (const auto &workload : {fourCpuWorkload(), sixteenCpuWorkload()}) {
        const trace::PreparedTrace prepared = timedPrepared(workload);
        const unsigned units = workload.space.nProcesses;
        for (const sim::Scheme scheme : allSchemes) {
            for (const unsigned i : {2u, 4u}) {
                for (const double q : {0.0, 1.0}) {
                    sim::CostOptions opts = testOpts();
                    opts.nPointers = i;
                    opts.overheadQ = q;
                    for (const auto &bus : {timing::timedPipelinedBus(),
                                            timing::timedNonPipelinedBus()}) {
                        const auto a = engineFor(scheme, units, i);
                        const auto b = engineFor(scheme, units, i);
                        expectOutcomeChargesMatchSnapshot(
                            scheme, opts, bus.costs, prepared, *a, *b,
                            sim::schemeName(scheme, i) + " / q " +
                                std::to_string(int(q)) + " / " +
                                bus.costs.name + " / " +
                                std::to_string(units) + " units");
                        // The aux rules the outcome must carry.
                        if (scheme == sim::Scheme::YenFu) {
                            EXPECT_GT(a->results().holderGrowth12, 0u);
                        }
                        if (scheme == sim::Scheme::DirIB && units > 4 &&
                            i == 2) {
                            const auto &r = a->results();
                            EXPECT_GT(std::max(r.whClnFanout.maxValue(),
                                               r.wmClnFanout.maxValue()),
                                      i)
                                << "no DiriB broadcast";
                        }
                        if (scheme == sim::Scheme::DirINB && i < units) {
                            EXPECT_GT(a->results().displacementInvals,
                                      0u);
                        }
                    }
                }
            }
        }
    }
}

/** Finite set-associative caches: replacement write-backs fold into
 *  the tenures of the references that cause them. */
TEST(OutcomeChargeTest, FiniteCachesMatchSnapshotOracle)
{
    const auto workload = fourCpuWorkload();
    const trace::PreparedTrace prepared = timedPrepared(workload);
    const unsigned units = workload.space.nProcesses;
    for (const sim::Scheme scheme : allSchemes) {
        if (sim::engineKindFor(scheme) != sim::EngineKind::Inval)
            continue;
        const auto a = finiteInvalEngine(units);
        const auto b = finiteInvalEngine(units);
        expectOutcomeChargesMatchSnapshot(
            scheme, testOpts(), bus::standardBuses().pipelined, prepared,
            *a, *b, sim::schemeName(scheme, 2) + " / finite");
        EXPECT_GT(a->results().replacementWriteBacks, 0u);
    }
}

/** A finite directory cache: eviction invalidates and dirty-victim
 *  write-backs, on the invalidation and the DiriNB engines. */
TEST(OutcomeChargeTest, DirectoryCacheMatchesSnapshotOracle)
{
    const auto workload = fourCpuWorkload();
    const trace::PreparedTrace prepared = timedPrepared(workload);
    const unsigned units = workload.space.nProcesses;
    directory::DirCacheConfig dirCache;
    dirCache.enabled = true;
    dirCache.entries = 64;
    dirCache.associativity = 4;
    const auto inval = [&] {
        coherence::InvalEngineConfig cfg;
        cfg.nUnits = units;
        cfg.dirCache = dirCache;
        return std::make_unique<coherence::InvalEngine>(cfg);
    };
    for (const sim::Scheme scheme : allSchemes) {
        std::unique_ptr<coherence::CoherenceEngine> a, b;
        switch (sim::engineKindFor(scheme)) {
          case sim::EngineKind::Inval:
            a = inval();
            b = inval();
            break;
          case sim::EngineKind::Limited: {
            const unsigned i = scheme == sim::Scheme::Dir1NB ? 1 : 2;
            a = std::make_unique<coherence::LimitedEngine>(units, i,
                                                           dirCache);
            b = std::make_unique<coherence::LimitedEngine>(units, i,
                                                           dirCache);
            break;
          }
          default:
            continue;
        }
        expectOutcomeChargesMatchSnapshot(
            scheme, testOpts(), bus::standardBuses().pipelined, prepared,
            *a, *b, sim::schemeName(scheme, 2) + " / dir cache");
        EXPECT_GT(a->results().dirCacheEvictionInvals, 0u);
        EXPECT_GT(a->results().dirCacheEvictionWriteBacks, 0u);
    }
}

// --- Differential oracle: the binary-heap event loop -----------------

/**
 * The event order the calendar replaced, kept here as an oracle: a
 * binary min-heap over (time, kind, cpu, schedule order), driven by
 * the original event loop.  Every TimedRun of TimedBusSim must match
 * it bit for bit.
 */
class HeapEventQueue
{
  public:
    enum class Kind : std::uint8_t { BusComplete = 0, CpuReady = 1 };

    struct Event
    {
        std::uint64_t time;
        Kind kind;
        unsigned cpu;
        std::uint64_t seq;
    };

    void
    push(std::uint64_t time, Kind kind, unsigned cpu)
    {
        _heap.push_back(Event{time, kind, cpu, _nextSeq++});
        std::push_heap(_heap.begin(), _heap.end(), after);
    }

    Event
    pop()
    {
        std::pop_heap(_heap.begin(), _heap.end(), after);
        const Event front = _heap.back();
        _heap.pop_back();
        return front;
    }

    std::uint64_t nextTime() const { return _heap.front().time; }
    bool empty() const { return _heap.empty(); }

  private:
    static bool
    after(const Event &a, const Event &b)
    {
        return std::tie(b.time, b.kind, b.cpu, b.seq) <
               std::tie(a.time, a.kind, a.cpu, a.seq);
    }

    std::vector<Event> _heap;
    std::uint64_t _nextSeq = 0;
};

timing::TimedRun
heapOracleRun(const timing::TimedBusConfig &cfg,
              coherence::CoherenceEngine &engine,
              const trace::PreparedTrace &prepared)
{
    using Kind = HeapEventQueue::Kind;
    SnapshotCharger model(cfg.scheme, cfg.bus.costs, cfg.costOpts);
    engine.reset();

    std::vector<trace::PreparedCpuStreamCursor> cursors;
    for (const trace::PreparedCpuStream &stream : prepared.cpuStreams())
        cursors.emplace_back(stream);
    std::vector<timing::RequestPort> ports;
    for (unsigned cpu = 0; cpu < cursors.size(); ++cpu)
        ports.emplace_back(cpu, &cursors[cpu]);
    const unsigned nCpus = static_cast<unsigned>(ports.size());

    timing::TimedRun result;
    result.scheme = sim::schemeName(cfg.scheme, cfg.costOpts.nPointers);
    result.bus = cfg.bus.costs.name;
    result.discipline = timing::disciplineName(cfg.discipline);
    result.nCpus = nCpus;
    const auto arbiter = timing::BusArbiter::make(cfg.discipline, nCpus);

    HeapEventQueue eq;
    std::vector<timing::BusRequest> waiters;
    bool busBusy = false;
    bool busUsesMemory = false;
    std::uint64_t reqSeq = 0;
    const auto issue = [&](timing::RequestPort &port,
                           std::uint64_t now) {
        const timing::TxnCharge &txn = port.nextTxn();
        waiters.push_back(timing::BusRequest{
            port.cpu(), now, reqSeq++, txn.busCycles, txn.usesMemory});
    };

    for (unsigned p = 0; p < nCpus; ++p)
        eq.push(0, Kind::CpuReady, p);
    while (!eq.empty()) {
        const std::uint64_t now = eq.nextTime();
        while (!eq.empty() && eq.nextTime() == now) {
            const HeapEventQueue::Event ev = eq.pop();
            timing::RequestPort &port = ports[ev.cpu];
            if (ev.kind == Kind::BusComplete) {
                busBusy = false;
                const std::uint64_t done =
                    now + (busUsesMemory ? cfg.bus.memExtraLatency : 0);
                if (!port.hasPendingTxn())
                    port.endStall(done);
                eq.push(done, Kind::CpuReady, ev.cpu);
                continue;
            }
            if (port.hasPendingTxn()) {
                issue(port, now);
                continue;
            }
            if (!port.hasMoreRefs()) {
                port.finish(now);
                continue;
            }
            const timing::PortRef ref = port.takeRef();
            engine.access(ref.unit, trace::packedRefType(ref.typeFlags),
                          ref.block);
            const timing::RefCharge charge =
                model.charge(engine.results());
            if (charge.empty()) {
                eq.push(now + cfg.cyclesPerRef, Kind::CpuReady, ev.cpu);
                continue;
            }
            port.beginStall(charge, now);
            issue(port, now);
        }
        if (!busBusy && !waiters.empty()) {
            const std::size_t pick = arbiter->pick(waiters);
            const timing::BusRequest req = waiters[pick];
            waiters.erase(waiters.begin() +
                          static_cast<std::ptrdiff_t>(pick));
            arbiter->granted(req.cpu);
            result.queueDelay.sample(
                static_cast<std::size_t>(now - req.arrival));
            ++result.transactions;
            result.busBusyCycles += req.busCycles;
            busBusy = true;
            busUsesMemory = req.usesMemory;
            eq.push(now + req.busCycles, Kind::BusComplete, req.cpu);
        }
    }

    for (const timing::RequestPort &port : ports) {
        result.refs += port.stats().refs;
        result.makespan =
            std::max(result.makespan, port.stats().finishCycle);
        result.cpus.push_back(port.stats());
    }
    result.engine = engine.results();
    return result;
}

/**
 * Holds TimedBusSim to the heap oracle over @p trace: every
 * discipline, both buses (memory wait off-bus and in the occupancy),
 * cyclesPerRef 0 (same-cycle re-arms), 1 and 3, each scheme, and the
 * stream both prepared in memory and stored in 1500-reference chunks.
 */
void
expectCalendarMatchesHeapOracle(const trace::MemoryTrace &trace,
                                unsigned nUnits,
                                const std::string &storeStem)
{
    trace::PrepareOptions prep;
    prep.timedStreams = true;
    const trace::PreparedTrace prepared =
        trace::PreparedTrace::build(trace, prep);

    struct PathGuard
    {
        std::string path;
        ~PathGuard() { std::remove(path.c_str()); }
    } file{testing::TempDir() + "dirsim-timing-" + storeStem + ".dspt"};
    trace::StoreWriteOptions wopts;
    wopts.chunkRefs = 1500;
    trace::writeStored(prepared, file.path, wopts);
    const auto stored = trace::StoredTrace::open(file.path);

    for (const sim::Scheme scheme :
         {sim::Scheme::Dir0B, sim::Scheme::WTI, sim::Scheme::Dragon,
          sim::Scheme::Dir1NB, sim::Scheme::DirINB}) {
        for (const auto &bus : {timing::timedPipelinedBus(),
                                timing::timedNonPipelinedBus()}) {
            for (const auto d : {timing::Discipline::FCFS,
                                 timing::Discipline::RoundRobin,
                                 timing::Discipline::FixedPriority}) {
                for (const unsigned cyclesPerRef : {0u, 1u, 3u}) {
                    timing::TimedBusConfig cfg =
                        timedConfig(scheme, bus, d);
                    cfg.cyclesPerRef = cyclesPerRef;
                    const std::string label =
                        sim::schemeName(scheme, 2) + " / " +
                        bus.costs.name + " / " +
                        timing::disciplineName(d) + " / cpr " +
                        std::to_string(cyclesPerRef);

                    const auto oracleEngine = engineFor(scheme, nUnits, 2);
                    const timing::TimedRun oracle =
                        heapOracleRun(cfg, *oracleEngine, prepared);
                    ASSERT_EQ(oracle.nCpus, prepared.numCpus()) << label;

                    timing::TimedBusSim sim(
                        cfg, engineFor(scheme, nUnits, 2));
                    EXPECT_TRUE(sim.run(prepared).identicalTo(oracle))
                        << label << " / prepared";
                    EXPECT_TRUE(sim.run(*stored).identicalTo(oracle))
                        << label << " / stored";
                }
            }
        }
    }
}

TEST(HeapOracleTest, OneCpu)
{
    auto workload = oneCpuWorkloads()[0];
    workload.totalRefs = 12'000;
    expectCalendarMatchesHeapOracle(gen::generateTrace(workload),
                                    workload.space.nProcesses, "one");
}

TEST(HeapOracleTest, FourCpus)
{
    auto workload = fourCpuWorkload();
    workload.totalRefs = 12'000;
    expectCalendarMatchesHeapOracle(gen::generateTrace(workload),
                                    workload.space.nProcesses, "four");
}

TEST(HeapOracleTest, ThirtyTwoCpus)
{
    const auto workload = gen::scaledConfig(32, 32 * 600);
    expectCalendarMatchesHeapOracle(gen::generateTrace(workload),
                                    workload.space.nProcesses, "n32");
}

/**
 * 72 CPUs (two mask words per cycle): an eight-process trace whose
 * processes hop across nine CPUs each.  Units stay per process, so
 * the engines' 64-unit limit is not in play.
 */
TEST(HeapOracleTest, SeventyTwoCpus)
{
    const auto workload = gen::scaledConfig(8, 8 * 2'000);
    const trace::MemoryTrace source = gen::generateTrace(workload);
    trace::TraceMeta meta = source.meta();
    meta.nCpus = 72;
    trace::MemoryTrace wide(meta);
    std::unordered_map<unsigned, unsigned> process;
    for (std::size_t i = 0; i < source.size(); ++i) {
        trace::TraceRecord rec = source[i];
        const unsigned p =
            process.try_emplace(rec.pid, unsigned(process.size()))
                .first->second;
        rec.cpu = static_cast<std::uint8_t>(p * 9 + (i / 97) % 9);
        wide.append(rec);
    }
    ASSERT_EQ(process.size(), 8u);
    expectCalendarMatchesHeapOracle(wide, workload.space.nProcesses,
                                    "n72");
}

// --- Configuration bounds --------------------------------------------

TEST(ContentionTest, RejectsWakeHorizonBeyondCalendarBound)
{
    const auto build = [](const timing::TimedBusConfig &cfg) {
        timing::TimedBusSim sim(cfg,
                                engineFor(sim::Scheme::Dir0B, 4, 2));
    };
    auto cfg =
        timedConfig(sim::Scheme::Dir0B, timing::timedPipelinedBus());
    cfg.cyclesPerRef = 65'536;
    EXPECT_NO_THROW(build(cfg));
    cfg.cyclesPerRef = 65'537;
    EXPECT_THROW(build(cfg), std::invalid_argument);
    cfg.cyclesPerRef = 4'000'000'000u;
    EXPECT_THROW(build(cfg), std::invalid_argument);

    cfg.cyclesPerRef = 1;
    cfg.bus.memExtraLatency = 65'537;
    EXPECT_THROW(build(cfg), std::invalid_argument);
}

} // namespace
