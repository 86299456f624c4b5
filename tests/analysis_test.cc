/**
 * @file
 * Tests for the analysis layer: evaluation runners and exhibit
 * builders.  Uses small workloads so the whole suite stays fast.
 */

#include <gtest/gtest.h>

#include "analysis/evaluation.hh"
#include "analysis/exhibits.hh"
#include "analysis/extensions.hh"
#include "coherence/dragon_engine.hh"
#include "coherence/inval_engine.hh"
#include "coherence/limited_engine.hh"
#include "directory/full_map.hh"
#include "directory/two_bit.hh"
#include "gen/workload.hh"
#include "trace/filter.hh"

namespace
{

using namespace dirsim;
using namespace dirsim::analysis;

std::vector<gen::WorkloadConfig>
smallWorkloads()
{
    auto workloads = gen::standardWorkloads();
    for (auto &cfg : workloads)
        cfg.totalRefs = 120'000;
    return workloads;
}

class AnalysisTest : public ::testing::Test
{
  protected:
    static const Evaluation &
    eval()
    {
        static const Evaluation e = evaluateWorkloads(smallWorkloads());
        return e;
    }
};

TEST_F(AnalysisTest, EvaluationStructure)
{
    EXPECT_EQ(eval().traces.size(), 3u);
    EXPECT_EQ(eval().traces[0].trace, "pops");
    EXPECT_EQ(eval().traces[2].trace, "pero");
    // The average merges all records.
    std::uint64_t sum = 0;
    for (const auto &te : eval().traces)
        sum += te.inval.events.totalRefs();
    EXPECT_EQ(eval().average.inval.events.totalRefs(), sum);
    EXPECT_EQ(sum, 3u * 120'000u);
}

TEST_F(AnalysisTest, EnginesSawTheSameTrace)
{
    for (const auto &te : eval().traces) {
        EXPECT_EQ(te.inval.events.totalRefs(),
                  te.dir1nb.events.totalRefs());
        EXPECT_EQ(te.inval.events.totalRefs(),
                  te.dragon.events.totalRefs());
        EXPECT_EQ(te.inval.events.count(coherence::Event::Instr),
                  te.dragon.events.count(coherence::Event::Instr));
    }
}

TEST_F(AnalysisTest, SchemeCostsCoverAllFourSchemes)
{
    const auto costs = schemeCosts(eval().average);
    ASSERT_EQ(costs.size(), 4u);
    EXPECT_EQ(costs[0].name, "Dir1NB");
    EXPECT_EQ(costs[1].name, "WTI");
    EXPECT_EQ(costs[2].name, "Dir0B");
    EXPECT_EQ(costs[3].name, "Dragon");
    for (const auto &sc : costs) {
        EXPECT_GT(sc.pipelined.total(), 0.0) << sc.name;
        EXPECT_GE(sc.nonPipelined.total(), sc.pipelined.total())
            << sc.name;
    }
}

TEST_F(AnalysisTest, TablesRender)
{
    EXPECT_GT(table1().rows(), 4u);
    EXPECT_GT(table2().rows(), 4u);
    const auto chars = characterizeWorkloads(smallWorkloads());
    EXPECT_EQ(table3(chars).rows(), 3u);
    const auto t4 = table4(eval());
    EXPECT_GT(t4.rows(), 14u);
    EXPECT_NE(t4.toString().find("rm-blk-cln"), std::string::npos);
    EXPECT_GT(table5(eval()).rows(), 6u);
    EXPECT_GT(figure2(eval()).rows(), 3u);
    EXPECT_EQ(figure3(eval()).rows(), 3u);
    EXPECT_GT(figure4(eval()).rows(), 5u);
    EXPECT_EQ(figure5(eval()).rows(), 4u);
}

TEST_F(AnalysisTest, Figure1FractionsAreSane)
{
    const Figure1 fig = figure1(eval());
    EXPECT_GT(fig.fanout.totalSamples(), 0u);
    EXPECT_GE(fig.fracAtMostOne, 0.0);
    EXPECT_LE(fig.fracAtMostOne, 1.0);
    EXPECT_LE(fig.fanout.maxValue(), 3u); // at most nUnits-1 = 3
    EXPECT_GT(renderFigure1(fig, 5).rows(), 4u);
}

TEST_F(AnalysisTest, Section51TableHasQColumns)
{
    const auto table = section51(eval(), {0.0, 1.0, 2.0});
    EXPECT_EQ(table.rows(), 4u);
    EXPECT_NE(table.toString().find("q=1"), std::string::npos);
}

TEST_F(AnalysisTest, Section6Consistency)
{
    const Section6 sec = section6(eval(), 8.0);
    // Sequential invalidation can only add cycles over broadcast.
    EXPECT_GE(sec.dirnnbSeq, sec.dir0b);
    // ... but not many (the paper's point: most invalidations hit one
    // cache).
    EXPECT_LT(sec.dirnnbSeq - sec.dir0b, 0.15 * sec.dir0b);
    // Berkeley drops the directory-check cycles.
    EXPECT_LT(sec.berkeley, sec.dir0b);
    // Dir1B slope equals the frequency of fanout >= 2 invalidation
    // events; it must be small and positive.
    EXPECT_GT(sec.dir1bCoef, 0.0);
    EXPECT_LT(sec.dir1bCoef, 0.005);
    // More pointers means fewer broadcasts: DiriB totals decrease in i
    // for a fixed broadcast cost > 1.
    for (std::size_t k = 1; k < sec.diribTotals.size(); ++k) {
        EXPECT_LE(sec.diribTotals[k].second,
                  sec.diribTotals[k - 1].second + 1e-12);
    }
    EXPECT_GT(renderSection6(sec, 8.0).rows(), 6u);
}

TEST_F(AnalysisTest, LimitedSweepMonotone)
{
    const std::vector<unsigned> is = {1, 2, 4};
    const auto sweep = limitedSweep(smallWorkloads(), is);
    ASSERT_EQ(sweep.size(), 3u);
    // Misses fall as pointers grow.
    for (std::size_t k = 1; k < sweep.size(); ++k) {
        EXPECT_LE(sweep[k].events.readMisses(),
                  sweep[k - 1].events.readMisses());
        EXPECT_LE(sweep[k].displacementInvals,
                  sweep[k - 1].displacementInvals);
    }
    EXPECT_EQ(limitedSweepTable(sweep, is).rows(), 3u);
}

TEST_F(AnalysisTest, DropLockTestsOptionShrinksTrace)
{
    EvalOptions opts;
    opts.dropLockTests = true;
    const Evaluation filtered =
        evaluateWorkloads(smallWorkloads(), opts);
    EXPECT_LT(filtered.average.inval.events.totalRefs(),
              eval().average.inval.events.totalRefs());
    const auto table = section52(eval(), filtered);
    EXPECT_EQ(table.rows(), 4u);
}

/**
 * The lock-test filter folds into the prepared decode; it must match
 * the raw filter over a regenerated stream, engine for engine.
 */
TEST_F(AnalysisTest, DropLockTestsMatchesRawFilteredReplay)
{
    const auto cfgs = smallWorkloads();
    for (const unsigned jobs : {1u, 4u}) {
        EvalOptions opts;
        opts.dropLockTests = true;
        opts.jobs = jobs;
        const Evaluation filtered = evaluateWorkloads(cfgs, opts);
        ASSERT_EQ(filtered.traces.size(), cfgs.size());
        for (std::size_t c = 0; c < cfgs.size(); ++c) {
            const unsigned units = cfgs[c].space.nProcesses;
            sim::Simulator simulator;
            coherence::InvalEngineConfig icfg;
            icfg.nUnits = units;
            simulator.addEngine(
                std::make_unique<coherence::InvalEngine>(icfg));
            simulator.addEngine(
                std::make_unique<coherence::LimitedEngine>(units, 1));
            simulator.addEngine(
                std::make_unique<coherence::DragonEngine>(units));
            gen::WorkloadSource source(cfgs[c]);
            trace::FilteredSource noLocks =
                trace::dropLockTests(source);
            simulator.run(noLocks);

            const TraceEvaluation &te = filtered.traces[c];
            EXPECT_TRUE(te.inval == simulator.engine(0).results())
                << cfgs[c].name << " jobs=" << jobs;
            EXPECT_TRUE(te.dir1nb == simulator.engine(1).results())
                << cfgs[c].name << " jobs=" << jobs;
            EXPECT_TRUE(te.dragon == simulator.engine(2).results())
                << cfgs[c].name << " jobs=" << jobs;
        }
    }
}

TEST_F(AnalysisTest, InvalWithDirectoryReportsMessages)
{
    directory::FullMapFactory full;
    const auto r = invalWithDirectory(smallWorkloads(), full);
    EXPECT_GT(r.dirDirectedInvals, 0u);
    EXPECT_EQ(r.dirBroadcasts, 0u);
    EXPECT_EQ(r.dirOvershoot, 0u);

    directory::TwoBitFactory two_bit;
    const auto r2 = invalWithDirectory(smallWorkloads(), two_bit);
    EXPECT_GT(r2.dirBroadcasts, 0u);
}

TEST_F(AnalysisTest, FiniteCachesIncreaseMisses)
{
    mem::CacheGeometry tiny;
    tiny.capacityBytes = 4 * 1024;
    tiny.blockBytes = 16;
    tiny.ways = 4;
    const auto finite =
        invalWithFiniteCaches(smallWorkloads(), tiny);
    EXPECT_GT(finite.replacementEvictions, 0u);
    EXPECT_GT(finite.events.readMisses() +
                  finite.events.count(coherence::Event::RmMemory),
              eval().average.inval.events.readMisses());
}

TEST(Extensions, ScalingStudyShapes)
{
    const auto points = scalingStudy({2, 4, 8}, 30'000);
    ASSERT_EQ(points.size(), 3u);
    for (const auto &pt : points) {
        EXPECT_GT(pt.dir0bCycles, 0.0);
        EXPECT_GE(pt.dirnnbCycles, pt.dir0bCycles);
        EXPECT_GT(pt.dir1nbCycles, pt.dir0bCycles);
        EXPECT_GE(pt.fracAtMostOne, 0.0);
        EXPECT_LE(pt.fracAtMostOne, 1.0);
    }
    EXPECT_EQ(renderScaling(points).rows(), 3u);
}

TEST(Extensions, FiniteCacheStudyIncludesInfiniteBaseline)
{
    const auto points = finiteCacheStudy({16 * 1024, 256 * 1024});
    ASSERT_EQ(points.size(), 3u);
    EXPECT_EQ(points[0].capacityBytes, 0u);
    EXPECT_DOUBLE_EQ(points[0].replacementWbFrac, 0.0);
    // Smaller caches cost at least as much as the infinite baseline.
    EXPECT_GE(points[1].dir0bCycles, points[0].dir0bCycles);
    EXPECT_GE(points[1].dir0bCycles, points[2].dir0bCycles);
    EXPECT_EQ(renderFiniteCache(points).rows(), 3u);
}

TEST(Extensions, SharingDomainsAgreeClosely)
{
    // The paper: "the numbers were not significantly different".
    // That holds for the invalidation protocols.  For Dragon the
    // processor domain is systematically costlier: with infinite
    // caches a migrated process's blocks stay resident in the old
    // CPU's cache forever, and an update protocol pays a distributed
    // write on them from then on — so the band is wider.
    const auto cmp = sharingDomainStudy(0.02);
    const auto by_proc = schemeCosts(cmp.byProcess.average);
    const auto by_cpu = schemeCosts(cmp.byProcessor.average);
    for (std::size_t s = 0; s < by_proc.size(); ++s) {
        const double a = by_proc[s].pipelined.total();
        const double b = by_cpu[s].pipelined.total();
        const double band =
            by_proc[s].name == "Dragon" ? 0.55 : 0.25;
        EXPECT_NEAR(a, b, band * std::max(a, b))
            << by_proc[s].name;
    }
    EXPECT_EQ(renderSharingDomain(cmp).rows(), 3u);
}

TEST(Extensions, DirectoryMessageStudyOrdering)
{
    const auto rows = directoryMessageStudy();
    ASSERT_GE(rows.size(), 5u);
    // Full map never broadcasts and never overshoots.
    EXPECT_DOUBLE_EQ(rows[0].broadcastFrac, 0.0);
    EXPECT_DOUBLE_EQ(rows[0].overshootPerEvent, 0.0);
    // The two-bit scheme broadcasts for most shared invalidations.
    EXPECT_GT(rows[1].broadcastFrac, 0.0);
    // Dir2B broadcasts no more often than Dir1B.
    EXPECT_LE(rows[3].broadcastFrac, rows[2].broadcastFrac);
    // The coarse vector never broadcasts but overshoots sometimes.
    EXPECT_DOUBLE_EQ(rows[4].broadcastFrac, 0.0);
    EXPECT_GE(rows[4].overshootPerEvent, 0.0);
    EXPECT_EQ(renderDirectoryMessages(rows).rows(), rows.size());
}

} // namespace

namespace
{

using namespace dirsim;
using namespace dirsim::analysis;

TEST(Extensions, NetworkStudyShowsScalingAsymmetry)
{
    const auto points = networkStudy({4, 16}, 25'000);
    ASSERT_EQ(points.size(), 2u);
    for (const auto &pt : points) {
        // Directed full-map is never worse than broadcast emulation.
        EXPECT_LE(pt.dirnnbDirected, pt.dir0bBroadcast + 1e-12);
        // More pointers never hurt.
        EXPECT_LE(pt.dir4b, pt.dir1b + 1e-12);
        // Snoopy write-through is the worst at every size.
        EXPECT_GT(pt.wtiBroadcast, pt.dir0bBroadcast);
    }
    // The broadcast-reliant schemes degrade faster with machine size
    // than the directed full map: the paper's scaling thesis.
    const double directed_growth =
        points[1].dirnnbDirected / points[0].dirnnbDirected;
    const double broadcast_growth =
        points[1].dir0bBroadcast / points[0].dir0bBroadcast;
    const double wti_growth =
        points[1].wtiBroadcast / points[0].wtiBroadcast;
    EXPECT_GT(broadcast_growth, directed_growth);
    EXPECT_GT(wti_growth, directed_growth);
    EXPECT_EQ(renderNetwork(points).rows(), 2u);
}

TEST(Extensions, BerkeleyResultsServeMoreMissesFromCaches)
{
    auto workloads = gen::standardWorkloads();
    for (auto &cfg : workloads)
        cfg.totalRefs = 100'000;
    const auto own = berkeleyResults(workloads);
    const auto eval = evaluateWorkloads(workloads);
    const auto &iv = eval.average.inval;
    // Aggregates agree...
    EXPECT_EQ(own.events.readMisses(), iv.events.readMisses());
    EXPECT_EQ(own.events.writeMisses(), iv.events.writeMisses());
    // ...but ownership persistence shifts misses from memory (clean)
    // to cache-to-cache (dirty).
    EXPECT_GE(own.events.count(coherence::Event::RmBlkDrty),
              iv.events.count(coherence::Event::RmBlkDrty));
}

} // namespace

#include "analysis/system_perf.hh"
#include "coherence/inval_engine.hh"

namespace
{

using dirsim::analysis::MachineParams;
using dirsim::analysis::SystemEstimate;
using dirsim::analysis::systemEstimate;

dirsim::sim::CostBreakdown
costOf(double cycles_per_ref, const std::string &name)
{
    dirsim::sim::CostBreakdown cost;
    cost.scheme = name;
    cost.memAccess = cycles_per_ref;
    return cost;
}

TEST(SystemPerf, ReproducesPaperClosingArithmetic)
{
    // "0.03 bus cycles per reference ... a 10-MIPS processor will
    // require a bus cycle every 1500ns, and a bus with a cycle time
    // of 100ns will only yield a maximum performance of 15 effective
    // processors."
    // The paper rounds 0.03 cycles/ref to "a bus cycle every 30
    // references"; feeding exactly 1/30 reproduces its arithmetic.
    const SystemEstimate est =
        systemEstimate(costOf(1.0 / 30.0, "best"), MachineParams{});
    EXPECT_NEAR(est.nsPerBusCycleDemand, 1500.0, 1.0);
    EXPECT_NEAR(est.maxEffectiveProcessors, 15.0, 0.1);
}

TEST(SystemPerf, UtilizationIsLinearInProcessors)
{
    const SystemEstimate est =
        systemEstimate(costOf(0.05, "x"), MachineParams{});
    EXPECT_NEAR(est.utilizationAt(10), 10.0 * est.utilizationAt(1),
                1e-12);
}

TEST(SystemPerf, EffectiveProcessorsSaturateAtCeiling)
{
    const SystemEstimate est =
        systemEstimate(costOf(0.03, "x"), MachineParams{});
    // Monotone increasing...
    double prev = 0.0;
    for (unsigned n : {1u, 2u, 4u, 8u, 16u, 32u, 64u, 256u}) {
        const double eff = est.effectiveProcessorsAt(n);
        EXPECT_GT(eff, prev);
        prev = eff;
    }
    // ...never above the physical count nor the hard ceiling.
    EXPECT_LE(est.effectiveProcessorsAt(4), 4.0 + 1e-12);
    EXPECT_LE(est.effectiveProcessorsAt(1024),
              est.maxEffectiveProcessors + 1.0);
    // And close to the ceiling with many processors.
    EXPECT_GT(est.effectiveProcessorsAt(1024),
              0.8 * est.maxEffectiveProcessors);
}

TEST(SystemPerf, CheaperProtocolSupportsMoreProcessors)
{
    const SystemEstimate cheap =
        systemEstimate(costOf(0.03, "dragon"), MachineParams{});
    const SystemEstimate costly =
        systemEstimate(costOf(0.15, "wti"), MachineParams{});
    EXPECT_GT(cheap.maxEffectiveProcessors,
              costly.maxEffectiveProcessors);
    EXPECT_GT(cheap.effectiveProcessorsAt(16),
              costly.effectiveProcessorsAt(16));
}

TEST(SystemPerf, FasterBusRaisesCeiling)
{
    MachineParams fast;
    fast.busCycleNs = 50.0;
    const SystemEstimate base =
        systemEstimate(costOf(0.05, "x"), MachineParams{});
    const SystemEstimate faster =
        systemEstimate(costOf(0.05, "x"), fast);
    EXPECT_NEAR(faster.maxEffectiveProcessors,
                2.0 * base.maxEffectiveProcessors, 1e-9);
}

TEST(SystemPerf, ZeroCostMeansUnbounded)
{
    const SystemEstimate est =
        systemEstimate(costOf(0.0, "free"), MachineParams{});
    EXPECT_DOUBLE_EQ(est.maxEffectiveProcessors, 0.0); // undefined
    EXPECT_DOUBLE_EQ(est.effectiveProcessorsAt(16), 16.0);
}

TEST(SystemPerf, RenderIncludesAllSchemes)
{
    std::vector<SystemEstimate> estimates = {
        systemEstimate(costOf(0.03, "a"), MachineParams{}),
        systemEstimate(costOf(0.15, "b"), MachineParams{})};
    const auto table =
        dirsim::analysis::renderSystemLimits(estimates, {4, 16});
    EXPECT_EQ(table.rows(), 2u);
    EXPECT_NE(table.toString().find("eff@16"), std::string::npos);
}

} // namespace

namespace
{

TEST(Extensions, HomeLocalityFavoursFirstTouch)
{
    using namespace dirsim;
    using namespace dirsim::analysis;
    const auto points = homeLocalityStudy({4, 8}, 25'000);
    ASSERT_EQ(points.size(), 2u);
    for (const auto &pt : points) {
        // First-touch keeps private-data fetches local, interleaving
        // scatters them: first-touch must win clearly.
        EXPECT_GT(pt.firstTouchLocalFrac, pt.moduloLocalFrac);
        EXPECT_LT(pt.firstTouchRemotePerRef, pt.moduloRemotePerRef);
        // Interleaved locality is roughly 1/n.
        EXPECT_NEAR(pt.moduloLocalFrac, 1.0 / pt.nCpus,
                    0.5 / pt.nCpus);
    }
    EXPECT_EQ(renderHomeLocality(points).rows(), 2u);
}

TEST(Extensions, HomePolicyNoneTracksNothing)
{
    using namespace dirsim;
    coherence::InvalEngineConfig cfg;
    cfg.nUnits = 4;
    coherence::InvalEngine engine(cfg);
    engine.access(0, trace::RefType::Write, 1);
    engine.access(1, trace::RefType::Read, 1);
    EXPECT_EQ(engine.results().homeLocalTransactions, 0u);
    EXPECT_EQ(engine.results().homeRemoteTransactions, 0u);
}

TEST(Extensions, FirstTouchHomeIsFirstToucher)
{
    using namespace dirsim;
    coherence::InvalEngineConfig cfg;
    cfg.nUnits = 4;
    cfg.homePolicy = coherence::HomePolicy::FirstTouch;
    coherence::InvalEngine engine(cfg);
    engine.access(2, trace::RefType::Read, 7);  // home := 2, local
    engine.access(3, trace::RefType::Write, 7); // remote
    engine.access(2, trace::RefType::Read, 7);  // miss again: local
    EXPECT_EQ(engine.results().homeLocalTransactions, 2u);
    EXPECT_EQ(engine.results().homeRemoteTransactions, 1u);
}

TEST(Extensions, ModuloHomeFollowsBlockId)
{
    using namespace dirsim;
    coherence::InvalEngineConfig cfg;
    cfg.nUnits = 4;
    cfg.homePolicy = coherence::HomePolicy::Modulo;
    coherence::InvalEngine engine(cfg);
    engine.access(1, trace::RefType::Read, 5); // home = 5 % 4 = 1
    EXPECT_EQ(engine.results().homeLocalTransactions, 1u);
    engine.access(2, trace::RefType::Read, 6); // home = 2: local
    EXPECT_EQ(engine.results().homeLocalTransactions, 2u);
    engine.access(0, trace::RefType::Read, 7); // home = 3: remote
    EXPECT_EQ(engine.results().homeRemoteTransactions, 1u);
}

} // namespace

#include "analysis/analytical.hh"

namespace
{

using dirsim::analysis::AnalyticalParams;
using dirsim::analysis::analyticalPredict;

TEST(Analytical, DegenerateInputsPredictNothing)
{
    AnalyticalParams params;
    params.sharedRefFrac = 0.0;
    params.writeFrac = 0.2;
    EXPECT_DOUBLE_EQ(analyticalPredict(params).invalEventsPerRef, 0.0);
    params.sharedRefFrac = 0.1;
    params.writeFrac = 0.0;
    EXPECT_DOUBLE_EQ(analyticalPredict(params).invalEventsPerRef, 0.0);
    params.writeFrac = 0.2;
    params.nProcessors = 1;
    EXPECT_DOUBLE_EQ(analyticalPredict(params).meanFanout, 0.0);
}

TEST(Analytical, WriteHeavySharingShrinksFanout)
{
    // More writes per read window means fewer accumulated readers.
    AnalyticalParams light;
    light.sharedRefFrac = 0.05;
    light.writeFrac = 0.05;
    light.nProcessors = 8;
    AnalyticalParams heavy = light;
    heavy.writeFrac = 0.5;
    EXPECT_GT(analyticalPredict(light).meanFanout,
              analyticalPredict(heavy).meanFanout);
    EXPECT_LT(analyticalPredict(light).fracAtMostOne,
              analyticalPredict(heavy).fracAtMostOne);
}

TEST(Analytical, FanoutBoundedByRemoteProcessors)
{
    AnalyticalParams params;
    params.sharedRefFrac = 0.2;
    params.writeFrac = 0.001; // long read windows: everyone reads
    params.nProcessors = 4;
    const auto pred = analyticalPredict(params);
    EXPECT_LE(pred.meanFanout, 3.0 + 1e-12);
    EXPECT_GT(pred.meanFanout, 2.5);
    // Probabilities stay probabilities.
    EXPECT_GE(pred.fracAtMostOne, 0.0);
    EXPECT_LE(pred.fracAtMostOne, 1.0);
}

TEST(Analytical, InvalRateScalesWithSharingAndWrites)
{
    AnalyticalParams params;
    params.sharedRefFrac = 0.1;
    params.writeFrac = 0.2;
    params.nProcessors = 4;
    const double base = analyticalPredict(params).invalEventsPerRef;
    params.sharedRefFrac = 0.2;
    EXPECT_NEAR(analyticalPredict(params).invalEventsPerRef, 2 * base,
                1e-12);
}

TEST(Analytical, StudyShowsUniformityGap)
{
    using namespace dirsim;
    auto workloads = gen::standardWorkloads();
    for (auto &cfg : workloads)
        cfg.totalRefs = 150'000;
    const auto rows = analysis::analyticalStudy(workloads);
    ASSERT_EQ(rows.size(), 3u);
    for (const auto &row : rows) {
        EXPECT_GT(row.fitted.sharedRefFrac, 0.0) << row.trace;
        EXPECT_GT(row.simInvalEventsPerRef, 0.0) << row.trace;
    }
    // The methodology point: the uniform model misses the
    // lock-structured workloads by more than the unstructured one.
    auto rel_err = [](const analysis::AnalyticalComparison &row) {
        return std::abs(row.predicted.invalEventsPerRef -
                        row.simInvalEventsPerRef) /
               row.simInvalEventsPerRef;
    };
    const double pops_err = rel_err(rows[0]);
    const double pero_err = rel_err(rows[2]);
    EXPECT_GT(pops_err, pero_err);
    EXPECT_EQ(analysis::renderAnalytical(rows).rows(), 3u);
}

} // namespace

// ---------------------------------------------------------------------
// Batched studies: each study submits all of its CPU counts (or
// workloads) as one evaluateMatrix plan.  These oracles are the
// per-count code the studies ran before, kept here so the batched
// plan is held to exactly the same numbers.

#include "bus/bus_model.hh"
#include "bus/network.hh"
#include "sim/cost_model.hh"

namespace
{

using namespace dirsim;
using namespace dirsim::analysis;

/** Per-count oracle: one evaluateWorkloads({cfg}) call per count. */
Evaluation
perCountEval(unsigned n, std::uint64_t refsPerCpu)
{
    return evaluateWorkloads({gen::scaledConfig(n, refsPerCpu * n)});
}

TEST(BatchedStudies, ScalingStudyMatchesPerCountEvaluations)
{
    const std::vector<unsigned> counts = {2, 4, 8};
    const auto points = scalingStudy(counts, 20'000);
    ASSERT_EQ(points.size(), counts.size());
    const bus::BusCosts pipe = bus::standardBuses().pipelined;
    for (std::size_t k = 0; k < counts.size(); ++k) {
        const Evaluation eval = perCountEval(counts[k], 20'000);
        const auto &iv = eval.average.inval;
        stats::Histogram fanout;
        fanout.merge(iv.whClnFanout);
        fanout.merge(iv.wmClnFanout);
        const ScalingPoint &pt = points[k];
        EXPECT_EQ(pt.nCpus, counts[k]);
        EXPECT_EQ(pt.dir0bCycles,
                  sim::computeCost(sim::Scheme::Dir0B, iv, pipe).total());
        EXPECT_EQ(
            pt.dirnnbCycles,
            sim::computeCost(sim::Scheme::DirNNBSeq, iv, pipe).total());
        EXPECT_EQ(pt.dir1nbCycles,
                  sim::computeCost(sim::Scheme::Dir1NB,
                                   eval.average.dir1nb, pipe)
                      .total());
        EXPECT_EQ(pt.dragonCycles,
                  sim::computeCost(sim::Scheme::Dragon,
                                   eval.average.dragon, pipe)
                      .total());
        EXPECT_EQ(pt.fracAtMostOne, fanout.fracAtMost(1));
        EXPECT_EQ(pt.meanFanout, fanout.mean());
        EXPECT_EQ(pt.broadcastEventFrac, 1.0 - fanout.fracAtMost(1));
    }
}

/** The network pricing of one count, from a per-count evaluation. */
NetworkPoint
networkOracle(unsigned n, const Evaluation &eval)
{
    const auto &iv = eval.average.inval;
    const auto &dg = eval.average.dragon;
    bus::NetworkParams net;
    net.nNodes = n;
    const bus::BusCosts directed = bus::networkCosts(net);
    const double bcast = bus::networkBroadcastCost(net);

    NetworkPoint pt;
    pt.nCpus = n;
    bus::BusCosts broadcast_costs = directed;
    broadcast_costs.invalidate = static_cast<unsigned>(bcast);
    pt.dir0bBroadcast =
        sim::computeCost(sim::Scheme::Dir0B, iv, broadcast_costs).total();
    pt.dirnnbDirected =
        sim::computeCost(sim::Scheme::DirNNBSeq, iv, directed).total();
    sim::CostOptions opts;
    opts.broadcastCost = bcast;
    opts.nPointers = 1;
    pt.dir1b =
        sim::computeCost(sim::Scheme::DirIB, iv, directed, opts).total();
    opts.nPointers = 4;
    pt.dir4b =
        sim::computeCost(sim::Scheme::DirIB, iv, directed, opts).total();
    bus::BusCosts wti_costs = directed;
    wti_costs.writeWord = static_cast<unsigned>(bcast) + 1;
    pt.wtiBroadcast =
        sim::computeCost(sim::Scheme::WTI, iv, wti_costs).total();

    const double refs = static_cast<double>(dg.events.totalRefs());
    const double update_events =
        static_cast<double>(dg.events.count(coherence::Event::WhDistrib)) +
        static_cast<double>(dg.events.count(coherence::Event::WmBlkCln)) +
        static_cast<double>(dg.events.count(coherence::Event::WmBlkDrty));
    const double update_messages =
        static_cast<double>(dg.whClnFanout.totalWeight()) +
        static_cast<double>(dg.wmClnFanout.totalWeight());
    const double extra = refs == 0.0 ? 0.0
                                     : (update_messages - update_events) *
                                           directed.writeWord / refs;
    pt.dragonDirected =
        sim::computeCost(sim::Scheme::Dragon, dg, directed).total() +
        std::max(0.0, extra);
    return pt;
}

TEST(BatchedStudies, NetworkStudyMatchesPerCountEvaluations)
{
    const std::vector<unsigned> counts = {2, 4, 8, 16};
    const auto points = networkStudy(counts, 10'000);
    ASSERT_EQ(points.size(), counts.size());
    for (std::size_t k = 0; k < counts.size(); ++k) {
        const NetworkPoint want =
            networkOracle(counts[k], perCountEval(counts[k], 10'000));
        const NetworkPoint &got = points[k];
        EXPECT_EQ(got.nCpus, want.nCpus);
        EXPECT_EQ(got.dir0bBroadcast, want.dir0bBroadcast);
        EXPECT_EQ(got.dirnnbDirected, want.dirnnbDirected);
        EXPECT_EQ(got.dir1b, want.dir1b);
        EXPECT_EQ(got.dir4b, want.dir4b);
        EXPECT_EQ(got.wtiBroadcast, want.wtiBroadcast);
        EXPECT_EQ(got.dragonDirected, want.dragonDirected);
    }
}

/** Home-placement oracle: a raw Simulator over a freshly generated
 *  WorkloadSource, one run per policy. */
coherence::EngineResults
rawHomeRun(const gen::WorkloadConfig &cfg, unsigned n,
           coherence::HomePolicy policy)
{
    sim::Simulator simulator;
    coherence::InvalEngineConfig icfg;
    icfg.nUnits = n;
    icfg.homePolicy = policy;
    auto &engine = simulator.addEngine(
        std::make_unique<coherence::InvalEngine>(icfg));
    gen::WorkloadSource source(cfg);
    simulator.run(source);
    return engine.results();
}

TEST(BatchedStudies, HomeLocalityStudyMatchesRawSimulatorRuns)
{
    const std::vector<unsigned> counts = {4, 8};
    const auto points = homeLocalityStudy(counts, 25'000);
    ASSERT_EQ(points.size(), counts.size());
    auto local_frac = [](const coherence::EngineResults &r) {
        const double total = static_cast<double>(
            r.homeLocalTransactions + r.homeRemoteTransactions);
        return total == 0.0
                   ? 0.0
                   : static_cast<double>(r.homeLocalTransactions) / total;
    };
    auto remote_per_ref = [](const coherence::EngineResults &r) {
        const double refs = static_cast<double>(r.events.totalRefs());
        return refs == 0.0
                   ? 0.0
                   : static_cast<double>(r.homeRemoteTransactions) / refs;
    };
    for (std::size_t k = 0; k < counts.size(); ++k) {
        const unsigned n = counts[k];
        const gen::WorkloadConfig cfg = gen::scaledConfig(n, 25'000 * n);
        const auto modulo =
            rawHomeRun(cfg, n, coherence::HomePolicy::Modulo);
        const auto first =
            rawHomeRun(cfg, n, coherence::HomePolicy::FirstTouch);
        ASSERT_GT(modulo.homeLocalTransactions, 0u);
        const HomeLocalityPoint &pt = points[k];
        EXPECT_EQ(pt.nCpus, n);
        EXPECT_EQ(pt.moduloLocalFrac, local_frac(modulo));
        EXPECT_EQ(pt.firstTouchLocalFrac, local_frac(first));
        EXPECT_EQ(pt.moduloRemotePerRef, remote_per_ref(modulo));
        EXPECT_EQ(pt.firstTouchRemotePerRef, remote_per_ref(first));
    }
}

/** Restores the process-wide default job count on scope exit. */
struct DefaultJobsGuard
{
    unsigned saved = defaultEvalJobs();
    ~DefaultJobsGuard() { setDefaultEvalJobs(saved); }
};

TEST(BatchedStudies, CharacterizeWorkloadsIdenticalAtAnyJobCount)
{
    const DefaultJobsGuard guard;
    const auto workloads = smallWorkloads();
    setDefaultEvalJobs(1);
    const auto serial = characterizeWorkloads(workloads);
    setDefaultEvalJobs(4);
    const auto parallel = characterizeWorkloads(workloads);
    ASSERT_EQ(serial.size(), workloads.size());
    ASSERT_EQ(parallel.size(), workloads.size());
    for (std::size_t k = 0; k < workloads.size(); ++k) {
        const trace::TraceCharacteristics &a = serial[k];
        const trace::TraceCharacteristics &b = parallel[k];
        EXPECT_EQ(a.name, workloads[k].name);
        EXPECT_EQ(b.name, a.name);
        EXPECT_EQ(b.refs, a.refs);
        EXPECT_EQ(b.instr, a.instr);
        EXPECT_EQ(b.dataReads, a.dataReads);
        EXPECT_EQ(b.dataWrites, a.dataWrites);
        EXPECT_EQ(b.user, a.user);
        EXPECT_EQ(b.system, a.system);
        EXPECT_EQ(b.lockTestReads, a.lockTestReads);
        EXPECT_EQ(b.uniqueDataBlocks, a.uniqueDataBlocks);
        EXPECT_EQ(b.sharedDataBlocks, a.sharedDataBlocks);
        EXPECT_EQ(b.refsToSharedBlocks, a.refsToSharedBlocks);
        EXPECT_EQ(b.writesToSharedBlocks, a.writesToSharedBlocks);
        EXPECT_EQ(a.refs, workloads[k].totalRefs);
    }
}

} // namespace

// ---------------------------------------------------------------------
// evaluateMatrix's dependency-driven plan: per-cell results against
// one serial Simulator per cell, at several job counts, in memory and
// streamed; failure capture; one build per distinct trace.

#include <filesystem>
#include <stdexcept>

#include <unistd.h>

#include "sim/trace_repo.hh"

namespace
{

using namespace dirsim;
using namespace dirsim::analysis;

EngineSpec
planInvalSpec()
{
    return {[](unsigned units) {
        coherence::InvalEngineConfig cfg;
        cfg.nUnits = units;
        return std::make_unique<coherence::InvalEngine>(cfg);
    }};
}

/** inval, dragon and three collapsible DiriNB lanes. */
std::vector<EngineSpec>
planSpecs()
{
    std::vector<EngineSpec> specs = {
        planInvalSpec(),
        {[](unsigned units) {
            return std::make_unique<coherence::DragonEngine>(units);
        }},
    };
    for (const unsigned p : {1u, 2u, 4u})
        specs.push_back({[p](unsigned units) {
                             return std::make_unique<
                                 coherence::LimitedEngine>(units, p);
                         },
                         p});
    return specs;
}

/** The scaled workload at 2..64 CPUs, short traces. */
std::vector<gen::WorkloadConfig>
planConfigs()
{
    std::vector<gen::WorkloadConfig> cfgs;
    for (const unsigned n : {2u, 4u, 8u, 16u, 32u, 64u})
        cfgs.push_back(gen::scaledConfig(n, 1'500ull * n));
    return cfgs;
}

/** One serial Simulator with one engine over a fresh stream. */
coherence::EngineResults
oracleCell(const gen::WorkloadConfig &cfg, const EngineSpec &spec)
{
    sim::Simulator simulator;
    auto &engine = simulator.addEngine(spec.make(cfg.space.nProcesses));
    gen::WorkloadSource source(cfg);
    simulator.run(source);
    return engine.results();
}

/** Points the global repository's disk tier at a temporary directory
 *  for the test's lifetime, then disables it and removes the files. */
struct GlobalDiskTier
{
    GlobalDiskTier()
        : path(testing::TempDir() + "dirsim-plan-" +
               std::to_string(::getpid()))
    {
        std::filesystem::remove_all(path);
        sim::DiskCacheConfig disk;
        disk.dir = path;
        disk.chunkRefs = 4 * 1024; // many span boundaries per trace
        sim::TraceRepository::global().setDiskCache(disk);
    }
    ~GlobalDiskTier()
    {
        sim::TraceRepository::global().setDiskCache({});
        std::filesystem::remove_all(path);
    }
    std::string path;
};

TEST(EvaluateMatrixPlan, MatchesPerCellOracle)
{
    const std::vector<gen::WorkloadConfig> cfgs = planConfigs();
    const std::vector<EngineSpec> specs = planSpecs();
    std::vector<std::vector<coherence::EngineResults>> want;
    for (const gen::WorkloadConfig &cfg : cfgs) {
        want.emplace_back();
        for (const EngineSpec &spec : specs)
            want.back().push_back(oracleCell(cfg, spec));
    }

    const GlobalDiskTier disk;
    for (const bool streamed : {false, true}) {
        for (const unsigned jobs : {1u, 3u, 4u}) {
            EvalOptions opts;
            opts.jobs = jobs;
            opts.streamReplay = streamed;
            const auto got = evaluateMatrix(cfgs, specs, opts);
            ASSERT_EQ(got.size(), cfgs.size());
            for (std::size_t c = 0; c < cfgs.size(); ++c) {
                ASSERT_EQ(got[c].size(), specs.size());
                for (std::size_t f = 0; f < specs.size(); ++f)
                    EXPECT_TRUE(got[c][f] == want[c][f])
                        << cfgs[c].name << " column " << f << " ("
                        << want[c][f].name << ") at jobs " << jobs
                        << (streamed ? ", streamed" : ", in memory");
            }
        }
    }
}

TEST(EvaluateMatrixPlan, RethrowsEarliestFailure)
{
    // dragon and Dir1NB are built for four units whatever the
    // workload needs, so both fail on the 16- and 8-CPU traces; the
    // earliest failing cell is (16 CPUs, dragon), although the
    // longest-first plan may hit either trace first.
    const std::vector<EngineSpec> specs = {
        planInvalSpec(),
        {[](unsigned) {
            return std::make_unique<coherence::DragonEngine>(4);
        }},
        {[](unsigned) {
            return std::make_unique<coherence::LimitedEngine>(4, 1);
        }},
    };
    const std::vector<gen::WorkloadConfig> cfgs = {
        gen::scaledConfig(2, 4'000), gen::scaledConfig(16, 32'000),
        gen::scaledConfig(8, 16'000)};
    for (const unsigned jobs : {1u, 4u}) {
        EvalOptions opts;
        opts.jobs = jobs;
        try {
            evaluateMatrix(cfgs, specs, opts);
            ADD_FAILURE() << "no exception at jobs " << jobs;
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("'dragon'"),
                      std::string::npos)
                << e.what();
        }
    }

    // A failing fetch (streamed replay with no disk tier) is
    // captured and rethrown the same way.
    ASSERT_FALSE(sim::TraceRepository::global().diskCacheEnabled());
    EvalOptions streamed;
    streamed.jobs = 4;
    streamed.streamReplay = true;
    EXPECT_THROW(evaluateMatrix(cfgs, specs, streamed), std::logic_error);
}

TEST(EvaluateMatrixPlan, BuildsEachTraceOnce)
{
    // Seeds no other test uses, so every distinct trace starts cold.
    std::vector<gen::WorkloadConfig> distinct;
    for (const unsigned n : {4u, 8u, 16u}) {
        gen::WorkloadConfig cfg = gen::scaledConfig(n, 2'000ull * n);
        cfg.seed ^= 0xB0117D5ULL;
        distinct.push_back(cfg);
    }
    const std::vector<gen::WorkloadConfig> cfgs = {
        distinct[0], distinct[1], distinct[2], distinct[1], distinct[0]};

    sim::TraceRepository &repo = sim::TraceRepository::global();
    const std::uint64_t before = repo.stats().builds;
    EvalOptions opts;
    opts.jobs = 4;
    const auto got = evaluateMatrix(cfgs, planSpecs(), opts);
    EXPECT_EQ(repo.stats().builds - before, distinct.size());
    ASSERT_EQ(got.size(), cfgs.size());
    EXPECT_TRUE(got[0] == got[4]);
    EXPECT_TRUE(got[1] == got[3]);
}

} // namespace

// ---------------------------------------------------------------------
// The exhibit registry reproduce_paper walks.
// ---------------------------------------------------------------------

#include <set>

#include "analysis/registry.hh"

namespace
{

using namespace dirsim;
using namespace dirsim::analysis;

const Exhibit &
exhibitNamed(const std::string &name)
{
    for (const Exhibit &ex : exhibitRegistry())
        if (ex.name == name)
            return ex;
    throw std::out_of_range("no exhibit " + name);
}

TEST(ExhibitRegistry, NamesAreUniqueAndFixed)
{
    std::vector<std::string> names;
    for (const Exhibit &ex : exhibitRegistry())
        names.push_back(ex.name);
    // Output order: the paper's exhibits, the extensions, then the
    // tables that once lived only in bench binaries.
    const std::vector<std::string> expected = {
        "table1",
        "table2",
        "table3",
        "table4",
        "figure1",
        "figure2",
        "figure3",
        "table5",
        "figure4",
        "figure5",
        "sec51_overhead",
        "sec52_spinlocks",
        "sec6_alternatives",
        "sec6_dirinb_sweep",
        "ext_directory_messages",
        "sec5_system_limit",
        "ext_scaling",
        "ext_finite_cache",
        "ext_sharing_domain",
        "ext_network",
        "ext_home_locality",
        "ext_analytical",
        "sec5_berkeley",
        "sec6_storage",
        "ext_ablation_block_size",
        "ext_ablation_lock_layout",
        "ext_ablation_migration",
    };
    EXPECT_EQ(names, expected);
    EXPECT_EQ(std::set<std::string>(names.begin(), names.end()).size(),
              names.size());
}

TEST(ExhibitRegistry, ConstantTablesBuildNoTrace)
{
    // The campaign evaluates lazily: tables that need no simulation
    // must not generate a single trace.
    sim::TraceRepository &repo = sim::TraceRepository::global();
    const std::uint64_t before = repo.stats().builds;
    Campaign campaign;
    for (const char *name : {"table1", "table2", "sec6_storage"})
        EXPECT_FALSE(
            exhibitNamed(name).render(campaign).toString().empty())
            << name;
    EXPECT_EQ(repo.stats().builds - before, 0u);
}

TEST(ExhibitRegistry, Table1MatchesDirectRender)
{
    Campaign campaign;
    const stats::TextTable viaRegistry =
        exhibitNamed("table1").render(campaign);
    EXPECT_EQ(viaRegistry.toString(), table1().toString());
    EXPECT_EQ(viaRegistry.toCsv(), table1().toCsv());
}

} // namespace
