#include "analysis/registry.hh"

#include <algorithm>
#include <utility>

#include "analysis/analytical.hh"
#include "analysis/exhibits.hh"
#include "analysis/extensions.hh"
#include "analysis/system_perf.hh"
#include "bus/bus_model.hh"
#include "sim/cost_model.hh"

namespace dirsim::analysis
{

using stats::TextTable;

namespace
{

/** Pipelined-bus cycles per reference of @p scheme. */
std::string
pipelinedCost(sim::Scheme scheme, const coherence::EngineResults &r,
              const bus::BusCosts &pipe)
{
    return TextTable::num(sim::computeCost(scheme, r, pipe).total());
}

/**
 * Section 5 aside: the Berkeley Ownership estimate (Dir0B event
 * frequencies with a free directory probe) against the real
 * ownership protocol, plus its relatives.
 */
TextTable
berkeleyTable(Campaign &c)
{
    const Evaluation &eval = c.standard();
    const auto buses = bus::standardBuses();
    // Ownership persists across read misses, so the real engine
    // services more misses cache-to-cache than the estimate assumes.
    const coherence::EngineResults berkeleyOwn =
        berkeleyResults(c.workloads());
    TextTable table(
        "Section 5 aside: the Berkeley estimate vs the real protocol "
        "(and relatives), bus cycles per reference",
        {"Scheme", "Pipelined", "Non-pipelined"});
    const auto row = [&](sim::Scheme scheme,
                         const coherence::EngineResults &r) {
        const auto pipe = sim::computeCost(scheme, r, buses.pipelined);
        table.addRow({pipe.scheme, TextTable::num(pipe.total()),
                      TextTable::num(sim::computeCost(
                                         scheme, r, buses.nonPipelined)
                                         .total())});
    };
    row(sim::Scheme::Dir0B, eval.average.inval);
    row(sim::Scheme::Berkeley, eval.average.inval);
    row(sim::Scheme::BerkeleyOwn, berkeleyOwn);
    row(sim::Scheme::MESI, eval.average.inval);
    row(sim::Scheme::YenFu, eval.average.inval);
    row(sim::Scheme::Dragon, eval.average.dragon);
    return table;
}

/** The pops workload every Extension F ablation varies. */
gen::WorkloadConfig
ablationBase()
{
    gen::WorkloadConfig cfg = gen::popsConfig();
    cfg.totalRefs = 300'000;
    return cfg;
}

/**
 * Ablation F1: the coherence block size trades spatial prefetch
 * (fewer misses) against false sharing and longer transfers.
 */
TextTable
blockSizeAblation(Campaign &)
{
    TextTable table(
        "Ablation F1: coherence block size (pops workload, pipelined "
        "bus)",
        {"Block", "Dir0B rm %", "wh-cln %", "Dir0B cyc/ref",
         "Dragon cyc/ref"});
    for (unsigned blockBytes : {4u, 8u, 16u, 32u, 64u}) {
        // The data layout keeps its 16-byte object granularity; only
        // the coherence block varies, so large blocks group
        // neighbouring objects and prefetch them.
        EvalOptions opts;
        opts.sim.blockBytes = blockBytes;
        const auto eval = evaluateWorkloads({ablationBase()}, opts);
        // Larger blocks transfer more words per miss.
        bus::BusPrimitives prim;
        prim.wordsPerBlock = std::max(1u, blockBytes / 4);
        const bus::BusCosts pipe = bus::pipelinedBus(prim);
        const auto &iv = eval.average.inval;
        const double refs = static_cast<double>(iv.events.totalRefs());
        table.addRow(
            {std::to_string(blockBytes) + "B",
             TextTable::pct(
                 static_cast<double>(iv.events.readMisses()) / refs),
             TextTable::pct(
                 static_cast<double>(iv.events.writeHitsClean()) /
                 refs),
             pipelinedCost(sim::Scheme::Dir0B, iv, pipe),
             pipelinedCost(sim::Scheme::Dragon, eval.average.dragon,
                           pipe)});
    }
    return table;
}

/** Ablation F2: one lock word per block versus two falsely shared. */
TextTable
lockLayoutAblation(Campaign &)
{
    TextTable table(
        "Ablation F2: lock placement (pops workload, pipelined bus "
        "cycles per reference)",
        {"Layout", "Dir1NB", "Dir0B", "Dragon"});
    std::vector<gen::WorkloadConfig> cfgs;
    for (bool falseSharing : {false, true}) {
        gen::WorkloadConfig cfg = ablationBase();
        // Two equally hot locks, so the falsely shared pair is
        // contended concurrently.
        cfg.behavior.nHotLocks = 2;
        cfg.space.falseSharingLocks = falseSharing;
        cfgs.push_back(cfg);
    }
    const auto pipe = bus::standardBuses().pipelined;
    const auto eval = evaluateWorkloads(cfgs);
    for (std::size_t c = 0; c < cfgs.size(); ++c) {
        const TraceEvaluation &te = eval.traces[c];
        table.addRow({cfgs[c].space.falseSharingLocks ? "2 locks / block"
                                                      : "1 lock / block",
                      pipelinedCost(sim::Scheme::Dir1NB, te.dir1nb, pipe),
                      pipelinedCost(sim::Scheme::Dir0B, te.inval, pipe),
                      pipelinedCost(sim::Scheme::Dragon, te.dragon, pipe)});
    }
    return table;
}

/** Ablation F3: sharing induced purely by process migration. */
TextTable
migrationAblation(Campaign &)
{
    TextTable table(
        "Ablation F3: process migration rate (pops workload, "
        "processor-domain sharing, pipelined bus)",
        {"Migration/quantum", "Dir0B", "Dragon"});
    std::vector<gen::WorkloadConfig> cfgs;
    for (double rate : {0.0, 0.05, 0.25}) {
        gen::WorkloadConfig cfg = ablationBase();
        cfg.migrationRate = rate;
        cfg.quantumRefs = 20'000;
        cfgs.push_back(cfg);
    }
    EvalOptions opts;
    opts.sim.domain = sim::SharingDomain::Processor;
    opts.nUnits = cfgs.front().space.nCpus;
    const auto pipe = bus::standardBuses().pipelined;
    const auto eval = evaluateWorkloads(cfgs, opts);
    for (std::size_t c = 0; c < cfgs.size(); ++c) {
        const TraceEvaluation &te = eval.traces[c];
        table.addRow({TextTable::num(cfgs[c].migrationRate, 2),
                      pipelinedCost(sim::Scheme::Dir0B, te.inval, pipe),
                      pipelinedCost(sim::Scheme::Dragon, te.dragon, pipe)});
    }
    return table;
}

} // namespace

Campaign::Campaign(bool fullSize, std::vector<unsigned> sweepPointers)
    : _fullSize(fullSize), _workloads(gen::standardWorkloads(fullSize)),
      _sweepPointers(std::move(sweepPointers))
{
}

const Evaluation &
Campaign::standard()
{
    if (!_standard)
        _standard = evaluateWorkloads(_workloads);
    return *_standard;
}

const Evaluation &
Campaign::noLockTests()
{
    if (!_noLockTests) {
        EvalOptions opts;
        opts.dropLockTests = true;
        _noLockTests = evaluateWorkloads(_workloads, opts);
    }
    return *_noLockTests;
}

const std::vector<Exhibit> &
exhibitRegistry()
{
    static const std::vector<Exhibit> registry = {
        {"table1", [](Campaign &) { return table1(); }},
        {"table2", [](Campaign &) { return table2(); }},
        {"table3",
         [](Campaign &c) {
             return table3(characterizeWorkloads(c.workloads()));
         }},
        {"table4", [](Campaign &c) { return table4(c.standard()); }},
        {"figure1",
         [](Campaign &c) {
             return renderFigure1(figure1(c.standard()), 5);
         }},
        {"figure2", [](Campaign &c) { return figure2(c.standard()); }},
        {"figure3", [](Campaign &c) { return figure3(c.standard()); }},
        {"table5", [](Campaign &c) { return table5(c.standard()); }},
        {"figure4", [](Campaign &c) { return figure4(c.standard()); }},
        {"figure5", [](Campaign &c) { return figure5(c.standard()); }},
        {"sec51_overhead",
         [](Campaign &c) {
             return section51(c.standard(), {0.0, 1.0, 2.0, 4.0});
         }},
        {"sec52_spinlocks",
         [](Campaign &c) {
             return section52(c.standard(), c.noLockTests());
         }},
        {"sec6_alternatives",
         [](Campaign &c) {
             return renderSection6(section6(c.standard(), 8.0), 8.0);
         }},
        {"sec6_dirinb_sweep",
         [](Campaign &c) {
             return limitedSweepTable(
                 limitedSweep(c.workloads(), c.sweepPointers()),
                 c.sweepPointers());
         }},
        {"ext_directory_messages",
         [](Campaign &c) {
             return renderDirectoryMessages(
                 directoryMessageStudy(c.fullSize()));
         }},
        {"sec5_system_limit",
         [](Campaign &c) {
             std::vector<SystemEstimate> estimates;
             for (const SchemeCost &sc : schemeCosts(c.standard().average))
                 estimates.push_back(
                     systemEstimate(sc.pipelined, MachineParams{}));
             return renderSystemLimits(estimates, {4, 8, 16, 32});
         }},
        {"ext_scaling",
         [](Campaign &) {
             return renderScaling(scalingStudy({2, 4, 8, 16}));
         }},
        {"ext_finite_cache",
         [](Campaign &c) {
             return renderFiniteCache(finiteCacheStudy(
                 {16 * 1024, 128 * 1024, 1024 * 1024}, c.fullSize()));
         }},
        {"ext_sharing_domain",
         [](Campaign &c) {
             return renderSharingDomain(
                 sharingDomainStudy(0.02, c.fullSize()));
         }},
        {"ext_network",
         [](Campaign &) {
             return renderNetwork(networkStudy({2, 4, 8, 16, 32, 64}));
         }},
        {"ext_home_locality",
         [](Campaign &) {
             return renderHomeLocality(
                 homeLocalityStudy({2, 4, 8, 16, 32}));
         }},
        {"ext_analytical",
         [](Campaign &c) {
             return renderAnalytical(analyticalStudy(c.workloads()));
         }},
        {"sec5_berkeley", berkeleyTable},
        {"sec6_storage",
         [](Campaign &) {
             return renderStorage(
                 {4, 8, 16, 32, 64},
                 "Section 6: directory storage (bits per main-memory "
                 "block)");
         }},
        {"ext_ablation_block_size", blockSizeAblation},
        {"ext_ablation_lock_layout", lockLayoutAblation},
        {"ext_ablation_migration", migrationAblation},
    };
    return registry;
}

} // namespace dirsim::analysis
