#include "analysis/extensions.hh"

#include <algorithm>

#include "bus/bus_model.hh"
#include "bus/network.hh"
#include "directory/coarse_vector.hh"
#include "directory/full_map.hh"
#include "directory/limited_pointer.hh"
#include "directory/two_bit.hh"
#include "coherence/dragon_engine.hh"
#include "coherence/inval_engine.hh"
#include "sim/cost_model.hh"

namespace dirsim::analysis
{

using stats::TextTable;

namespace
{

/** The scaled workload at each CPU count, refsPerCpu·n references. */
std::vector<gen::WorkloadConfig>
scaledConfigs(const std::vector<unsigned> &cpuCounts,
              std::uint64_t refsPerCpu)
{
    std::vector<gen::WorkloadConfig> cfgs;
    for (unsigned n : cpuCounts)
        cfgs.push_back(gen::scaledConfig(n, refsPerCpu * n));
    return cfgs;
}

/** An invalidation-engine column with the given home policy. */
EngineSpec
invalSpec(coherence::HomePolicy policy = coherence::HomePolicy::None)
{
    return {[policy](unsigned units) {
        coherence::InvalEngineConfig cfg;
        cfg.nUnits = units;
        cfg.homePolicy = policy;
        return std::make_unique<coherence::InvalEngine>(cfg);
    }};
}

} // namespace

std::vector<ScalingPoint>
scalingStudy(const std::vector<unsigned> &cpuCounts,
             std::uint64_t refsPerCpu)
{
    const bus::BusCosts pipe = bus::standardBuses().pipelined;
    const Evaluation eval =
        evaluateWorkloads(scaledConfigs(cpuCounts, refsPerCpu));
    std::vector<ScalingPoint> points;
    for (std::size_t k = 0; k < cpuCounts.size(); ++k) {
        const TraceEvaluation &te = eval.traces[k];
        ScalingPoint pt;
        pt.nCpus = cpuCounts[k];
        const auto &iv = te.inval;
        pt.dir0bCycles =
            sim::computeCost(sim::Scheme::Dir0B, iv, pipe).total();
        pt.dirnnbCycles =
            sim::computeCost(sim::Scheme::DirNNBSeq, iv, pipe).total();
        pt.dir1nbCycles =
            sim::computeCost(sim::Scheme::Dir1NB, te.dir1nb, pipe)
                .total();
        pt.dragonCycles =
            sim::computeCost(sim::Scheme::Dragon, te.dragon, pipe)
                .total();

        stats::Histogram fanout;
        fanout.merge(iv.whClnFanout);
        fanout.merge(iv.wmClnFanout);
        pt.fracAtMostOne = fanout.fracAtMost(1);
        pt.meanFanout = fanout.mean();
        pt.broadcastEventFrac = 1.0 - fanout.fracAtMost(1);
        points.push_back(pt);
    }
    return points;
}

TextTable
renderScaling(const std::vector<ScalingPoint> &points)
{
    TextTable table(
        "Extension A: Scaling beyond 4 CPUs (pipelined bus cycles per "
        "reference)",
        {"CPUs", "Dir1NB", "Dir0B", "DirnNB", "Dragon", "<=1 inval %",
         "mean fanout"});
    for (const ScalingPoint &pt : points) {
        table.addRow({std::to_string(pt.nCpus),
                      TextTable::num(pt.dir1nbCycles),
                      TextTable::num(pt.dir0bCycles),
                      TextTable::num(pt.dirnnbCycles),
                      TextTable::num(pt.dragonCycles),
                      TextTable::pct(pt.fracAtMostOne, 1),
                      TextTable::num(pt.meanFanout, 2)});
    }
    return table;
}

std::vector<FiniteCachePoint>
finiteCacheStudy(const std::vector<std::uint64_t> &capacities,
                 bool fullSize)
{
    const bus::BusCosts pipe = bus::standardBuses().pipelined;
    const auto workloads = gen::standardWorkloads(fullSize);
    std::vector<FiniteCachePoint> points;

    auto analyse = [&](const coherence::EngineResults &r,
                       std::uint64_t capacity) {
        FiniteCachePoint pt;
        pt.capacityBytes = capacity;
        const double refs = static_cast<double>(r.events.totalRefs());
        if (refs > 0.0) {
            pt.readMissFrac =
                static_cast<double>(r.events.readMisses()) / refs;
            pt.writeMissFrac =
                static_cast<double>(r.events.writeMisses()) / refs;
            pt.memoryMissFrac =
                static_cast<double>(
                    r.events.count(coherence::Event::RmMemory) +
                    r.events.count(coherence::Event::WmMemory)) /
                refs;
            pt.replacementWbFrac =
                static_cast<double>(r.replacementWriteBacks) / refs;
        }
        pt.dir0bCycles =
            sim::computeCost(sim::Scheme::Dir0B, r, pipe).total();
        return pt;
    };

    // One plan: the infinite baseline column, then one column per
    // capacity.
    std::vector<EngineSpec> specs = {invalSpec()};
    for (std::uint64_t capacity : capacities) {
        mem::CacheGeometry geom;
        geom.capacityBytes = capacity;
        geom.blockBytes = 16;
        geom.ways = 4;
        specs.push_back(invalFiniteCacheSpec(geom));
    }
    const std::vector<coherence::EngineResults> merged = mergeColumns(
        evaluateMatrix(workloads, specs), specs.size());
    points.push_back(analyse(merged[0], 0));
    for (std::size_t k = 0; k < capacities.size(); ++k)
        points.push_back(analyse(merged[k + 1], capacities[k]));
    return points;
}

TextTable
renderFiniteCache(const std::vector<FiniteCachePoint> &points)
{
    TextTable table(
        "Extension B: Finite data caches under Dir0B (4-way LRU, "
        "16-byte blocks)",
        {"Capacity", "rm %", "wm %", "uncached-miss %", "repl-wb %",
         "Dir0B cyc/ref"});
    for (const FiniteCachePoint &pt : points) {
        const std::string cap =
            pt.capacityBytes == 0
                ? "infinite"
                : std::to_string(pt.capacityBytes / 1024) + " KiB";
        table.addRow({cap, TextTable::pct(pt.readMissFrac),
                      TextTable::pct(pt.writeMissFrac),
                      TextTable::pct(pt.memoryMissFrac),
                      TextTable::pct(pt.replacementWbFrac),
                      TextTable::num(pt.dir0bCycles)});
    }
    return table;
}

SharingDomainComparison
sharingDomainStudy(double migrationRate, bool fullSize)
{
    // Enable a little process migration so the two domains can
    // actually differ, as in the paper's traces.
    std::vector<gen::WorkloadConfig> workloads =
        gen::standardWorkloads(fullSize);
    for (auto &cfg : workloads) {
        cfg.migrationRate = migrationRate;
        cfg.quantumRefs = 40'000;
    }

    SharingDomainComparison cmp;
    EvalOptions by_process;
    by_process.sim.domain = sim::SharingDomain::Process;
    cmp.byProcess = evaluateWorkloads(workloads, by_process);

    EvalOptions by_processor;
    by_processor.sim.domain = sim::SharingDomain::Processor;
    cmp.byProcessor = evaluateWorkloads(workloads, by_processor);
    return cmp;
}

TextTable
renderSharingDomain(const SharingDomainComparison &cmp)
{
    const bus::BusCosts pipe = bus::standardBuses().pipelined;
    TextTable table(
        "Extension C: Process- vs processor-based sharing (pipelined "
        "bus cycles per reference, with migration enabled)",
        {"Scheme", "By process", "By processor"});

    auto row = [&](const std::string &name, sim::Scheme scheme,
                   const coherence::EngineResults &proc,
                   const coherence::EngineResults &cpu) {
        table.addRow(
            {name,
             TextTable::num(sim::computeCost(scheme, proc, pipe)
                                .total()),
             TextTable::num(sim::computeCost(scheme, cpu, pipe)
                                .total())});
    };
    row("Dir1NB", sim::Scheme::Dir1NB, cmp.byProcess.average.dir1nb,
        cmp.byProcessor.average.dir1nb);
    row("Dir0B", sim::Scheme::Dir0B, cmp.byProcess.average.inval,
        cmp.byProcessor.average.inval);
    row("Dragon", sim::Scheme::Dragon, cmp.byProcess.average.dragon,
        cmp.byProcessor.average.dragon);
    return table;
}

std::vector<NetworkPoint>
networkStudy(const std::vector<unsigned> &cpuCounts,
             std::uint64_t refsPerCpu)
{
    // Only the inval and dragon columns are priced here.
    const auto matrix = evaluateMatrix(
        scaledConfigs(cpuCounts, refsPerCpu),
        {invalSpec(), {[](unsigned units) {
             return std::make_unique<coherence::DragonEngine>(units);
         }}});
    std::vector<NetworkPoint> points;
    for (std::size_t k = 0; k < cpuCounts.size(); ++k) {
        const unsigned n = cpuCounts[k];
        const auto &iv = matrix[k][0];
        const auto &dg = matrix[k][1];

        bus::NetworkParams net;
        net.nNodes = n;
        const bus::BusCosts directed = bus::networkCosts(net);
        const double bcast = bus::networkBroadcastCost(net);

        NetworkPoint pt;
        pt.nCpus = n;

        // Two-bit directory: no identities, every invalidation and
        // flush request is an emulated broadcast.
        bus::BusCosts broadcast_costs = directed;
        broadcast_costs.invalidate = static_cast<unsigned>(bcast);
        pt.dir0bBroadcast =
            sim::computeCost(sim::Scheme::Dir0B, iv, broadcast_costs)
                .total();

        pt.dirnnbDirected =
            sim::computeCost(sim::Scheme::DirNNBSeq, iv, directed)
                .total();

        sim::CostOptions opts;
        opts.broadcastCost = bcast;
        opts.nPointers = 1;
        pt.dir1b = sim::computeCost(sim::Scheme::DirIB, iv, directed,
                                    opts)
                       .total();
        opts.nPointers = 4;
        pt.dir4b = sim::computeCost(sim::Scheme::DirIB, iv, directed,
                                    opts)
                       .total();

        // Snoopy write-through: every write must reach every cache.
        bus::BusCosts wti_costs = directed;
        wti_costs.writeWord =
            static_cast<unsigned>(bcast) + 1;
        pt.wtiBroadcast =
            sim::computeCost(sim::Scheme::WTI, iv, wti_costs).total();

        // Directory-assisted update protocol: one directed update per
        // actual remote copy (the engines record update fanouts).
        const sim::CostBreakdown dragon_base =
            sim::computeCost(sim::Scheme::Dragon, dg, directed);
        const double refs =
            static_cast<double>(dg.events.totalRefs());
        const double update_events =
            static_cast<double>(dg.events.count(
                coherence::Event::WhDistrib)) +
            static_cast<double>(dg.events.count(
                coherence::Event::WmBlkCln)) +
            static_cast<double>(dg.events.count(
                coherence::Event::WmBlkDrty));
        const double update_messages =
            static_cast<double>(dg.whClnFanout.totalWeight()) +
            static_cast<double>(dg.wmClnFanout.totalWeight());
        // The base model charged one writeWord per update event;
        // charge the extra messages beyond the first.
        const double extra =
            refs == 0.0 ? 0.0
                        : (update_messages - update_events) *
                              directed.writeWord / refs;
        pt.dragonDirected = dragon_base.total() + std::max(0.0, extra);

        points.push_back(pt);
    }
    return points;
}

TextTable
renderNetwork(const std::vector<NetworkPoint> &points)
{
    TextTable table(
        "Extension E: protocols on a point-to-point network "
        "(channel cycles per reference; broadcast = n-1 messages)",
        {"CPUs", "Dir0B (bcast)", "DirnNB", "Dir1B", "Dir4B",
         "WTI (snoop)", "Dragon (dir)"});
    for (const NetworkPoint &pt : points) {
        table.addRow({std::to_string(pt.nCpus),
                      TextTable::num(pt.dir0bBroadcast),
                      TextTable::num(pt.dirnnbDirected),
                      TextTable::num(pt.dir1b),
                      TextTable::num(pt.dir4b),
                      TextTable::num(pt.wtiBroadcast),
                      TextTable::num(pt.dragonDirected)});
    }
    return table;
}

std::vector<HomeLocalityPoint>
homeLocalityStudy(const std::vector<unsigned> &cpuCounts,
                  std::uint64_t refsPerCpu)
{
    // Both placements are columns of one plan over the same traces.
    const auto matrix =
        evaluateMatrix(scaledConfigs(cpuCounts, refsPerCpu),
                       {invalSpec(coherence::HomePolicy::Modulo),
                        invalSpec(coherence::HomePolicy::FirstTouch)});
    std::vector<HomeLocalityPoint> points;
    for (std::size_t k = 0; k < cpuCounts.size(); ++k) {
        const auto &modulo = matrix[k][0];
        const auto &first = matrix[k][1];

        auto local_frac = [](const coherence::EngineResults &r) {
            const double total = static_cast<double>(
                r.homeLocalTransactions + r.homeRemoteTransactions);
            return total == 0.0
                       ? 0.0
                       : static_cast<double>(r.homeLocalTransactions) /
                             total;
        };
        auto remote_per_ref = [](const coherence::EngineResults &r) {
            const double refs =
                static_cast<double>(r.events.totalRefs());
            return refs == 0.0
                       ? 0.0
                       : static_cast<double>(
                             r.homeRemoteTransactions) /
                             refs;
        };

        HomeLocalityPoint pt;
        pt.nCpus = cpuCounts[k];
        pt.moduloLocalFrac = local_frac(modulo);
        pt.firstTouchLocalFrac = local_frac(first);
        pt.moduloRemotePerRef = remote_per_ref(modulo);
        pt.firstTouchRemotePerRef = remote_per_ref(first);
        points.push_back(pt);
    }
    return points;
}

TextTable
renderHomeLocality(const std::vector<HomeLocalityPoint> &points)
{
    TextTable table(
        "Extension G: distributed-directory locality (fraction of "
        "home-node transactions kept local)",
        {"CPUs", "Interleaved local %", "First-touch local %",
         "Interleaved remote/ref", "First-touch remote/ref"});
    for (const HomeLocalityPoint &pt : points) {
        table.addRow({std::to_string(pt.nCpus),
                      TextTable::pct(pt.moduloLocalFrac, 1),
                      TextTable::pct(pt.firstTouchLocalFrac, 1),
                      TextTable::num(pt.moduloRemotePerRef),
                      TextTable::num(pt.firstTouchRemotePerRef)});
    }
    return table;
}

std::vector<DirectoryMessageStats>
directoryMessageStudy(bool fullSize)
{
    const auto workloads = gen::standardWorkloads(fullSize);

    struct Named
    {
        std::string name;
        std::unique_ptr<directory::DirEntryFactory> factory;
    };
    std::vector<Named> organizations;
    organizations.push_back(
        {"Full map (DirnNB)",
         std::make_unique<directory::FullMapFactory>()});
    organizations.push_back(
        {"Two-bit (Dir0B)",
         std::make_unique<directory::TwoBitFactory>()});
    organizations.push_back(
        {"Dir1B", std::make_unique<directory::LimitedPointerFactory>(
                      1, true)});
    organizations.push_back(
        {"Dir2B", std::make_unique<directory::LimitedPointerFactory>(
                      2, true)});
    organizations.push_back(
        {"Coarse vector",
         std::make_unique<directory::CoarseVectorFactory>()});

    // One plan: a shadowed invalidation column per organisation.
    std::vector<EngineSpec> specs;
    for (const Named &org : organizations)
        specs.push_back(invalDirectorySpec(*org.factory));
    const std::vector<coherence::EngineResults> merged = mergeColumns(
        evaluateMatrix(workloads, specs), specs.size());

    std::vector<DirectoryMessageStats> rows;
    for (std::size_t k = 0; k < organizations.size(); ++k) {
        const Named &org = organizations[k];
        const coherence::EngineResults &r = merged[k];
        const double events = static_cast<double>(
            r.whClnFanout.totalSamples() + r.wmClnFanout.totalSamples() +
            r.events.count(coherence::Event::WmBlkDrty));
        DirectoryMessageStats stats;
        stats.organization = org.name;
        if (events > 0.0) {
            stats.directedPerInvalEvent =
                static_cast<double>(r.dirDirectedInvals) / events;
            stats.broadcastFrac =
                static_cast<double>(r.dirBroadcasts) / events;
            stats.overshootPerEvent =
                static_cast<double>(r.dirOvershoot) / events;
        }
        rows.push_back(stats);
    }
    return rows;
}

TextTable
renderDirectoryMessages(const std::vector<DirectoryMessageStats> &rows)
{
    TextTable table(
        "Extension D: Invalidation messages by directory organisation "
        "(per invalidating event)",
        {"Organisation", "Directed msgs", "Broadcast %",
         "Overshoot msgs"});
    for (const DirectoryMessageStats &row : rows) {
        table.addRow({row.organization,
                      TextTable::num(row.directedPerInvalEvent, 3),
                      TextTable::pct(row.broadcastFrac, 1),
                      TextTable::num(row.overshootPerEvent, 3)});
    }
    return table;
}

} // namespace dirsim::analysis
