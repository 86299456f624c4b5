/**
 * @file
 * Extension F: ablations of fixed design choices in the paper.
 *
 *  - Block size: the paper fixes 4-word (16-byte) blocks.  Sweeping
 *    the block size trades spatial prefetch (fewer misses) against
 *    false sharing (more invalidations) and longer transfers.
 *  - Lock placement: each lock word in its own block versus two lock
 *    words falsely shared per block — a classic layout pathology that
 *    multiplies coherence traffic without any change in program
 *    logic.
 *  - Migration rate: how quickly sharing induced purely by process
 *    migration pollutes the processor-domain numbers.
 */

#include "bench_common.hh"

#include "bus/bus_model.hh"
#include "sim/cost_model.hh"
#include "stats/table.hh"

namespace
{

using namespace dirsim;

std::string
blockSizeExhibit()
{
    const auto pipe_base = bus::BusPrimitives{};
    stats::TextTable table(
        "Ablation F1: coherence block size (pops workload, pipelined "
        "bus)",
        {"Block", "Dir0B rm %", "wh-cln %", "Dir0B cyc/ref",
         "Dragon cyc/ref"});
    for (unsigned block_bytes : {4u, 8u, 16u, 32u, 64u}) {
        // The workload's data layout is fixed (16-byte object
        // granularity); only the coherence block size varies, so
        // large blocks genuinely group neighbouring objects (false
        // sharing) and prefetch neighbours (fewer first misses).
        gen::WorkloadConfig cfg = gen::popsConfig();
        cfg.totalRefs = 300'000;

        analysis::EvalOptions opts = dirsim::bench::sweepOptions();
        opts.sim.blockBytes = block_bytes;
        const auto eval = analysis::evaluateWorkloads({cfg}, opts);

        // Larger blocks transfer more words per miss.
        bus::BusPrimitives prim = pipe_base;
        prim.wordsPerBlock = std::max(1u, block_bytes / 4);
        const bus::BusCosts pipe = bus::pipelinedBus(prim);

        const auto &iv = eval.average.inval;
        const double refs =
            static_cast<double>(iv.events.totalRefs());
        table.addRow(
            {std::to_string(block_bytes) + "B",
             stats::TextTable::pct(
                 static_cast<double>(iv.events.readMisses()) / refs),
             stats::TextTable::pct(
                 static_cast<double>(iv.events.writeHitsClean()) /
                 refs),
             stats::TextTable::num(
                 sim::computeCost(sim::Scheme::Dir0B, iv, pipe)
                     .total()),
             stats::TextTable::num(
                 sim::computeCost(sim::Scheme::Dragon,
                                  eval.average.dragon, pipe)
                     .total())});
    }
    return table.toString();
}

std::string
falseSharingExhibit()
{
    stats::TextTable table(
        "Ablation F2: lock placement (pops workload, pipelined bus "
        "cycles per reference)",
        {"Layout", "Dir1NB", "Dir0B", "Dragon"});
    const auto pipe = bus::standardBuses().pipelined;
    for (bool false_sharing : {false, true}) {
        gen::WorkloadConfig cfg = gen::popsConfig();
        cfg.totalRefs = 300'000;
        // Two equally hot locks so the falsely-shared pair is
        // actually contended concurrently.
        cfg.behavior.nHotLocks = 2;
        cfg.space.falseSharingLocks = false_sharing;
        const auto eval = analysis::evaluateWorkloads(
            {cfg}, dirsim::bench::sweepOptions());
        table.addRow(
            {false_sharing ? "2 locks / block" : "1 lock / block",
             stats::TextTable::num(
                 sim::computeCost(sim::Scheme::Dir1NB,
                                  eval.average.dir1nb, pipe)
                     .total()),
             stats::TextTable::num(
                 sim::computeCost(sim::Scheme::Dir0B,
                                  eval.average.inval, pipe)
                     .total()),
             stats::TextTable::num(
                 sim::computeCost(sim::Scheme::Dragon,
                                  eval.average.dragon, pipe)
                     .total())});
    }
    return table.toString();
}

std::string
migrationExhibit()
{
    stats::TextTable table(
        "Ablation F3: process migration rate (pops workload, "
        "processor-domain sharing, pipelined bus)",
        {"Migration/quantum", "Dir0B", "Dragon"});
    const auto pipe = bus::standardBuses().pipelined;
    for (double rate : {0.0, 0.05, 0.25}) {
        gen::WorkloadConfig cfg = gen::popsConfig();
        cfg.totalRefs = 300'000;
        cfg.migrationRate = rate;
        cfg.quantumRefs = 20'000;
        analysis::EvalOptions opts = dirsim::bench::sweepOptions();
        opts.sim.domain = sim::SharingDomain::Processor;
        opts.nUnits = cfg.space.nCpus;
        const auto eval = analysis::evaluateWorkloads({cfg}, opts);
        table.addRow(
            {stats::TextTable::num(rate, 2),
             stats::TextTable::num(
                 sim::computeCost(sim::Scheme::Dir0B,
                                  eval.average.inval, pipe)
                     .total()),
             stats::TextTable::num(
                 sim::computeCost(sim::Scheme::Dragon,
                                  eval.average.dragon, pipe)
                     .total())});
    }
    return table.toString();
}

void
BM_BlockSizeSweepPoint(benchmark::State &state)
{
    gen::WorkloadConfig cfg = gen::popsConfig();
    cfg.totalRefs = 100'000;
    cfg.space.blockBytes = static_cast<unsigned>(state.range(0));
    analysis::EvalOptions opts;
    opts.sim.blockBytes = cfg.space.blockBytes;
    for (auto _ : state) {
        const auto eval = analysis::evaluateWorkloads({cfg}, opts);
        benchmark::DoNotOptimize(
            eval.average.inval.events.totalRefs());
    }
}
BENCHMARK(BM_BlockSizeSweepPoint)->Arg(4)->Arg(64);

} // namespace

int
main(int argc, char **argv)
{
    dirsim::bench::parseJobs(&argc, argv);
    return dirsim::bench::runBench(argc, argv, [] {
        dirsim::bench::WallTimer timer;
        std::string exhibit = blockSizeExhibit() + "\n" +
                              falseSharingExhibit() + "\n" +
                              migrationExhibit();
        std::ostringstream timing;
        timing << "\n[sweep] ablation sweeps (--jobs "
               << dirsim::bench::sweepJobs() << "): " << timer.seconds()
               << " s\n";
        return exhibit + timing.str();
    });
}
