/**
 * @file
 * The per-scheme charge table against an independent reference.
 *
 * sim::computeCost and timing::staticBusCycles both evaluate the one
 * charge table in sim/cost_model.cc.  The oracle below is the
 * hand-written integer accounting the table replaced, kept verbatim
 * as a test-only reference: for every scheme, both buses, q in {0, 1},
 * b in {1, 4} and i in {1, 2, 4}, over results from every engine kind
 * (finite caches and directory caches included), the table-driven
 * staticBusCycles must equal the oracle exactly, and computeCost
 * times the reference count must equal it to rounding.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bus/bus_model.hh"
#include "gen/workload.hh"
#include "gen/workloads.hh"
#include "golden_data.hh"
#include "sim/cost_model.hh"
#include "sim/simulator.hh"
#include "timing/transactions.hh"

namespace
{

using namespace dirsim;
using coherence::EngineResults;
using coherence::Event;

// --- The oracle: integer accounting written scheme by scheme --------

std::uint32_t
toCycles(double value, const char *what)
{
    if (!(value >= 0.0) || value != std::floor(value) ||
        value > static_cast<double>(
                    std::numeric_limits<std::uint32_t>::max())) {
        throw std::invalid_argument(
            std::string("timed bus: ") + what +
            " must be a non-negative whole number of cycles");
    }
    return static_cast<std::uint32_t>(value);
}

std::uint64_t
pointerInvalCycles(const stats::Histogram &hist, unsigned limit,
                   std::uint64_t directed, std::uint64_t broadcast)
{
    std::uint64_t cycles = 0;
    for (std::size_t k = 0; k <= hist.maxValue(); ++k) {
        const std::uint64_t n = hist.count(k);
        if (n == 0)
            continue;
        cycles += k <= limit ? n * k * directed : n * broadcast;
    }
    return cycles;
}

std::uint64_t
oracleBusCycles(sim::Scheme scheme, const EngineResults &results,
                const bus::BusCosts &bus, const sim::CostOptions &opts)
{
    const std::uint64_t bcast =
        toCycles(opts.broadcastCost, "broadcastCost");
    const std::uint64_t q = toCycles(opts.overheadQ, "overheadQ");
    const unsigned nPtrs =
        scheme == sim::Scheme::Dir1NB ? 1 : opts.nPointers;

    const auto c = [&](Event e) { return results.events.count(e); };
    const std::uint64_t rm =
        c(Event::RmBlkCln) + c(Event::RmBlkDrty) + c(Event::RmMemory);
    const std::uint64_t wm =
        c(Event::WmBlkCln) + c(Event::WmBlkDrty) + c(Event::WmMemory);
    const std::uint64_t mm = c(Event::RmBlkCln) + c(Event::RmMemory) +
                             c(Event::WmBlkCln) + c(Event::WmMemory);
    const std::uint64_t md =
        c(Event::RmBlkDrty) + c(Event::WmBlkDrty);
    const std::uint64_t whCln =
        c(Event::WhBlkClnExcl) + c(Event::WhBlkClnShared);
    const std::uint64_t whW = results.whClnFanout.totalWeight();
    const std::uint64_t wmW = results.wmClnFanout.totalWeight();

    const std::uint64_t mem = bus.memoryAccess;
    const std::uint64_t cache = bus.cacheAccess;
    const std::uint64_t wb = bus.writeBack;
    const std::uint64_t ww = bus.writeWord;
    const std::uint64_t dc = bus.directoryCheck;
    const std::uint64_t inv = bus.invalidate;
    const std::uint64_t req = bus.requestAddress;

    std::uint64_t cycles = 0;
    std::uint64_t txns = 0;

    switch (scheme) {
      case sim::Scheme::Dir1NB:
      case sim::Scheme::DirINB:
        cycles = mm * mem + md * (req + wb + inv) +
                 (wmW + whW + results.displacementInvals) * inv;
        txns = rm + wm;
        if (nPtrs >= 2) {
            cycles += whCln * dc;
            txns += whCln;
        }
        break;
      case sim::Scheme::Dir0B:
        cycles = mm * mem + md * (req + wb) +
                 (c(Event::WmBlkCln) + c(Event::WmBlkDrty) +
                  c(Event::WhBlkClnShared)) *
                     inv +
                 whCln * dc;
        txns = rm + wm + whCln;
        break;
      case sim::Scheme::DirNNBSeq:
        cycles = mm * mem + md * (req + wb) +
                 (whW + wmW + c(Event::WmBlkDrty)) * inv + whCln * dc;
        txns = rm + wm + whCln;
        break;
      case sim::Scheme::DirIB:
        cycles = mm * mem + md * (req + wb) +
                 pointerInvalCycles(results.whClnFanout, nPtrs, inv,
                                    bcast) +
                 pointerInvalCycles(results.wmClnFanout, nPtrs, inv,
                                    bcast) +
                 c(Event::WmBlkDrty) * inv + whCln * dc;
        txns = rm + wm + whCln;
        break;
      case sim::Scheme::WTI:
        cycles = (rm + wm) * mem + results.events.writes() * ww;
        txns = rm + wm + results.events.writes();
        break;
      case sim::Scheme::Dragon:
        cycles = mm * mem + md * cache +
                 (c(Event::WhDistrib) + c(Event::WmBlkCln) +
                  c(Event::WmBlkDrty)) *
                     ww;
        txns = rm + wm + c(Event::WhDistrib);
        break;
      case sim::Scheme::Berkeley:
        cycles = mm * mem + md * (req + wb) +
                 (c(Event::WmBlkCln) + c(Event::WmBlkDrty) +
                  c(Event::WhBlkClnShared)) *
                     inv;
        txns = rm + wm + c(Event::WhBlkClnShared);
        break;
      case sim::Scheme::YenFu:
        cycles = mm * mem + md * (req + wb) +
                 (c(Event::WmBlkCln) + c(Event::WmBlkDrty) +
                  c(Event::WhBlkClnShared)) *
                     inv +
                 c(Event::WhBlkClnShared) * dc +
                 results.holderGrowth12 * ww;
        txns = rm + wm + c(Event::WhBlkClnShared) +
               results.holderGrowth12;
        break;
      case sim::Scheme::BerkeleyOwn:
        cycles = mm * mem + md * cache +
                 (whCln + c(Event::WmBlkCln) + c(Event::WmBlkDrty)) *
                     inv;
        txns = rm + wm + whCln;
        break;
      case sim::Scheme::MESI:
        cycles = (c(Event::RmMemory) + c(Event::WmMemory)) * mem +
                 (c(Event::RmBlkCln) + c(Event::WmBlkCln)) * cache +
                 md * (req + wb) +
                 (c(Event::WhBlkClnShared) + c(Event::WmBlkCln) +
                  c(Event::WmBlkDrty)) *
                     inv;
        txns = rm + wm + c(Event::WhBlkClnShared);
        break;
    }

    return cycles + results.replacementWriteBacks * wb +
           results.dirCacheEvictionInvals * inv +
           results.dirCacheEvictionWriteBacks * wb + txns * q;
}

// --- Engine results to cost -----------------------------------------

/** One engine run and the kind of engine that produced it. */
struct EngineRun
{
    std::string label;
    sim::EngineKind kind;
    unsigned pointers; //!< LimitedEngine pointer count (else 0).
    EngineResults results;
};

/**
 * Does @p run feed @p scheme at @p nPointers?  A scheme is costed from
 * its engine kind (sim::engineKindFor); the Berkeley engine classifies
 * events exactly as the invalidation model does, so it feeds the same
 * schemes.  A limited engine must carry the scheme's pointer count.
 */
bool
feeds(const EngineRun &run, sim::Scheme scheme, unsigned nPointers)
{
    const sim::EngineKind want = sim::engineKindFor(scheme);
    if (run.kind == sim::EngineKind::Limited)
        return want == sim::EngineKind::Limited &&
               run.pointers ==
                   (scheme == sim::Scheme::Dir1NB ? 1 : nPointers);
    if (run.kind == sim::EngineKind::Berkeley)
        return want == sim::EngineKind::Inval;
    return want == run.kind;
}

/**
 * Every engine variant over one small workload: each golden-fixture
 * engine with the paper's entry-per-block directory and, where it
 * models a directory, behind a small evicting directory cache; plus
 * a four-pointer limited engine.
 */
const std::vector<EngineRun> &
engineRuns()
{
    static const std::vector<EngineRun> runs = [] {
        gen::WorkloadConfig workload = gen::standardWorkloads()[0];
        workload.totalRefs = 20'000;
        const unsigned units = workload.space.nProcesses;
        directory::DirCacheConfig small;
        small.enabled = true;
        small.entries = 64;
        small.associativity = 4;

        struct Maker
        {
            std::string label;
            sim::EngineKind kind;
            unsigned pointers;
            std::function<std::unique_ptr<coherence::CoherenceEngine>(
                const directory::DirCacheConfig *)>
                make;
            bool dirCacheCapable;
        };
        std::vector<Maker> makers;
        for (const golden::Scheme &g : golden::kSchemes) {
            const std::string label = g.label;
            sim::EngineKind kind = sim::EngineKind::Inval;
            unsigned pointers = 0;
            if (label == "dir1nb" || label == "dir2nb") {
                kind = sim::EngineKind::Limited;
                pointers = label == "dir1nb" ? 1 : 2;
            } else if (label == "dragon") {
                kind = sim::EngineKind::Dragon;
            } else if (label == "berkeley") {
                kind = sim::EngineKind::Berkeley;
            }
            makers.push_back({label, kind, pointers,
                              [&g, units](const auto *dc) {
                                  return g.make(units, dc);
                              },
                              g.dirCacheCapable});
        }
        makers.push_back(
            {"dir4nb", sim::EngineKind::Limited, 4,
             [units](const directory::DirCacheConfig *dc) {
                 return std::make_unique<coherence::LimitedEngine>(
                     units, 4,
                     dc ? *dc : directory::DirCacheConfig{});
             },
             true});

        std::vector<EngineRun> out;
        for (const Maker &m : makers) {
            for (const bool cached : {false, true}) {
                if (cached && !m.dirCacheCapable)
                    continue;
                sim::Simulator simulator;
                auto &engine =
                    simulator.addEngine(m.make(cached ? &small : nullptr));
                gen::WorkloadSource source(workload);
                simulator.run(source);
                out.push_back({m.label + (cached ? "+dircache" : ""),
                               m.kind, m.pointers, engine.results()});
            }
        }
        return out;
    }();
    return runs;
}

class CostTableOracle : public ::testing::TestWithParam<sim::Scheme>
{
};

TEST_P(CostTableOracle, TableMatchesIndependentAccounting)
{
    const sim::Scheme scheme = GetParam();
    const auto buses = bus::standardBuses();
    unsigned checked = 0;
    for (const EngineRun &run : engineRuns()) {
        for (const unsigned i : {1u, 2u, 4u}) {
            if (!feeds(run, scheme, i))
                continue;
            for (const bus::BusCosts *bus :
                 {&buses.pipelined, &buses.nonPipelined}) {
                for (const double q : {0.0, 1.0}) {
                    for (const double b : {1.0, 4.0}) {
                        sim::CostOptions opts;
                        opts.nPointers = i;
                        opts.overheadQ = q;
                        opts.broadcastCost = b;
                        const std::string label =
                            sim::schemeName(scheme, i) + " on " +
                            run.label + " / " + bus->name +
                            " q=" + std::to_string(q) +
                            " b=" + std::to_string(b);

                        const std::uint64_t expected =
                            oracleBusCycles(scheme, run.results, *bus,
                                            opts);
                        EXPECT_EQ(timing::staticBusCycles(
                                      scheme, run.results, *bus, opts),
                                  expected)
                            << label;
                        const double refs = static_cast<double>(
                            run.results.events.totalRefs());
                        EXPECT_NEAR(sim::computeCost(scheme, run.results,
                                                     *bus, opts)
                                            .total() *
                                        refs,
                                    static_cast<double>(expected),
                                    1e-9 * static_cast<double>(expected))
                            << label;
                        ++checked;
                    }
                }
            }
        }
    }
    // Every scheme meets at least one engine run of its kind under
    // every bus, q and b.
    EXPECT_GE(checked, 2u * 2u * 2u) << sim::schemeName(scheme);
}

INSTANTIATE_TEST_SUITE_P(
    EveryScheme, CostTableOracle,
    ::testing::Values(sim::Scheme::Dir1NB, sim::Scheme::DirINB,
                      sim::Scheme::Dir0B, sim::Scheme::DirNNBSeq,
                      sim::Scheme::DirIB, sim::Scheme::WTI,
                      sim::Scheme::Dragon, sim::Scheme::Berkeley,
                      sim::Scheme::YenFu, sim::Scheme::BerkeleyOwn,
                      sim::Scheme::MESI),
    [](const ::testing::TestParamInfo<sim::Scheme> &info) {
        std::string name = sim::schemeName(info.param, 4);
        std::erase_if(name, [](char c) { return !std::isalnum(c); });
        return name;
    });

} // namespace
