/**
 * @file
 * Per-reference bus transactions for the timed model.
 *
 * The static cost model (sim/cost_model.hh) charges *aggregate* event
 * frequencies; a timed bus needs the charge of *each* reference at the
 * moment it executes.  Both evaluate the same sim::ChargeTable.
 * TransactionModel resolves the table against one bus and one set of
 * cost options when it is built, then recovers each reference's event
 * by diffing the engine's EngineResults across one access() call
 * (exactly one event is recorded per reference, and the fanout and
 * auxiliary counters each change by a knowable delta) and applies that
 * event's row.
 *
 * Charge rules, in the order they are applied to one reference:
 *  - the event's tenures, each a counted transaction carrying the
 *    overhead q (a WTI write miss is two: the fill and the
 *    write-through);
 *  - the scheme's auxiliary rules, then the tail every scheme shares.
 *    A counted rule is a tenure of its own (Yen-Fu's 1 -> 2 holder
 *    growth); an uncounted one (displacement invalidates, replacement
 *    write-backs, directory-cache eviction traffic) folds into the
 *    reference's last tenure, or becomes an uncounted tenure when
 *    there is none.
 * Zero-cycle tenures are dropped: they occupy nothing.
 */

#ifndef DIRSIM_TIMING_TRANSACTIONS_HH
#define DIRSIM_TIMING_TRANSACTIONS_HH

#include <array>
#include <cassert>
#include <cstdint>
#include <vector>

#include "bus/bus_model.hh"
#include "coherence/results.hh"
#include "sim/cost_model.hh"

namespace dirsim::timing
{

/** One bus tenure a reference needs. */
struct TxnCharge
{
    /** Bus occupancy in cycles, including any per-transaction
     *  overhead q (CostOptions::overheadQ). */
    std::uint32_t busCycles = 0;
    /** Carries a main-memory block read (pipelined buses add the
     *  off-bus memory wait to the requester's latency). */
    bool usesMemory = false;
    /** Counted by the static model's transactionsPerRef (and hence
     *  charged overhead q). */
    bool counted = true;
};

/** Everything one reference asks of the bus (possibly nothing). */
struct RefCharge
{
    std::array<TxnCharge, 3> txns;
    unsigned count = 0;

    void
    add(std::uint32_t cycles, bool usesMemory, bool counted)
    {
        assert(count < txns.size());
        txns[count++] = TxnCharge{cycles, usesMemory, counted};
    }

    bool empty() const { return count == 0; }
};

/**
 * Stateful per-reference charger for one (scheme, bus) pair.
 *
 * Drive it in lock-step with the engine: after every
 * engine->access(), call charge(engine->results()) to get that
 * reference's bus transactions.  The model snapshots the counters it
 * needs, so the engine must not be shared with another charger.
 *
 * The constructor validates that CostOptions::broadcastCost and
 * ::overheadQ are non-negative integers — the timed model deals in
 * whole cycles — and throws std::invalid_argument otherwise.
 */
class TransactionModel
{
  public:
    TransactionModel(sim::Scheme scheme, const bus::BusCosts &bus,
                     const sim::CostOptions &opts = sim::CostOptions{});

    /** Diff @p results against the snapshot and emit this
     *  reference's transactions.  Instruction fetches, hits and
     *  first-reference misses come back empty (for most schemes). */
    RefCharge charge(const coherence::EngineResults &results);

    /** Forget the snapshot (call alongside engine->reset()). */
    void reset();

    sim::Scheme scheme() const { return _scheme; }

  private:
    /** One table tenure resolved against the bus and options:
     *  fixed + k * perCopy + (k <= i ? k * perPointer : broadcast). */
    struct ResolvedTenure
    {
        std::uint32_t fixed = 0;
        std::uint32_t perCopy = 0;
        std::uint32_t perPointer = 0;
        std::uint32_t broadcast = 0;
        bool usesMemory = false;
    };
    /** One event's row. */
    struct Row
    {
        std::array<ResolvedTenure, 2> tenures;
        std::uint8_t count = 0;
        /** Where k comes from: 0 none, 1 whClnFanout, 2 wmClnFanout. */
        std::uint8_t fanout = 0;
    };
    /** One auxiliary rule resolved against the bus. */
    struct Aux
    {
        std::uint64_t coherence::EngineResults::*counter;
        std::uint32_t cycles;
        bool counted;
    };

    sim::Scheme _scheme;
    unsigned _nPointers;
    std::uint32_t _overheadQ;
    std::array<Row, coherence::numEvents> _rows;
    std::vector<Aux> _aux;

    /** @name Snapshot of the counters at the previous charge().
     *  @{ */
    std::array<std::uint64_t, coherence::numEvents> _events{};
    std::uint64_t _totalRefs = 0;
    std::uint64_t _whWeight = 0;
    std::uint64_t _wmWeight = 0;
    std::vector<std::uint64_t> _auxCounts;
    /** @} */
};

/**
 * Total bus cycles of a whole run in exact integer arithmetic: the
 * charge table summed over @p results, with overhead q per counted
 * transaction.  The timed simulator's busBusyCycles equals this for
 * any run of the matching engine; dividing by totalRefs() recovers
 * computeCost().total() to floating-point precision.  Throws
 * std::invalid_argument on non-integer broadcastCost/overheadQ.
 */
std::uint64_t
staticBusCycles(sim::Scheme scheme,
                const coherence::EngineResults &results,
                const bus::BusCosts &bus,
                const sim::CostOptions &opts = sim::CostOptions{});

} // namespace dirsim::timing

#endif // DIRSIM_TIMING_TRANSACTIONS_HH
