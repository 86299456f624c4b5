/**
 * @file
 * Per-reference bus transactions for the timed model.
 *
 * The static cost model (sim/cost_model.hh) charges *aggregate* event
 * frequencies; a timed bus needs the charge of *each* reference at the
 * moment it executes.  Both evaluate the same sim::ChargeTable.
 * TransactionModel resolves the table against one bus and one set of
 * cost options when it is built.  The engine reports each reference's
 * outcome itself (CoherenceEngine::accessRecorded fills one
 * coherence::RefOutcome per reference: the event, the fanout k and the
 * aux-counter deltas), and the model applies that event's row to it.
 * Most references use no bus at all; busFree() recognises them from
 * the outcome's aux byte and a precomputed empty-row flag, without
 * assembling a charge.
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
#include "coherence/outcome.hh"
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
 * Per-reference charger for one (scheme, bus) pair: applies the
 * resolved charge-table row to each reference's coherence::RefOutcome
 * (see file header).  Stateless once built, so one model may charge
 * any number of runs.
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

    /** @p outcome needs no bus: its event's row is empty and it
     *  moved no charged aux counter.  charge() of such an outcome is
     *  empty; the converse need not hold. */
    bool
    busFree(const coherence::RefOutcome &outcome) const
    {
        return outcome.auxMask == 0 &&
               _rows[static_cast<std::size_t>(outcome.event)].count == 0;
    }

    /** The reference's transactions.  Instruction fetches, hits and
     *  first-reference misses come back empty (for most schemes). */
    RefCharge charge(const coherence::RefOutcome &outcome) const;

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
    /** One event's row, without the tenures that are zero cycles for
     *  every k (they would be dropped anyway). */
    struct Row
    {
        std::array<ResolvedTenure, 2> tenures;
        std::uint8_t count = 0;
        /** k is the outcome's fanout (else 0: sim::fanoutOf). */
        bool fanout = false;
    };
    /** One auxiliary rule resolved against the bus. */
    struct Aux
    {
        std::size_t counter; //!< Index into RefOutcome::aux.
        std::uint32_t cycles;
        bool counted;
    };

    sim::Scheme _scheme;
    unsigned _nPointers;
    std::uint32_t _overheadQ;
    std::array<Row, coherence::numEvents> _rows;
    std::vector<Aux> _aux;
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
