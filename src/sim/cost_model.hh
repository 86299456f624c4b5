/**
 * @file
 * Protocol cost models: event frequencies x bus-cycle costs.
 *
 * This encodes the paper's accounting, recovered from Sections 4-6 and
 * validated against the published cumulative numbers (Table 5 row
 * "cumulative": Dir1NB 0.3210, WTI 0.1466, Dir0B 0.0491, Dragon
 * 0.0336 bus cycles per reference on the pipelined bus):
 *
 *  - First-reference misses are counted in the event tables but never
 *    charged ("we exclude the misses caused by the first reference to
 *    a block ... because these occur in a uniprocessor infinite cache
 *    as well", Section 4).
 *  - Instruction fetches are never charged.
 *  - A read miss serviced by a dirty remote copy is charged as the
 *    request address plus a write-back: the requester snarfs the data
 *    while memory is updated.
 *  - Directory checks are overlapped with memory accesses whenever a
 *    memory access is in flight; only standalone checks (write hits to
 *    clean blocks) are charged.
 *
 * What every scheme puts on the bus for every event is written once,
 * as data: the ChargeTable below (defined in cost_model.cc).  Three
 * consumers evaluate it — computeCost (per-reference doubles),
 * timing::staticBusCycles (whole-run integers) and
 * timing::TransactionModel (one reference at a time on the timed
 * bus) — so they agree by construction.
 *
 * Per-scheme charging (pipelined-bus cycles in parentheses):
 *
 *  Dir1NB / DiriNB:  rm/wm clean: memory access (5) + displacement
 *    invalidate (1) when a pointer had to be freed; rm/wm dirty:
 *    request (1) + invalidate (1) + write-back (4); write hits free
 *    for i = 1, directory check + directed invalidates for i >= 2.
 *  Dir0B:  rm clean: 5; rm dirty: request (1) + write-back (4);
 *    wm clean: 5 + broadcast invalidate (1); wm dirty: 1 + 4 + 1;
 *    wh clean: dir check (1) + broadcast invalidate (1) unless the
 *    directory's "clean in exactly one cache" state suppresses it.
 *  DirnNB (sequential invalidates): as Dir0B but each invalidation
 *    event costs one cycle per actual copy invalidated.
 *  DiriB:  as DirnNB while copies <= i (directed), otherwise a
 *    broadcast costing b cycles (b is a model parameter).
 *  WTI:  every write goes through (1); misses fetch from memory (5);
 *    snooping makes invalidation free.
 *  Dragon:  misses fetch from memory or the owning cache (5); write
 *    hits to shared blocks distribute a one-word update (1).
 *  Berkeley:  Dir0B with the directory check priced at zero (the
 *    cache's own state supplies the sharing information).
 *  BerkeleyOwn:  the real ownership protocol: any clean write hit
 *    broadcasts one invalidate (no exclusivity knowledge); a miss to
 *    an owned block is a cache-to-cache supply with no memory
 *    write-back.  On the pipelined bus this prices like the flush
 *    (the paper's aside); on the non-pipelined bus it is cheaper.
 *  MESI:  Illinois-style snoopy: the exclusive-clean state makes
 *    exclusive write hits silent; shared write hits broadcast one
 *    invalidate; misses to cached blocks are supplied cache-to-cache.
 *  Yen-Fu:  Dir0B with the standalone check on exclusive clean blocks
 *    free (the single bit answers it) but one extra bus cycle per
 *    1 -> 2 holder transition to keep single bits current.
 *
 * Every scheme also pays for finite-cache replacement write-backs and
 * for directory-cache evictions (force-invalidates plus dirty-victim
 * write-backs).
 */

#ifndef DIRSIM_SIM_COST_MODEL_HH
#define DIRSIM_SIM_COST_MODEL_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "bus/bus_model.hh"
#include "coherence/results.hh"

namespace dirsim::sim
{

/** The protocols the library can cost. */
enum class Scheme
{
    Dir1NB,   //!< Single pointer, no broadcast (uses LimitedEngine i=1).
    DirINB,   //!< i pointers, no broadcast (LimitedEngine, i >= 2).
    Dir0B,    //!< Archibald-Baer two-bit broadcast scheme.
    DirNNBSeq,//!< Full map, sequential directed invalidates (Section 6).
    DirIB,    //!< i pointers + broadcast bit (Section 6).
    WTI,      //!< Write-through-with-invalidate snoopy.
    Dragon,   //!< Update snoopy.
    Berkeley, //!< Berkeley Ownership estimate (Section 5 aside).
    YenFu,    //!< Yen-Fu single-bit refinement (Section 2).
    BerkeleyOwn, //!< Real Berkeley Ownership protocol (owner supplies).
    MESI,     //!< Illinois/MESI snoopy (exclusive-clean state).
};

/** Which engine's results a scheme must be costed from. */
enum class EngineKind
{
    Inval,   //!< InvalEngine (multiple clean / single dirty).
    Limited, //!< LimitedEngine with the scheme's pointer count.
    Dragon,  //!< DragonEngine.
    Berkeley,//!< BerkeleyEngine (ownership persists across reads).
};

/** Engine required to cost @p scheme. */
EngineKind engineKindFor(Scheme scheme);

/** Cost-model parameters. */
struct CostOptions
{
    /** i for DirINB / DirIB. */
    unsigned nPointers = 1;
    /** Broadcast invalidate cost b in cycles (Dir1B model of Sec. 6). */
    double broadcastCost = 1.0;
    /** Fixed overhead q added to every bus transaction (Section 5.1). */
    double overheadQ = 0.0;
};

/** Bus cycles per reference, broken down by operation class. */
struct CostBreakdown
{
    std::string scheme;
    std::string bus;

    /** @name Cycles per reference by category (Table 5 rows).
     *  @{ */
    double memAccess = 0.0;
    double cacheAccess = 0.0;
    double writeBack = 0.0;
    double writeWord = 0.0; //!< Write-throughs and write updates.
    double dirCheck = 0.0;  //!< Non-overlapped directory accesses.
    double invalidate = 0.0;
    double overhead = 0.0;  //!< q-cycles (Section 5.1 sensitivity).
    /** @} */

    /** Bus transactions per reference (Figure 5 / Section 5.1). */
    double transactionsPerRef = 0.0;

    /** Total bus cycles per reference (Table 5 cumulative row). */
    double total() const;
    /** Average cycles per bus transaction (Figure 5). */
    double perTransaction() const;
};

/** Human-readable scheme name ("Dir1NB", "Dir4B", ...). */
std::string schemeName(Scheme scheme, unsigned nPointers = 1);

/** @name The per-scheme bus-charge table.
 *  @{ */

/** How many times a term charges its primitive for one reference. */
enum class Times : std::uint8_t
{
    Once,
    /** k, the number of copies the reference invalidates. */
    Copies,
    /** k while k <= i (directed); beyond, one broadcast of b cycles
     *  (CostOptions::broadcastCost, already in cycles). */
    Pointers,
};

/**
 * One term of a tenure: a bus::BusCosts primitive times a multiplier,
 * booked under the CostBreakdown category that follows from the
 * primitive (requestAddress is counted under memAccess).
 */
struct ChargeTerm
{
    unsigned bus::BusCosts::*op;
    double CostBreakdown::*category;
    Times times = Times::Once;
};

/**
 * One bus tenure of an event: the sum of its terms.  Every such
 * tenure is a counted transaction (transactionsPerRef, overhead q);
 * it uses memory (the timed pipelined bus adds the off-bus memory
 * wait) when it holds a memoryAccess term.
 */
using Tenure = std::vector<ChargeTerm>;

/**
 * One primitive charged per unit of an auxiliary EngineResults
 * counter.  A counted rule is a transaction of its own; an uncounted
 * one is extra occupancy folded into the reference's last tenure.
 */
struct AuxRule
{
    std::uint64_t coherence::EngineResults::*counter;
    ChargeTerm term;
    bool counted;
};

/** What one scheme puts on the bus. */
struct ChargeTable
{
    /** Tenures per event, indexed by coherence::Event. */
    std::array<std::vector<Tenure>, coherence::numEvents> events;
    /** The scheme's own auxiliary rules, then the tail every scheme
     *  shares (replacement and directory-cache eviction traffic). */
    std::vector<AuxRule> aux;
};

/** The table for @p scheme at @p nPointers pointers (DiriNB with
 *  i < 2 is Dir1NB: a single pointer makes write hits free). */
const ChargeTable &chargeTable(Scheme scheme, unsigned nPointers);

/** An EngineResults fanout histogram. */
using Fanout = stats::Histogram coherence::EngineResults::*;

/**
 * The fanout histogram whose samples are the k of @p event's
 * references, or nullptr where k is always 0.  Each histogram belongs
 * to exactly one event, so a whole-run sum over it counts every
 * sample once.
 */
Fanout fanoutOf(coherence::Event event);

/** @} */

/**
 * Cost @p scheme from an engine run.
 *
 * @param scheme Protocol to cost; must match the engine kind
 *        (engineKindFor) or the result is meaningless.
 * @param results Statistics from the matching engine.
 * @param bus Bus-cycle cost table.
 * @param opts Scheme parameters and sensitivity knobs.
 */
CostBreakdown computeCost(Scheme scheme,
                          const coherence::EngineResults &results,
                          const bus::BusCosts &bus,
                          const CostOptions &opts = CostOptions{});

/**
 * Whole-run bus cycles of @p scheme in exact integers: the table
 * summed over @p results, plus @p overheadQ per counted transaction,
 * with @p broadcastCycles as b.
 */
std::uint64_t integerBusCycles(Scheme scheme,
                               const coherence::EngineResults &results,
                               const bus::BusCosts &bus,
                               unsigned nPointers,
                               std::uint64_t broadcastCycles,
                               std::uint64_t overheadQ);

} // namespace dirsim::sim

#endif // DIRSIM_SIM_COST_MODEL_HH
