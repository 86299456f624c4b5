#include "sim/cost_model.hh"

namespace dirsim::sim
{

using coherence::EngineResults;
using coherence::Event;

EngineKind
engineKindFor(Scheme scheme)
{
    switch (scheme) {
      case Scheme::Dir1NB:
      case Scheme::DirINB:
        return EngineKind::Limited;
      case Scheme::Dragon:
        return EngineKind::Dragon;
      default:
        return EngineKind::Inval;
    }
}

std::string
schemeName(Scheme scheme, unsigned nPointers)
{
    switch (scheme) {
      case Scheme::Dir1NB:
        return "Dir1NB";
      case Scheme::DirINB:
        return "Dir" + std::to_string(nPointers) + "NB";
      case Scheme::Dir0B:
        return "Dir0B";
      case Scheme::DirNNBSeq:
        return "DirnNB";
      case Scheme::DirIB:
        return "Dir" + std::to_string(nPointers) + "B";
      case Scheme::WTI:
        return "WTI";
      case Scheme::Dragon:
        return "Dragon";
      case Scheme::Berkeley:
        return "Berkeley";
      case Scheme::YenFu:
        return "Yen-Fu";
      case Scheme::BerkeleyOwn:
        return "Berkeley (own)";
      case Scheme::MESI:
        return "MESI";
    }
    return "?";
}

double
CostBreakdown::total() const
{
    return memAccess + cacheAccess + writeBack + writeWord + dirCheck +
           invalidate + overhead;
}

double
CostBreakdown::perTransaction() const
{
    return transactionsPerRef == 0.0 ? 0.0
                                     : total() / transactionsPerRef;
}

Fanout
fanoutOf(Event event)
{
    // Exclusive clean write hits sample k = 0 into whClnFanout, so the
    // shared ones may own it whole.
    if (event == Event::WhBlkClnShared)
        return &EngineResults::whClnFanout;
    if (event == Event::WmBlkCln)
        return &EngineResults::wmClnFanout;
    return nullptr;
}

namespace
{

using bus::BusCosts;

/** One table line: events that put the same tenures on the bus. */
struct Row
{
    std::vector<Event> events;
    std::vector<Tenure> tenures;
};

constexpr ChargeTerm mem{&BusCosts::memoryAccess, &CostBreakdown::memAccess};
constexpr ChargeTerm cache{&BusCosts::cacheAccess,
                           &CostBreakdown::cacheAccess};
constexpr ChargeTerm wb{&BusCosts::writeBack, &CostBreakdown::writeBack};
constexpr ChargeTerm ww{&BusCosts::writeWord, &CostBreakdown::writeWord};
constexpr ChargeTerm dc{&BusCosts::directoryCheck,
                        &CostBreakdown::dirCheck};
constexpr ChargeTerm inv{&BusCosts::invalidate,
                         &CostBreakdown::invalidate};
constexpr ChargeTerm req{&BusCosts::requestAddress,
                         &CostBreakdown::memAccess};
// One directed invalidate per copy; DiriB's directed-or-broadcast one.
constexpr ChargeTerm invK{&BusCosts::invalidate,
                          &CostBreakdown::invalidate, Times::Copies};
constexpr ChargeTerm invP{&BusCosts::invalidate,
                          &CostBreakdown::invalidate, Times::Pointers};

ChargeTable
makeTable(const std::vector<Row> &rows, std::vector<AuxRule> aux = {})
{
    ChargeTable table;
    for (const Row &row : rows)
        for (const Event event : row.events)
            table.events[static_cast<std::size_t>(event)] = row.tenures;
    // Finite-cache replacement write-backs and directory-cache
    // evictions (every copy of the victim invalidated, a dirty victim
    // flushed) use the bus under every scheme, but are not
    // transactions of their own.
    aux.insert(aux.end(),
               {{&EngineResults::replacementWriteBacks, wb, false},
                {&EngineResults::dirCacheEvictionInvals, inv, false},
                {&EngineResults::dirCacheEvictionWriteBacks, wb, false}});
    table.aux = std::move(aux);
    return table;
}

constexpr std::size_t numSchemes =
    static_cast<std::size_t>(Scheme::MESI) + 1;

/** The charge table of every scheme, indexed by Scheme. */
const std::array<ChargeTable, numSchemes> &
tables()
{
    static const std::array<ChargeTable, numSchemes> all = [] {
        using enum Event;
        // Rows the directory schemes share: memory services misses to
        // clean or uncached blocks, and a dirty miss is a request
        // answered by the owner's write-back (invalidating the owner
        // when the requester writes).
        const Row fill{{RmBlkCln, RmMemory, WmMemory}, {{mem}}};
        const Row rmDirty{{RmBlkDrty}, {{req, wb}}};
        const Row wmDirty{{WmBlkDrty}, {{req, wb, inv}}};
        // Pointer displacements on limited-pointer fills.
        const AuxRule displaced{&EngineResults::displacementInvals, inv,
                                false};

        std::array<ChargeTable, numSchemes> t;
        const auto at = [&t](Scheme s) -> ChargeTable & {
            return t[static_cast<std::size_t>(s)];
        };
        // A single pointer makes a cached block exclusive by
        // construction, so write hits are free.
        at(Scheme::Dir1NB) =
            makeTable({fill,
                       {{WmBlkCln}, {{mem, invK}}},
                       {{RmBlkDrty, WmBlkDrty}, {{req, wb, inv}}}},
                      {displaced});
        // With more pointers a clean write hit consults the directory.
        at(Scheme::DirINB) = at(Scheme::Dir1NB);
        at(Scheme::DirINB).events[std::size_t(WhBlkClnExcl)] = {{dc}};
        at(Scheme::DirINB).events[std::size_t(WhBlkClnShared)] = {
            {dc, invK}};
        // Broadcast invalidates cost one bus cycle, like a single
        // invalidate (Section 4.3's simplifying assumption).  The
        // "clean in exactly one cache" state suppresses the broadcast
        // on exclusive write hits.
        at(Scheme::Dir0B) = makeTable({fill, rmDirty, wmDirty,
                                       {{WmBlkCln}, {{mem, inv}}},
                                       {{WhBlkClnExcl}, {{dc}}},
                                       {{WhBlkClnShared}, {{dc, inv}}}});
        // One directed message per actual copy.
        at(Scheme::DirNNBSeq) =
            makeTable({fill, rmDirty, wmDirty,
                       {{WmBlkCln}, {{mem, invK}}},
                       {{WhBlkClnExcl}, {{dc}}},
                       {{WhBlkClnShared}, {{dc, invK}}}});
        // Directed while the pointers suffice; broadcast (b cycles)
        // once the copy count exceeds i.
        at(Scheme::DirIB) =
            makeTable({fill, rmDirty, wmDirty,
                       {{WmBlkCln}, {{mem, invP}}},
                       {{WhBlkClnExcl}, {{dc}}},
                       {{WhBlkClnShared}, {{dc, invP}}}});
        // Write-through keeps memory current: every miss is serviced
        // by memory and every write crosses the bus (a write miss as a
        // second tenure); snooping does the invalidation for free.
        at(Scheme::WTI) = makeTable(
            {{{RmBlkCln, RmBlkDrty, RmMemory}, {{mem}}},
             {{WmBlkCln, WmBlkDrty, WmMemory}, {{mem}, {ww}}},
             {{WhBlkDrty, WhBlkClnExcl, WhBlkClnShared, WhDistrib,
               WhLocal, WmFirstRef},
              {{ww}}}});
        at(Scheme::Dragon) = makeTable({fill,
                                        {{RmBlkDrty}, {{cache}}},
                                        {{WmBlkCln}, {{mem, ww}}},
                                        {{WmBlkDrty}, {{cache, ww}}},
                                        {{WhDistrib}, {{ww}}}});
        // Dir0B with the directory probe priced at zero: the block's
        // cached state already says whether an invalidation is needed,
        // so exclusive clean write hits no longer touch the bus.
        at(Scheme::Berkeley) = makeTable({fill, rmDirty, wmDirty,
                                          {{WmBlkCln}, {{mem, inv}}},
                                          {{WhBlkClnShared}, {{inv}}}});
        // The single bit answers the exclusive-clean check locally,
        // but keeping single bits current costs a bus word per 1 -> 2
        // holder transition.
        at(Scheme::YenFu) =
            makeTable({fill, rmDirty, wmDirty,
                       {{WmBlkCln}, {{mem, inv}}},
                       {{WhBlkClnShared}, {{dc, inv}}}},
                      {{&EngineResults::holderGrowth12, ww, true}});
        // Misses to cached blocks are supplied by the owning/holding
        // cache with no memory write-back; any write to a block with
        // possible other copies broadcasts one invalidate, the cache's
        // own state replacing the directory probe.
        at(Scheme::BerkeleyOwn) =
            makeTable({fill,
                       {{WmBlkCln}, {{mem, inv}}},
                       {{RmBlkDrty}, {{cache}}},
                       {{WmBlkDrty}, {{cache, inv}}},
                       {{WhBlkClnExcl, WhBlkClnShared}, {{inv}}}});
        // Illinois: cache-to-cache supply whenever a copy exists; a
        // dirty supply also updates memory (flush + snarf).  The
        // exclusive-clean state makes exclusive write hits silent.
        at(Scheme::MESI) = makeTable({{{RmMemory, WmMemory}, {{mem}}},
                                      {{RmBlkCln}, {{cache}}},
                                      {{WmBlkCln}, {{cache, inv}}},
                                      rmDirty, wmDirty,
                                      {{WhBlkClnShared}, {{inv}}}});
        return t;
    }();
    return all;
}

/**
 * Sum @p table over a whole run, handing each term's cycles to
 * @p add(category, cycles), and return the counted transactions.
 * Every term is an integer count times an integer primitive, so the
 * sums are exact integers in either numeric type, except for DiriB
 * broadcasts at a fractional b.
 */
template <typename Num, typename Add>
std::uint64_t
tally(const ChargeTable &table, const EngineResults &r,
      const BusCosts &bus, unsigned nPointers, Num broadcast, Add &&add)
{
    std::uint64_t transactions = 0;
    for (std::size_t e = 0; e < coherence::numEvents; ++e) {
        const std::vector<Tenure> &tenures = table.events[e];
        const auto event = static_cast<Event>(e);
        const std::uint64_t n = r.events.count(event);
        const Fanout fanout = fanoutOf(event);
        transactions += n * tenures.size();
        for (const Tenure &tenure : tenures) {
            for (const ChargeTerm &term : tenure) {
                const std::uint64_t op = bus.*term.op;
                if (term.times == Times::Once) {
                    add(term.category, static_cast<Num>(n * op));
                    continue;
                }
                if (fanout == nullptr) // k is 0 for every reference
                    continue;
                const stats::Histogram &h = r.*fanout;
                if (term.times == Times::Copies) {
                    add(term.category,
                        static_cast<Num>(h.totalWeight() * op));
                    continue;
                }
                for (std::size_t k = 0; k <= h.maxValue(); ++k)
                    add(term.category,
                        k <= nPointers
                            ? static_cast<Num>(h.count(k) * k * op)
                            : static_cast<Num>(h.count(k)) * broadcast);
            }
        }
    }
    for (const AuxRule &rule : table.aux) {
        const std::uint64_t n = r.*rule.counter;
        add(rule.term.category, static_cast<Num>(n * bus.*rule.term.op));
        if (rule.counted)
            transactions += n;
    }
    return transactions;
}

} // namespace

const ChargeTable &
chargeTable(Scheme scheme, unsigned nPointers)
{
    if (scheme == Scheme::DirINB && nPointers < 2)
        scheme = Scheme::Dir1NB;
    return tables()[static_cast<std::size_t>(scheme)];
}

CostBreakdown
computeCost(Scheme scheme, const EngineResults &results,
            const bus::BusCosts &bus, const CostOptions &opts)
{
    CostBreakdown cost;
    cost.scheme = schemeName(scheme, opts.nPointers);
    cost.bus = bus.name;
    const std::uint64_t refs = results.events.totalRefs();
    if (refs == 0)
        return cost;

    // Whole-run cycle numerators per category, divided once.
    const std::uint64_t transactions =
        tally(chargeTable(scheme, opts.nPointers), results, bus,
              opts.nPointers, opts.broadcastCost,
              [&cost](double CostBreakdown::*category, double cycles) {
                  cost.*category += cycles;
              });
    const auto n = static_cast<double>(refs);
    for (double CostBreakdown::*category :
         {&CostBreakdown::memAccess, &CostBreakdown::cacheAccess,
          &CostBreakdown::writeBack, &CostBreakdown::writeWord,
          &CostBreakdown::dirCheck, &CostBreakdown::invalidate})
        cost.*category /= n;
    cost.transactionsPerRef = static_cast<double>(transactions) / n;
    cost.overhead = cost.transactionsPerRef * opts.overheadQ;
    return cost;
}

std::uint64_t
integerBusCycles(Scheme scheme, const EngineResults &results,
                 const bus::BusCosts &bus, unsigned nPointers,
                 std::uint64_t broadcastCycles, std::uint64_t overheadQ)
{
    std::uint64_t cycles = 0;
    const std::uint64_t transactions =
        tally(chargeTable(scheme, nPointers), results, bus, nPointers,
              broadcastCycles,
              [&cycles](double CostBreakdown::*, std::uint64_t c) {
                  cycles += c;
              });
    return cycles + transactions * overheadQ;
}

} // namespace dirsim::sim
