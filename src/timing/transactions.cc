#include "timing/transactions.hh"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace dirsim::timing
{

using coherence::EngineResults;
using coherence::Event;

namespace
{

/** Validate a CostOptions double as a whole, representable cycle
 *  count (the timed model deals in integer cycles). */
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

} // namespace

TransactionModel::TransactionModel(sim::Scheme scheme,
                                   const bus::BusCosts &bus,
                                   const sim::CostOptions &opts)
    : _scheme(scheme), _nPointers(opts.nPointers),
      _overheadQ(toCycles(opts.overheadQ, "overheadQ"))
{
    const std::uint32_t broadcast =
        toCycles(opts.broadcastCost, "broadcastCost");
    const sim::ChargeTable &table = sim::chargeTable(scheme, _nPointers);
    for (std::size_t e = 0; e < coherence::numEvents; ++e) {
        Row &row = _rows[e];
        row.fanout = sim::fanoutOf(static_cast<Event>(e)) != nullptr;
        for (const sim::Tenure &terms : table.events[e]) {
            ResolvedTenure tenure;
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
                tenure.usesMemory |= term.op == &bus::BusCosts::memoryAccess;
            }
            if (tenure.fixed == 0 && tenure.perCopy == 0 &&
                tenure.perPointer == 0 && tenure.broadcast == 0 &&
                _overheadQ == 0)
                continue;
            row.tenures.at(row.count++) = tenure;
        }
    }
    for (const sim::AuxRule &rule : table.aux) {
        std::size_t c = 0;
        while (c < coherence::numAuxCounters &&
               coherence::auxCounterField(
                   static_cast<coherence::AuxCounter>(c)) != rule.counter)
            ++c;
        if (c == coherence::numAuxCounters)
            throw std::logic_error(
                "timed bus: charge table prices a counter that "
                "RefOutcome does not carry");
        _aux.push_back({c, bus.*rule.term.op, rule.counted});
    }
}

RefCharge
TransactionModel::charge(const coherence::RefOutcome &outcome) const
{
    RefCharge out;
    // Counted tenures carry the overhead q the static model charges
    // per transaction.  Zero-cycle tenures are dropped (they occupy
    // nothing and cost nothing).
    const auto emit = [&](std::uint64_t cycles, bool usesMemory,
                          bool counted) {
        if (counted)
            cycles += _overheadQ;
        if (cycles == 0)
            return;
        out.add(static_cast<std::uint32_t>(cycles), usesMemory,
                counted);
    };

    const Row &row = _rows[static_cast<std::size_t>(outcome.event)];
    const std::uint64_t k = row.fanout ? outcome.fanout : 0;
    for (unsigned t = 0; t < row.count; ++t) {
        const ResolvedTenure &tenure = row.tenures[t];
        emit(tenure.fixed + k * tenure.perCopy +
                 (k <= _nPointers ? k * tenure.perPointer
                                  : tenure.broadcast),
             tenure.usesMemory, true);
    }

    if (outcome.auxMask == 0)
        return out;
    for (const Aux &aux : _aux) {
        const std::uint64_t cycles =
            std::uint64_t(outcome.aux[aux.counter]) * aux.cycles;
        if (cycles == 0)
            continue;
        if (aux.counted)
            emit(cycles, false, true);
        else if (out.count != 0)
            out.txns[out.count - 1].busCycles +=
                static_cast<std::uint32_t>(cycles);
        else
            emit(cycles, false, false);
    }
    return out;
}

std::uint64_t
staticBusCycles(sim::Scheme scheme, const EngineResults &results,
                const bus::BusCosts &bus, const sim::CostOptions &opts)
{
    const std::uint64_t broadcast =
        toCycles(opts.broadcastCost, "broadcastCost");
    return sim::integerBusCycles(scheme, results, bus, opts.nPointers,
                                 broadcast,
                                 toCycles(opts.overheadQ, "overheadQ"));
}

} // namespace dirsim::timing
