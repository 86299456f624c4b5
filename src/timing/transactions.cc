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
        const sim::Fanout fanout = sim::fanoutOf(static_cast<Event>(e));
        row.fanout = fanout == nullptr                       ? 0
                     : fanout == &EngineResults::whClnFanout ? 1
                                                             : 2;
        for (const sim::Tenure &terms : table.events[e]) {
            ResolvedTenure &tenure = row.tenures.at(row.count++);
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
        }
    }
    for (const sim::AuxRule &rule : table.aux)
        _aux.push_back({rule.counter, bus.*rule.term.op, rule.counted});
    _auxCounts.assign(_aux.size(), 0);
}

void
TransactionModel::reset()
{
    _events.fill(0);
    _totalRefs = 0;
    _whWeight = 0;
    _wmWeight = 0;
    _auxCounts.assign(_aux.size(), 0);
}

RefCharge
TransactionModel::charge(const EngineResults &r)
{
    assert(r.events.totalRefs() == _totalRefs + 1 &&
           "charge() must follow exactly one engine access()");

    // Exactly one event is recorded per reference; find it.
    Event event = Event::NumEvents;
    for (std::size_t i = 0; i < coherence::numEvents; ++i) {
        if (r.events.count(static_cast<Event>(i)) != _events[i]) {
            event = static_cast<Event>(i);
            ++_events[i];
            break;
        }
    }
    assert(event != Event::NumEvents);
    ++_totalRefs;

    const std::uint64_t wh = r.whClnFanout.totalWeight();
    const std::uint64_t wm = r.wmClnFanout.totalWeight();
    const std::uint64_t copies[3] = {0, wh - _whWeight, wm - _wmWeight};
    _whWeight = wh;
    _wmWeight = wm;

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

    const Row &row = _rows[static_cast<std::size_t>(event)];
    const std::uint64_t k = copies[row.fanout];
    for (unsigned t = 0; t < row.count; ++t) {
        const ResolvedTenure &tenure = row.tenures[t];
        emit(tenure.fixed + k * tenure.perCopy +
                 (k <= _nPointers ? k * tenure.perPointer
                                  : tenure.broadcast),
             tenure.usesMemory, true);
    }

    for (std::size_t a = 0; a < _aux.size(); ++a) {
        const std::uint64_t now = r.*_aux[a].counter;
        const std::uint64_t cycles = (now - _auxCounts[a]) * _aux[a].cycles;
        _auxCounts[a] = now;
        if (cycles == 0)
            continue;
        if (_aux[a].counted)
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
