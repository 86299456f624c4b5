#include "coherence/dragon_engine.hh"

#include "coherence/prepared_loop.hh"

#include <cassert>
#include <stdexcept>

namespace dirsim::coherence
{

DragonEngine::DragonEngine(unsigned nUnits) : _nUnits(nUnits)
{
    if (nUnits == 0 || nUnits > 64)
        throw std::invalid_argument(
            "DragonEngine: unit count must be in [1, 64]");
    _results.name = "dragon";
}

void
DragonEngine::reset()
{
    _results = EngineResults{};
    _results.name = "dragon";
    _blocks.clear();
}

template <typename Sink>
void
DragonEngine::access(Sink &sink, unsigned unit, trace::RefType type,
                     mem::BlockId block)
{
    assert(unit < _nUnits);
    if (type == trace::RefType::Instr) {
        sink.event(Event::Instr);
        return;
    }
    BlockState &st = _blocks[block];
    if (type == trace::RefType::Read)
        handleRead(sink, unit, st);
    else
        handleWrite(sink, unit, st);
}

void
DragonEngine::access(unsigned unit, trace::RefType type,
                     mem::BlockId block)
{
    CountingSink sink(_results);
    access(sink, unit, type, block);
}

void
DragonEngine::accessBatch(const BlockAccess *accs, std::size_t n)
{
    // The class is final, so these calls devirtualise and inline.
    for (std::size_t i = 0; i < n; ++i)
        access(accs[i].unit, accs[i].type, accs[i].block);
}

void
DragonEngine::accessPrepared(const PreparedSlice &slice)
{
    stripMinedAccessPrepared(*this, _blocks, slice,
                             CountingSink(_results));
}

void
DragonEngine::accessRecorded(const PreparedSlice &slice, RefOutcome *out)
{
    stripMinedAccessPrepared(*this, _blocks, slice,
                             RecordingSink(_results, out, slice.n));
}

void
DragonEngine::recordInstrs(std::uint64_t n)
{
    _results.events.record(Event::Instr, n);
}

template <typename Sink>
void
DragonEngine::handleRead(Sink &sink, unsigned unit, BlockState &st)
{
    const std::uint64_t unit_bit = 1ULL << unit;
    if (st.holders & unit_bit) {
        sink.event(Event::RdHit);
        return;
    }
    if (!st.referenced) {
        st.referenced = true;
        sink.event(Event::RmFirstRef);
    } else if (st.owner >= 0) {
        // Supplied cache-to-cache by the owner; memory stays stale.
        sink.event(Event::RmBlkDrty);
    } else if (st.holders != 0) {
        sink.event(Event::RmBlkCln);
    } else {
        sink.event(Event::RmMemory);
    }
    st.holders |= unit_bit;
}

template <typename Sink>
void
DragonEngine::handleWrite(Sink &sink, unsigned unit, BlockState &st)
{
    const std::uint64_t unit_bit = 1ULL << unit;
    if (st.holders & unit_bit) {
        if (st.holders == unit_bit) {
            sink.event(Event::WhLocal);
        } else {
            // The shared line is pulled: distribute the update.  The
            // fanout histogram records how many remote copies the
            // update must reach (used by the network cost model; on a
            // bus one broadcast reaches them all).
            sink.event(Event::WhDistrib);
            sink.whClnFanout(static_cast<unsigned>(
                __builtin_popcountll(st.holders & ~unit_bit)));
        }
        st.owner = static_cast<std::int16_t>(unit);
        return;
    }
    if (!st.referenced) {
        st.referenced = true;
        sink.event(Event::WmFirstRef);
    } else if (st.owner >= 0) {
        sink.event(Event::WmBlkDrty);
        sink.wmClnFanout(static_cast<unsigned>(
            __builtin_popcountll(st.holders)));
    } else if (st.holders != 0) {
        sink.event(Event::WmBlkCln);
        sink.wmClnFanout(static_cast<unsigned>(
            __builtin_popcountll(st.holders)));
    } else {
        sink.event(Event::WmMemory);
    }
    st.holders |= unit_bit;
    st.owner = static_cast<std::int16_t>(unit);
}

template void DragonEngine::access(CountingSink &, unsigned,
                                   trace::RefType, mem::BlockId);
template void DragonEngine::access(RecordingSink &, unsigned,
                                   trace::RefType, mem::BlockId);

} // namespace dirsim::coherence
