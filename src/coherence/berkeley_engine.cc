#include "coherence/berkeley_engine.hh"

#include "coherence/prepared_loop.hh"

#include <cassert>
#include <stdexcept>

namespace dirsim::coherence
{

namespace
{

unsigned
popcount(std::uint64_t mask)
{
    return static_cast<unsigned>(__builtin_popcountll(mask));
}

} // namespace

BerkeleyEngine::BerkeleyEngine(unsigned nUnits) : _nUnits(nUnits)
{
    if (nUnits == 0 || nUnits > 64)
        throw std::invalid_argument(
            "BerkeleyEngine: unit count must be in [1, 64]");
    _results.name = "berkeley";
}

void
BerkeleyEngine::reset()
{
    _results = EngineResults{};
    _results.name = "berkeley";
    _blocks.clear();
}

int
BerkeleyEngine::owner(mem::BlockId block) const
{
    const BlockState *st = _blocks.find(block);
    return st ? st->owner : -1;
}

template <typename Sink>
void
BerkeleyEngine::access(Sink &sink, unsigned unit, trace::RefType type,
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
BerkeleyEngine::access(unsigned unit, trace::RefType type,
                       mem::BlockId block)
{
    CountingSink sink(_results);
    access(sink, unit, type, block);
}

void
BerkeleyEngine::accessBatch(const BlockAccess *accs, std::size_t n)
{
    // The class is final, so these calls devirtualise and inline.
    for (std::size_t i = 0; i < n; ++i)
        access(accs[i].unit, accs[i].type, accs[i].block);
}

void
BerkeleyEngine::accessPrepared(const PreparedSlice &slice)
{
    stripMinedAccessPrepared(*this, _blocks, slice,
                             CountingSink(_results));
}

void
BerkeleyEngine::accessRecorded(const PreparedSlice &slice, RefOutcome *out)
{
    stripMinedAccessPrepared(*this, _blocks, slice,
                             RecordingSink(_results, out, slice.n));
}

void
BerkeleyEngine::recordInstrs(std::uint64_t n)
{
    _results.events.record(Event::Instr, n);
}

template <typename Sink>
void
BerkeleyEngine::handleRead(Sink &sink, unsigned unit, BlockState &st)
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
        // The owner supplies the block cache-to-cache and *keeps*
        // ownership (SharedDirty); memory is not updated.
        sink.event(Event::RmBlkDrty);
    } else if (st.holders != 0) {
        sink.event(Event::RmBlkCln);
    } else {
        sink.event(Event::RmMemory);
    }
    if (popcount(st.holders) == 1)
        sink.count(AuxCounter::HolderGrowth12);
    st.holders |= unit_bit;
}

template <typename Sink>
void
BerkeleyEngine::handleWrite(Sink &sink, unsigned unit, BlockState &st)
{
    const std::uint64_t unit_bit = 1ULL << unit;
    const bool has_copy = (st.holders & unit_bit) != 0;
    const std::uint64_t others = st.holders & ~unit_bit;

    if (has_copy && st.owner == static_cast<int>(unit) &&
        others == 0) {
        // Dirty (exclusive owned): silent upgrade.
        sink.event(Event::WhBlkDrty);
        return;
    }

    if (has_copy) {
        // Valid copy, or SharedDirty owner with other sharers: the
        // write must invalidate the other copies.  Classified exactly
        // as the invalidation state model classifies the same
        // reference, which keeps the event-frequency equivalence the
        // paper relies on testable.
        const unsigned fanout = popcount(others);
        sink.event(fanout == 0 ? Event::WhBlkClnExcl
                               : Event::WhBlkClnShared);
        sink.whClnFanout(fanout);
    } else if (!st.referenced) {
        st.referenced = true;
        sink.event(Event::WmFirstRef);
    } else if (st.owner >= 0) {
        // Owner supplies, everyone else invalidates.
        sink.event(Event::WmBlkDrty);
    } else if (st.holders != 0) {
        sink.event(Event::WmBlkCln);
        sink.wmClnFanout(popcount(st.holders));
    } else {
        sink.event(Event::WmMemory);
    }

    st.holders = unit_bit;
    st.owner = static_cast<std::int16_t>(unit);
}

template void BerkeleyEngine::access(CountingSink &, unsigned,
                                     trace::RefType, mem::BlockId);
template void BerkeleyEngine::access(RecordingSink &, unsigned,
                                     trace::RefType, mem::BlockId);

} // namespace dirsim::coherence
