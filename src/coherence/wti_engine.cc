#include "coherence/wti_engine.hh"

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

WtiEngine::WtiEngine(unsigned nUnits, bool allocateOnWriteMiss)
    : _nUnits(nUnits), _allocate(allocateOnWriteMiss)
{
    if (nUnits == 0 || nUnits > 64)
        throw std::invalid_argument(
            "WtiEngine: unit count must be in [1, 64]");
    _results.name = "wti";
}

void
WtiEngine::reset()
{
    _results = EngineResults{};
    _results.name = "wti";
    _blocks.clear();
}

template <typename Sink>
void
WtiEngine::access(Sink &sink, unsigned unit, trace::RefType type,
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
WtiEngine::access(unsigned unit, trace::RefType type,
                  mem::BlockId block)
{
    CountingSink sink(_results);
    access(sink, unit, type, block);
}

void
WtiEngine::accessBatch(const BlockAccess *accs, std::size_t n)
{
    // The class is final, so these calls devirtualise and inline.
    for (std::size_t i = 0; i < n; ++i)
        access(accs[i].unit, accs[i].type, accs[i].block);
}

void
WtiEngine::accessPrepared(const PreparedSlice &slice)
{
    stripMinedAccessPrepared(*this, _blocks, slice,
                             CountingSink(_results));
}

void
WtiEngine::accessRecorded(const PreparedSlice &slice, RefOutcome *out)
{
    stripMinedAccessPrepared(*this, _blocks, slice,
                             RecordingSink(_results, out, slice.n));
}

void
WtiEngine::recordInstrs(std::uint64_t n)
{
    _results.events.record(Event::Instr, n);
}

template <typename Sink>
void
WtiEngine::handleRead(Sink &sink, unsigned unit, BlockState &st)
{
    const std::uint64_t unit_bit = 1ULL << unit;
    if (st.holders & unit_bit) {
        sink.event(Event::RdHit);
        return;
    }
    if (!st.referenced) {
        st.referenced = true;
        sink.event(Event::RmFirstRef);
    } else if (st.holders != 0) {
        // Copies are never dirty under write-through, so any cached
        // copy is clean and memory is current.
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
WtiEngine::handleWrite(Sink &sink, unsigned unit, BlockState &st)
{
    const std::uint64_t unit_bit = 1ULL << unit;
    const bool has_copy = (st.holders & unit_bit) != 0;
    const std::uint64_t others = st.holders & ~unit_bit;

    if (has_copy) {
        // The write-through is snooped; other copies invalidate.
        const unsigned fanout = popcount(others);
        sink.event(fanout == 0 ? Event::WhBlkClnExcl
                               : Event::WhBlkClnShared);
        sink.whClnFanout(fanout);
        st.holders = unit_bit;
        return;
    }

    if (!st.referenced) {
        st.referenced = true;
        sink.event(Event::WmFirstRef);
    } else if (st.holders != 0) {
        sink.event(Event::WmBlkCln);
        sink.wmClnFanout(popcount(st.holders));
    } else {
        sink.event(Event::WmMemory);
    }
    // Other copies are invalidated by the snooped write-through
    // whether or not the writer allocates the block.
    st.holders = _allocate ? unit_bit : 0;
}

template void WtiEngine::access(CountingSink &, unsigned,
                                trace::RefType, mem::BlockId);
template void WtiEngine::access(RecordingSink &, unsigned,
                                trace::RefType, mem::BlockId);

} // namespace dirsim::coherence
