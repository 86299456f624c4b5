#include "coherence/limited_engine.hh"

#include "coherence/prepared_loop.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

namespace dirsim::coherence
{

LimitedEngine::LimitedEngine(unsigned nUnits, unsigned nPointers,
                             const directory::DirCacheConfig &dirCache)
    : _nUnits(nUnits), _nPointers(nPointers)
{
    if (nUnits == 0 || nUnits > 64)
        throw std::invalid_argument(
            "LimitedEngine: unit count must be in [1, 64]");
    if (nPointers == 0)
        throw std::invalid_argument(
            "LimitedEngine: Dir0NB makes no sense (no way to obtain "
            "exclusive access)");
    _nPointers = std::min(nPointers, nUnits);
    if (_nPointers > 8)
        throw std::invalid_argument(
            "LimitedEngine: at most 8 pointers (the paper's no-"
            "broadcast sweep tops out at Dir8NB; the bound keeps the "
            "per-block fill queue inline)");
    _results.name = "dir" + std::to_string(_nPointers) + "nb";
    if (dirCache.enabled)
        _dirCache =
            std::make_unique<directory::DirectoryCache>(dirCache);
}

void
LimitedEngine::reset()
{
    const std::string name = _results.name;
    _results = EngineResults{};
    _results.name = name;
    _blocks.clear();
    if (_dirCache)
        _dirCache->clear();
}

template <typename Sink>
void
LimitedEngine::access(Sink &sink, unsigned unit, trace::RefType type,
                      mem::BlockId block)
{
    assert(unit < _nUnits);
    if (type == trace::RefType::Instr) {
        sink.event(Event::Instr);
        return;
    }
    BlockState &st = _blocks[block];
    if (type == trace::RefType::Read)
        handleRead(sink, unit, block, st);
    else
        handleWrite(sink, unit, block, st);
}

void
LimitedEngine::access(unsigned unit, trace::RefType type,
                      mem::BlockId block)
{
    CountingSink sink(_results);
    access(sink, unit, type, block);
}

void
LimitedEngine::accessBatch(const BlockAccess *accs, std::size_t n)
{
    // The class is final, so these calls devirtualise and inline.
    for (std::size_t i = 0; i < n; ++i)
        access(accs[i].unit, accs[i].type, accs[i].block);
}

void
LimitedEngine::accessPrepared(const PreparedSlice &slice)
{
    stripMinedAccessPrepared(*this, _blocks, slice,
                             CountingSink(_results));
}

void
LimitedEngine::accessRecorded(const PreparedSlice &slice,
                              RefOutcome *out)
{
    stripMinedAccessPrepared(*this, _blocks, slice,
                             RecordingSink(_results, out, slice.n));
}

void
LimitedEngine::recordInstrs(std::uint64_t n)
{
    _results.events.record(Event::Instr, n);
}

template <typename Sink>
void
LimitedEngine::touchDirCache(Sink &sink, mem::BlockId block)
{
    if (!_dirCache)
        return;
    const directory::DirCacheTouch touch = _dirCache->touch(block);
    if (touch.hit) {
        ++_results.dirCacheHits;
        return;
    }
    ++_results.dirCacheMisses;
    if (!touch.evicted)
        return;
    ++_results.dirCacheEvictions;
    // Non-inserting find: access() holds a BlockState reference for
    // the current block across this call.
    BlockState *victim = _blocks.find(touch.victim);
    assert(victim && "dir-cache victim must be tracked");
    sink.count(AuxCounter::DirCacheEvictionInvals,
               static_cast<std::uint32_t>(std::popcount(victim->mask)));
    if (victim->owner >= 0) {
        // The sole dirty copy is flushed to memory before it dies.
        victim->owner = -1;
        sink.count(AuxCounter::DirCacheEvictionWriteBacks);
    }
    victim->mask = 0;
    victim->fillq = 0;
}

template <typename Sink>
void
LimitedEngine::handleRead(Sink &sink, unsigned unit, mem::BlockId block,
                          BlockState &st)
{
    // The transition core lives in limited_policy.hh, shared with
    // MultiLimitedEngine; only the directory-cache touch between the
    // hit test and the miss service is this engine's own.
    if (laneReadHit(st, unit, sink))
        return;
    touchDirCache(sink, block);
    laneReadMiss(st, unit, _nPointers, sink);
}

template <typename Sink>
void
LimitedEngine::handleWrite(Sink &sink, unsigned unit,
                           mem::BlockId block, BlockState &st)
{
    if (laneWriteDirtyHit(st, unit, sink))
        return;
    // A miss, or a hit to a clean copy: the directory is consulted.
    touchDirCache(sink, block);
    laneWrite(st, unit, sink);
}

template void LimitedEngine::access(CountingSink &, unsigned,
                                    trace::RefType, mem::BlockId);
template void LimitedEngine::access(RecordingSink &, unsigned,
                                    trace::RefType, mem::BlockId);

} // namespace dirsim::coherence
