/**
 * @file
 * Shared strip-mined dispatch loop for accessPrepared overrides.
 *
 * Every engine's accessPrepared is the same loop with a different
 * body: decode the packed type+flags byte, then run the protocol's
 * access logic against the per-block table.  This helper hoists the
 * decode out of the loop — util::decodeTypes() strips the whole
 * strip's type lane in one branchless SIMD/SWAR pass — and issues a
 * software prefetch for the block-table probe a few references ahead
 * of the dispatch point, so the probe's cache line is in flight while
 * earlier references are still being processed.
 *
 * The strip (util::kClassifyStripRefs) is sized so the decoded type
 * lane plus the column bytes it shadows stay L1-resident.  Dispatch
 * order is exactly slice order — the strip structure is invisible to
 * the coherence model, like span boundaries (trace/prepared.hh).
 *
 * Usage, from inside an engine member function (the lambdas capture
 * `this`, so private members stay private):
 *
 *   forEachPreparedRef(
 *       slice,
 *       [this](mem::BlockId b) { _blocks.prefetch(b); },
 *       [this](unsigned u, trace::RefType t, mem::BlockId b) {
 *           access(u, t, b);
 *       });
 *
 * The engine classes are final, so the access() call devirtualises
 * and inlines into the strip loop.
 */

#ifndef DIRSIM_COHERENCE_PREPARED_LOOP_HH
#define DIRSIM_COHERENCE_PREPARED_LOOP_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "coherence/engine.hh"
#include "coherence/outcome.hh"
#include "trace/record.hh"
#include "util/simd.hh"

namespace dirsim::coherence
{

/**
 * Dispatch every reference of @p slice, in order, to @p access
 * (unit, type, block), with the packed byte pre-decoded per strip and
 * @p prefetchProbe (block) invoked util::kPrefetchDistance references
 * ahead of the dispatch point.
 */
template <typename PrefetchFn, typename AccessFn>
inline void
forEachPreparedRef(const PreparedSlice &slice, PrefetchFn &&prefetchProbe,
                   AccessFn &&access)
{
    alignas(util::kCacheLineBytes)
        std::uint8_t types[util::kClassifyStripRefs];
    for (std::size_t base = 0; base < slice.n;
         base += util::kClassifyStripRefs) {
        const std::size_t n =
            std::min(util::kClassifyStripRefs, slice.n - base);
        util::decodeTypes(slice.typeFlags + base, types, n);
        const std::uint32_t *block = slice.block + base;
        const std::uint8_t *unit = slice.unit + base;
        const std::size_t fetchable =
            n > util::kPrefetchDistance ? n - util::kPrefetchDistance
                                        : 0;
        for (std::size_t i = 0; i < fetchable; ++i) {
            prefetchProbe(block[i + util::kPrefetchDistance]);
            access(unit[i], static_cast<trace::RefType>(types[i]),
                   block[i]);
        }
        for (std::size_t i = fetchable; i < n; ++i)
            access(unit[i], static_cast<trace::RefType>(types[i]),
                   block[i]);
    }
}

/**
 * Prefetch-free variant: the same strip-mined dispatch with no probe
 * hints.  Engines pick this when their block table is small enough
 * to be cache-resident (util::FlatMap::prefetchProfitable()) — the
 * hint's extra hash per reference would be pure overhead there, and
 * hoisting that decision out of the loop keeps the hot path free of
 * a per-reference capacity check.
 */
template <typename AccessFn>
inline void
forEachPreparedRef(const PreparedSlice &slice, AccessFn &&access)
{
    alignas(util::kCacheLineBytes)
        std::uint8_t types[util::kClassifyStripRefs];
    for (std::size_t base = 0; base < slice.n;
         base += util::kClassifyStripRefs) {
        const std::size_t n =
            std::min(util::kClassifyStripRefs, slice.n - base);
        util::decodeTypes(slice.typeFlags + base, types, n);
        const std::uint32_t *block = slice.block + base;
        const std::uint8_t *unit = slice.unit + base;
        for (std::size_t i = 0; i < n; ++i)
            access(unit[i], static_cast<trace::RefType>(types[i]),
                   block[i]);
    }
}

/**
 * Strip-mined dispatch of @p slice into @p access (unit, type,
 * block), with the probe prefetch enabled iff @p blocks (the engine's
 * per-block FlatMap) has outgrown the cache
 * (util::FlatMap::prefetchProfitable()).  The prefetch-or-not branch
 * is hoisted out of the loop here, once.
 */
template <typename BlockTable, typename AccessFn>
inline void
stripMinedDispatch(BlockTable &blocks, const PreparedSlice &slice,
                   AccessFn &&access)
{
    if (blocks.prefetchProfitable()) {
        forEachPreparedRef(
            slice,
            [&blocks](mem::BlockId block) { blocks.prefetch(block); },
            access);
    } else {
        forEachPreparedRef(slice, access);
    }
}

/**
 * The whole accessPrepared body every block-table engine shares:
 * stripMinedDispatch() into @p engine .access(sink, ...), reporting
 * each reference's outcome to @p sink (coherence/outcome.hh) and
 * retiring it.  Every engine's override is a single call:
 *
 *   void Engine::accessPrepared(const PreparedSlice &slice)
 *   {
 *       stripMinedAccessPrepared(*this, _blocks, slice,
 *                                CountingSink(_results));
 *   }
 *
 * The engine classes are final and the sink is a template parameter,
 * so the access body devirtualises and inlines into the strip loop;
 * with CountingSink it is the plain counter updates.  A slice shorter
 * than the prefetch distance (a timed-bus wave: one reference per
 * ready CPU) skips the strip machinery, whose type decode and
 * prefetch decision would cost more than they save.
 */
template <typename Engine, typename BlockTable, typename Sink>
inline void
stripMinedAccessPrepared(Engine &engine, BlockTable &blocks,
                         const PreparedSlice &slice, Sink sink)
{
    if (slice.n < util::kPrefetchDistance) {
        for (std::size_t i = 0; i < slice.n; ++i) {
            engine.access(sink, slice.unit[i],
                          trace::packedRefType(slice.typeFlags[i]),
                          slice.block[i]);
            sink.retire();
        }
        return;
    }
    stripMinedDispatch(blocks, slice,
                       [&engine, &sink](unsigned unit,
                                        trace::RefType type,
                                        mem::BlockId block) {
                           engine.access(sink, unit, type, block);
                           sink.retire();
                       });
}

} // namespace dirsim::coherence

#endif // DIRSIM_COHERENCE_PREPARED_LOOP_HH
