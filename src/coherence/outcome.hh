/**
 * @file
 * Outcome sinks: where an engine's access body reports what one
 * reference did.
 *
 * Every engine classifies a reference into one Event, may sample one
 * invalidation fanout k, and may bump a few auxiliary counters.  The
 * access bodies report those through a sink template parameter rather
 * than writing EngineResults directly, so one body serves two callers:
 *
 *  - CountingSink updates EngineResults and nothing else.  Every
 *    untimed replay uses it; it inlines to the plain counter updates.
 *  - RecordingSink does the same and also writes the reference's
 *    RefOutcome (event, k and the aux-counter deltas), which is what
 *    the timed bus (timing::TransactionModel) charges a reference
 *    from, one slice of references per call.
 *
 * Engine contract: exactly one event() per reference, at most one
 * fanout sample, and every change to an AuxCounter field goes
 * through count() — the timed bus charges those deltas, so a direct
 * write would go unbilled.  Counters the bus never charges (hits,
 * misses, evictions, home locality, directory messages) are written
 * to EngineResults directly.
 */

#ifndef DIRSIM_COHERENCE_OUTCOME_HH
#define DIRSIM_COHERENCE_OUTCOME_HH

#include <array>
#include <cstddef>
#include <cstdint>

#include "coherence/results.hh"

namespace dirsim::coherence
{

/** The EngineResults counters a charge table prices per unit
 *  (sim::AuxRule); a RefOutcome carries their per-reference deltas. */
enum class AuxCounter : std::uint8_t
{
    HolderGrowth12,
    DisplacementInvals,
    ReplacementWriteBacks,
    DirCacheEvictionInvals,
    DirCacheEvictionWriteBacks,
    NumAuxCounters,
};

constexpr std::size_t numAuxCounters =
    static_cast<std::size_t>(AuxCounter::NumAuxCounters);

/** The EngineResults field an AuxCounter names. */
constexpr std::uint64_t EngineResults::*
auxCounterField(AuxCounter counter)
{
    switch (counter) {
      case AuxCounter::HolderGrowth12:
        return &EngineResults::holderGrowth12;
      case AuxCounter::DisplacementInvals:
        return &EngineResults::displacementInvals;
      case AuxCounter::ReplacementWriteBacks:
        return &EngineResults::replacementWriteBacks;
      case AuxCounter::DirCacheEvictionInvals:
        return &EngineResults::dirCacheEvictionInvals;
      case AuxCounter::DirCacheEvictionWriteBacks:
      default:
        return &EngineResults::dirCacheEvictionWriteBacks;
    }
}

/** What one reference did, as the timed bus charges it. */
struct RefOutcome
{
    Event event = Event::Instr;
    /** k of the reference's fanout sample (0 when it took none). */
    std::uint8_t fanout = 0;
    /** Bit c set iff aux[c] != 0, so a reference that moved no aux
     *  counter is recognised with one byte test. */
    std::uint8_t auxMask = 0;
    /** Delta of each AuxCounter over this reference. */
    std::array<std::uint32_t, numAuxCounters> aux{};
};

/** Reports into EngineResults only: the untimed replay path. */
class CountingSink
{
  public:
    explicit CountingSink(EngineResults &results) : _results(results)
    {
    }

    void event(Event e) { _results.events.record(e); }
    void whClnFanout(unsigned k) { _results.whClnFanout.sample(k); }
    void wmClnFanout(unsigned k) { _results.wmClnFanout.sample(k); }
    void
    count(AuxCounter counter, std::uint32_t n = 1)
    {
        _results.*auxCounterField(counter) += n;
    }
    /** The reference is done (the slice loop moves on). */
    void retire() {}

  private:
    EngineResults &_results;
};

/**
 * Reports into EngineResults and into one RefOutcome per reference:
 * the i-th retired reference of a slice fills out[i].
 */
class RecordingSink
{
  public:
    /** Fills out[0, n) for the @p n references about to run, each
     *  cleared just before its reference. */
    RecordingSink(EngineResults &results, RefOutcome *out,
                  std::size_t n)
        : _counting(results), _out(out), _end(out + n)
    {
        if (n != 0)
            *_out = RefOutcome{};
    }

    void
    event(Event e)
    {
        _counting.event(e);
        _out->event = e;
    }
    void
    whClnFanout(unsigned k)
    {
        _counting.whClnFanout(k);
        _out->fanout = static_cast<std::uint8_t>(k);
    }
    void
    wmClnFanout(unsigned k)
    {
        _counting.wmClnFanout(k);
        _out->fanout = static_cast<std::uint8_t>(k);
    }
    void
    count(AuxCounter counter, std::uint32_t n = 1)
    {
        _counting.count(counter, n);
        if (n == 0)
            return;
        const auto c = static_cast<std::size_t>(counter);
        _out->aux[c] += n;
        _out->auxMask |= static_cast<std::uint8_t>(1u << c);
    }
    void
    retire()
    {
        if (++_out != _end)
            *_out = RefOutcome{};
    }

  private:
    CountingSink _counting;
    RefOutcome *_out;
    RefOutcome *_end;
};

} // namespace dirsim::coherence

#endif // DIRSIM_COHERENCE_OUTCOME_HH
