/**
 * @file
 * Event calendar and clock for the timed bus simulator.
 *
 * The static cost models of sim/cost_model.hh never advance time; the
 * timed subsystem does, and everything rides on one invariant: events
 * are delivered in a *deterministic total order*.  Two runs of the
 * same configuration — serial or fanned out across sweep workers —
 * must replay the identical event sequence.  The order is
 * (time, kind, cpu): within one cycle the bus completion comes first,
 * so a transaction that frees the bus and the requests that arrive on
 * that same cycle all reach the arbiter within one grant phase; then
 * the CPUs that are ready, in ascending index.
 *
 * The timed bus needs no general priority queue to keep that order,
 * because of two facts about its events:
 *  - each CPU has at most one pending wake-up, and the bus at most one
 *    pending completion;
 *  - a CPU is never woken more than a fixed horizon ahead of the
 *    current cycle (TimedBusSim's max(cyclesPerRef, memExtraLatency)),
 *    while the bus completion may lie arbitrarily far ahead.
 * So CycleCalendar keeps the completion as one scalar and the CPU
 * wake-ups in a power-of-two ring of per-cycle bitmasks, one bit per
 * CPU, covering [now, now + horizon].  Taking the lowest set bit of
 * the current cycle's mask yields the CPUs in index order; a CPU
 * re-armed for the current cycle sets its bit again and so is
 * delivered in that same cycle, in index order among the CPUs still
 * waiting there.
 *
 * TimedBusSim consumes a cycle in waves rather than one CPU at a
 * time: takeWave() hands over the whole mask of ready CPUs (or, when
 * re-arms can land in the current cycle, just its lowest CPU, which
 * keeps the order above), and scheduleMask() re-arms every CPU of a
 * wave that retired a bus-free reference with one OR per mask word.
 */

#ifndef DIRSIM_TIMING_EVENT_QUEUE_HH
#define DIRSIM_TIMING_EVENT_QUEUE_HH

#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

namespace dirsim::timing
{

/**
 * Per-cycle calendar of CPU wake-ups plus one pending bus completion,
 * delivered in the order described in the file header.
 *
 * Drive it one cycle at a time: advance() moves the clock to the next
 * cycle holding an event, takeBusCompletion() consumes that cycle's
 * completion (if any), and takeWave() then yields its ready CPUs
 * until none is left.  Anything scheduled for the current cycle
 * meanwhile is delivered before advance() moves on.
 */
class CycleCalendar
{
  public:
    /** Largest wake-up horizon a calendar accepts, in cycles. */
    static constexpr std::uint64_t maxHorizon = 65536;

    /**
     * @param nCpus   CPUs [0, nCpus) that can be scheduled.
     * @param horizon Furthest a CPU wake-up may lie beyond the current
     *                cycle (at most maxHorizon).
     */
    CycleCalendar(unsigned nCpus, std::uint64_t horizon)
        : _words((nCpus + 63) / 64),
          _mask(std::bit_ceil(horizon + 1) - 1),
          _horizon(horizon),
          _bits((_mask + 1) * _words, 0)
    {
        assert(horizon <= maxHorizon);
    }

    /** The current cycle. */
    std::uint64_t now() const { return _now; }

    /** Wake @p cpu at cycle @p time, within [now, now + horizon].
     *  The CPU must have no wake-up pending. */
    void
    scheduleCpu(std::uint64_t time, unsigned cpu)
    {
        assert(time >= _now && time - _now <= _horizon);
        std::uint64_t &word = slot(time)[cpu / 64];
        const std::uint64_t bit = std::uint64_t(1) << (cpu % 64);
        assert(cpu / 64 < _words && !(word & bit));
        word |= bit;
    }

    /** Wake every CPU set in @p mask (maskWords() words, one bit per
     *  CPU) at cycle @p time, within [now, now + horizon], and clear
     *  @p mask.  None of them may have a wake-up pending. */
    void
    scheduleMask(std::uint64_t time, std::uint64_t *mask)
    {
        assert(time >= _now && time - _now <= _horizon);
        std::uint64_t *words = slot(time);
        for (unsigned w = 0; w < _words; ++w) {
            assert(!(words[w] & mask[w]));
            words[w] |= mask[w];
            mask[w] = 0;
        }
    }

    /** Complete the bus tenure at cycle @p time (at or after now).
     *  No other completion may be pending. */
    void
    scheduleBus(std::uint64_t time)
    {
        assert(!_busPending && time >= _now);
        _busPending = true;
        _busTime = time;
    }

    /**
     * Move the clock to the earliest cycle at or after now that holds
     * an event.
     * @retval false Nothing is scheduled; the clock stays put.
     */
    bool
    advance()
    {
        // Every pending wake-up lies in [now, now + horizon], so
        // finding none there means no CPU is pending at all.
        std::uint64_t last = _now + _horizon;
        if (_busPending && _busTime < last)
            last = _busTime;
        for (std::uint64_t t = _now; t <= last; ++t) {
            if (!slotEmpty(t)) {
                _now = t;
                return true;
            }
        }
        if (!_busPending)
            return false;
        _now = _busTime;
        return true;
    }

    /** Consume the bus completion due this cycle, if there is one. */
    bool
    takeBusCompletion()
    {
        if (!_busPending || _busTime != _now)
            return false;
        _busPending = false;
        return true;
    }

    /**
     * Consume a wave of the CPUs due this cycle into @p wave
     * (maskWords() words, one bit per CPU): every one of them, or
     * with @p lowestOnly only the lowest-index one.
     * @retval false No CPU is due this cycle; @p wave is untouched.
     */
    bool
    takeWave(std::uint64_t *wave, bool lowestOnly)
    {
        std::uint64_t *words = slot(_now);
        unsigned w = 0;
        while (w < _words && words[w] == 0)
            ++w;
        if (w == _words)
            return false;
        for (unsigned v = 0; v < _words; ++v) {
            // Below w every word is empty.
            const std::uint64_t take =
                lowestOnly && v != w ? 0
                : lowestOnly         ? words[v] & -words[v]
                                     : words[v];
            wave[v] = take;
            words[v] &= ~take;
        }
        return true;
    }

    /** 64-bit words per CPU mask (scheduleMask(), takeWave()). */
    unsigned maskWords() const { return _words; }

  private:
    std::uint64_t *
    slot(std::uint64_t time)
    {
        return &_bits[(time & _mask) * _words];
    }

    bool
    slotEmpty(std::uint64_t time)
    {
        const std::uint64_t *words = slot(time);
        for (unsigned w = 0; w < _words; ++w)
            if (words[w] != 0)
                return false;
        return true;
    }

    unsigned _words;       //!< Mask words per cycle.
    std::uint64_t _mask;   //!< Ring length - 1 (a power of two - 1).
    std::uint64_t _horizon;
    std::vector<std::uint64_t> _bits;
    std::uint64_t _now = 0;
    bool _busPending = false;
    std::uint64_t _busTime = 0;
};

} // namespace dirsim::timing

#endif // DIRSIM_TIMING_EVENT_QUEUE_HH
