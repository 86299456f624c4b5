/**
 * @file
 * Per-CPU request port for the timed bus.
 *
 * A RequestPort owns one CPU's slice of the reference stream (the
 * demuxed per-CPU trace), its cursor, the in-flight RefCharge while
 * the CPU is stalled, and the stall/finish accounting that becomes
 * the TimedRun's per-CPU statistics.  The port is a passive state
 * machine — TimedBusSim drives it from the event loop:
 *
 *   Running --(ref needs the bus)--> Stalled(issue txn 1)
 *   Stalled --(txn complete, more txns)--> Stalled(issue next)
 *   Stalled --(last txn complete)--> Running
 *
 * The issuing processor does not proceed past a chargeable reference
 * until every one of its bus tenures has been granted and completed —
 * the blocking-processor model both service-discipline papers assume.
 */

#ifndef DIRSIM_TIMING_PORT_HH
#define DIRSIM_TIMING_PORT_HH

#include <cassert>
#include <cstddef>
#include <cstdint>

#include "mem/block.hh"
#include "timing/transactions.hh"
#include "trace/prepared.hh"
#include "trace/record.hh"

namespace dirsim::timing
{

/** Per-CPU timing statistics of one TimedRun. */
struct CpuTimedStats
{
    std::uint64_t refs = 0;         //!< References executed.
    std::uint64_t transactions = 0; //!< Bus tenures issued.
    /** Cycles from issuing a chargeable reference to resuming after
     *  its last transaction (queueing + service + off-bus waits). */
    std::uint64_t stallCycles = 0;
    std::uint64_t finishCycle = 0;  //!< Cycle the last reference retired.

    /** Fraction of this CPU's active time spent stalled on the bus. */
    double
    stallFraction() const
    {
        return finishCycle == 0
                   ? 0.0
                   : static_cast<double>(stallCycles) /
                         static_cast<double>(finishCycle);
    }

    bool operator==(const CpuTimedStats &other) const = default;
};

/** One reference of a port's stream, as its prepared columns hold
 *  it (one row of a coherence::PreparedSlice). */
struct PortRef
{
    std::uint32_t block;
    std::uint8_t unit;      //!< Engine sharing-domain index.
    std::uint8_t typeFlags; //!< Decode with trace::packedRefType.
};

/**
 * One CPU's interface to the timed bus (see file header).
 *
 * The port *reads* its stream through a trace::CpuRefCursor rather
 * than owning an array-of-structs copy: the timed replay either walks
 * a PreparedCpuStream borrowed from a shared PreparedTrace (or
 * demuxed locally from a raw source) as one span, or streams a
 * trace::StoredTrace one chunk span at a time.  The port walks the
 * current span inline and asks the cursor for the next one only when
 * it runs dry.  The cursor must outlive the port.
 */
class RequestPort
{
  public:
    RequestPort(unsigned cpu, trace::CpuRefCursor *cursor)
        : _cpu(cpu), _cursor(cursor)
    {
    }

    unsigned cpu() const { return _cpu; }

    /** References remain to execute (may fetch the next span). */
    bool
    hasMoreRefs()
    {
        return _next < _span.n || nextSpan();
    }

    /** Consume the next reference (hasMoreRefs() must hold). */
    PortRef
    takeRef()
    {
        assert(_next < _span.n);
        ++_stats.refs;
        const std::size_t i = _next++;
        // The DES walks every CPU's columns at once, more streams than
        // the hardware prefetcher follows; ask for the next lines.
        __builtin_prefetch(_span.block + i + 16);
        __builtin_prefetch(_span.unit + i + 64);
        __builtin_prefetch(_span.typeFlags + i + 64);
        return PortRef{_span.block[i], _span.unit[i],
                       _span.typeFlags[i]};
    }

    /**
     * Begin a stall: the reference consumed at cycle @p now produced
     * @p charge (must be non-empty).  Transactions are then drained
     * with nextTxn() / hasPendingTxn().
     */
    void beginStall(const RefCharge &charge, std::uint64_t now);

    /** A transaction is still waiting to be issued. */
    bool
    hasPendingTxn() const
    {
        return _txnNext < _charge.count;
    }

    /** Issue the next transaction of the in-flight charge. */
    const TxnCharge &nextTxn();

    /** End the stall at cycle @p now (all transactions completed). */
    void endStall(std::uint64_t now);

    /** Record that this CPU retired its whole stream at @p now. */
    void finish(std::uint64_t now) { _stats.finishCycle = now; }

    const CpuTimedStats &stats() const { return _stats; }

  private:
    /** Move to the cursor's next span; false at end of stream. */
    bool nextSpan();

    unsigned _cpu;
    trace::CpuRefCursor *_cursor;
    trace::PreparedSpan _span;
    std::size_t _next = 0; //!< Next reference within _span.

    RefCharge _charge;
    unsigned _txnNext = 0;
    std::uint64_t _stallStart = 0;

    CpuTimedStats _stats;
};

} // namespace dirsim::timing

#endif // DIRSIM_TIMING_PORT_HH
