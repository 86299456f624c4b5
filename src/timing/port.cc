#include "timing/port.hh"

#include <cassert>

namespace dirsim::timing
{

bool
RequestPort::nextSpan()
{
    if (!_cursor->nextSpan(_span))
        return false;
    assert(_span.n != 0);
    _next = 0;
    return true;
}

void
RequestPort::beginStall(const RefCharge &charge, std::uint64_t now)
{
    assert(!charge.empty());
    assert(!hasPendingTxn() && "previous charge not drained");
    _charge = charge;
    _txnNext = 0;
    _stallStart = now;
}

const TxnCharge &
RequestPort::nextTxn()
{
    assert(hasPendingTxn());
    ++_stats.transactions;
    return _charge.txns[_txnNext++];
}

void
RequestPort::endStall(std::uint64_t now)
{
    assert(!hasPendingTxn());
    _stats.stallCycles += now - _stallStart;
}

} // namespace dirsim::timing
