#include "sim/simulator.hh"

#include <limits>
#include <stdexcept>
#include <vector>

namespace dirsim::sim
{

namespace
{

/** Records fetched per batch; large enough to amortise the virtual
 *  nextBatch() call, small enough to stay in L1/L2. */
constexpr std::size_t batchRecords = 4096;

std::runtime_error
capacityError(const coherence::CoherenceEngine &smallest)
{
    return std::runtime_error(
        "Simulator: trace uses more sharing units than engine '" +
        smallest.results().name + "' supports");
}

} // namespace

Simulator::Simulator(const SimConfig &cfg)
    : _cfg(cfg), _unitMap(cfg.domain)
{
}

coherence::CoherenceEngine &
Simulator::addEngine(std::unique_ptr<coherence::CoherenceEngine> engine)
{
    _engines.push_back(std::move(engine));
    return *_engines.back();
}

std::uint64_t
Simulator::run(trace::RefSource &source)
{
    if (_cfg.expectedBlocks != 0) {
        for (auto &engine : _engines)
            engine->reserveBlocks(_cfg.expectedBlocks);
    }

    // The capacity shared by every engine; a unit index at or beyond
    // it can reach no engine, so it is checked while mapping units —
    // before the batch is dispatched anywhere.
    const coherence::CoherenceEngine *smallest = smallestEngine();
    const unsigned capacity = smallest
                                  ? smallest->numUnits()
                                  : std::numeric_limits<unsigned>::max();

    std::uint64_t processed = 0;
    const mem::BlockMapper toBlock(_cfg.blockBytes);
    std::vector<trace::TraceRecord> records(batchRecords);
    std::vector<coherence::BlockAccess> batch(batchRecords);
    std::size_t n;
    while ((n = source.nextBatch(records.data(), batchRecords)) != 0) {
        // Map (and validate) the whole batch first: if the trace
        // overflows the smallest engine, no engine has seen any part
        // of this batch yet, and resetting them undoes the prefix.
        // Instruction fetches change no engine state, so they are
        // stripped here and reported in bulk — the unit map still
        // sees every record, keeping first-seen numbering intact.
        // The strip is branchless (write, then advance conditionally):
        // instruction/data interleaving is close to a coin flip, and a
        // mispredicted branch per record costs more than the store.
        std::size_t nData = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const trace::TraceRecord &rec = records[i];
            const unsigned unit = _unitMap.map(rec);
            if (unit >= capacity) {
                for (auto &engine : _engines)
                    engine->reset();
                _unitMap.clear();
                throw capacityError(*smallest);
            }
            batch[nData] = {unit, rec.type, toBlock(rec.addr)};
            nData += rec.type != trace::RefType::Instr;
        }
        const std::uint64_t nInstr = n - nData;
        for (auto &engine : _engines) {
            if (nInstr != 0)
                engine->recordInstrs(nInstr);
            engine->accessBatch(batch.data(), nData);
        }
        processed += n;
    }
    return processed;
}

std::uint64_t
Simulator::run(const trace::PreparedTrace &prepared)
{
    trace::PreparedTraceSpans spans(prepared);
    return run(spans);
}

std::uint64_t
Simulator::run(trace::PreparedSpanSource &spans)
{
    const trace::PrepareOptions &opts = spans.options();
    if (opts.blockBytes != _cfg.blockBytes ||
        opts.domain != _cfg.domain)
        throw std::invalid_argument(
            "Simulator: prepared stream '" + spans.name() +
            "' was decoded for a different block size or sharing "
            "domain than this simulator");

    // Unlike the streaming path, the unit count is known up front, so
    // the capacity check happens before any engine sees anything — a
    // failed run mutates nothing.
    const coherence::CoherenceEngine *smallest = smallestEngine();
    if (smallest && spans.numUnits() > smallest->numUnits())
        throw capacityError(*smallest);

    if (_cfg.expectedBlocks != 0) {
        for (auto &engine : _engines)
            engine->reserveBlocks(_cfg.expectedBlocks);
    }
    if (spans.numUnits() > _preparedUnits)
        _preparedUnits = spans.numUnits();

    FusedReplay replay(
        FusedReplayOptions{.stripRefs = _cfg.replayStripRefs});
    return replay.run(spans, enginePointers()).totalRefs();
}

const coherence::CoherenceEngine *
Simulator::smallestEngine() const
{
    const coherence::CoherenceEngine *smallest = nullptr;
    for (const auto &engine : _engines)
        if (!smallest || engine->numUnits() < smallest->numUnits())
            smallest = engine.get();
    return smallest;
}

std::vector<coherence::CoherenceEngine *>
Simulator::enginePointers() const
{
    std::vector<coherence::CoherenceEngine *> engines;
    engines.reserve(_engines.size());
    for (const auto &engine : _engines)
        engines.push_back(engine.get());
    return engines;
}

} // namespace dirsim::sim
