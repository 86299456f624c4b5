#include "timing/timed_bus.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <string>

#include "sim/unit_map.hh"
#include "timing/event_queue.hh"
#include "timing/transactions.hh"
#include "trace/store.hh"

namespace dirsim::timing
{

TimedBusModel
timedPipelinedBus(const bus::BusPrimitives &prim)
{
    // Separate address/data paths release the bus during the memory
    // access; the requester still waits for the data.
    return TimedBusModel{bus::pipelinedBus(prim), prim.waitMemory};
}

TimedBusModel
timedNonPipelinedBus(const bus::BusPrimitives &prim)
{
    // The multiplexed bus is held during the access, so the wait is
    // already part of the occupancy.
    return TimedBusModel{bus::nonPipelinedBus(prim), 0};
}

double
TimedRun::busUtilization() const
{
    return makespan == 0 ? 0.0
                         : static_cast<double>(busBusyCycles) /
                               static_cast<double>(makespan);
}

double
TimedRun::busCyclesPerRef() const
{
    return refs == 0 ? 0.0
                     : static_cast<double>(busBusyCycles) /
                           static_cast<double>(refs);
}

double
TimedRun::effectiveCyclesPerRef() const
{
    if (refs == 0)
        return 0.0;
    std::uint64_t active = 0;
    for (const CpuTimedStats &cpu : cpus)
        active += cpu.finishCycle;
    return static_cast<double>(active) / static_cast<double>(refs);
}

bool
TimedRun::identicalTo(const TimedRun &other) const
{
    return scheme == other.scheme && bus == other.bus &&
           discipline == other.discipline && name == other.name &&
           nCpus == other.nCpus && refs == other.refs &&
           makespan == other.makespan &&
           busBusyCycles == other.busBusyCycles &&
           transactions == other.transactions &&
           queueDelay == other.queueDelay && cpus == other.cpus &&
           engine == other.engine;
}

namespace
{

/** Furthest ahead of the current cycle runPorts() wakes a CPU: after
 *  a bus-free reference, or after a tenure's off-bus memory wait. */
std::uint64_t
wakeHorizon(const TimedBusConfig &cfg)
{
    return std::max<std::uint64_t>(cfg.cyclesPerRef,
                                   cfg.bus.memExtraLatency);
}

} // namespace

TimedBusSim::TimedBusSim(
    const TimedBusConfig &cfg,
    std::unique_ptr<coherence::CoherenceEngine> engine)
    : _cfg(cfg), _engine(std::move(engine))
{
    if (!_engine)
        throw std::invalid_argument("TimedBusSim: engine is null");
    // The event calendar spans the wake-up horizon, so bound it
    // before a run allocates one.
    if (wakeHorizon(_cfg) > CycleCalendar::maxHorizon)
        throw std::invalid_argument(
            "TimedBusSim: cyclesPerRef and memExtraLatency must not "
            "exceed " + std::to_string(CycleCalendar::maxHorizon) +
            " cycles");
}

TimedBusSim::~TimedBusSim() = default;

TimedRun
TimedBusSim::run(trace::RefSource &source)
{
    // A demux failure must not leave a previous run's results behind.
    _engine->reset();

    // Demux the stream into per-CPU SoA columns — the same shape a
    // prepared trace's timed streams carry — mapping sharing units
    // with the same UnitMapper sim::Simulator uses (so timed and
    // untimed runs agree on unit numbering).  Port demux always keys
    // by CPU, whatever the sharing domain.  Unit capacity is checked
    // here, before the engine sees any reference.
    std::vector<trace::PreparedCpuStream> streams;
    sim::UnitMapper cpuMap(sim::SharingDomain::Processor);
    sim::UnitMapper unitMap(_cfg.sim.domain);
    const mem::BlockMapper toBlock(_cfg.sim.blockBytes);
    const unsigned capacity = _engine->numUnits();

    constexpr std::size_t batchRecords = 4096;
    std::vector<trace::TraceRecord> records(batchRecords);
    std::size_t n;
    while ((n = source.nextBatch(records.data(), batchRecords)) != 0) {
        for (std::size_t i = 0; i < n; ++i) {
            const trace::TraceRecord &rec = records[i];
            const unsigned unit = unitMap.map(rec);
            if (unit >= capacity)
                throw std::runtime_error(
                    "TimedBusSim: trace uses more sharing units than "
                    "engine '" + _engine->results().name +
                    "' supports");
            const mem::BlockId block = toBlock(rec.addr);
            if (block > 0xffffffffULL)
                throw std::runtime_error(
                    "TimedBusSim: block index exceeds the 32-bit "
                    "port-stream column");
            const unsigned cpu = cpuMap.map(rec);
            if (cpu == streams.size())
                streams.emplace_back();
            trace::PreparedCpuStream &stream = streams[cpu];
            stream.block.push_back(
                static_cast<std::uint32_t>(block));
            stream.unit.push_back(static_cast<std::uint8_t>(unit));
            stream.typeFlags.push_back(
                trace::packTypeFlags(rec.type, rec.flags));
        }
    }

    std::vector<trace::PreparedCpuStreamCursor> cursors;
    cursors.reserve(streams.size());
    for (const trace::PreparedCpuStream &stream : streams)
        cursors.emplace_back(stream);
    std::vector<RequestPort> ports;
    ports.reserve(cursors.size());
    for (unsigned cpu = 0; cpu < cursors.size(); ++cpu)
        ports.emplace_back(cpu, &cursors[cpu]);
    return runPorts(ports);
}

TimedRun
TimedBusSim::run(const trace::PreparedTrace &prepared)
{
    if (!prepared.hasTimedStreams())
        throw std::invalid_argument(
            "TimedBusSim: prepared trace '" + prepared.name() +
            "' was decoded without timed per-CPU streams");
    const trace::PrepareOptions &opts = prepared.options();
    if (opts.blockBytes != _cfg.sim.blockBytes ||
        opts.domain != _cfg.sim.domain)
        throw std::invalid_argument(
            "TimedBusSim: prepared trace '" + prepared.name() +
            "' was decoded for a different block size or sharing "
            "domain than this run");
    if (prepared.numUnits() > _engine->numUnits())
        throw std::runtime_error(
            "TimedBusSim: trace uses more sharing units than "
            "engine '" + _engine->results().name + "' supports");

    const std::vector<trace::PreparedCpuStream> &streams =
        prepared.cpuStreams();
    std::vector<trace::PreparedCpuStreamCursor> cursors;
    cursors.reserve(streams.size());
    for (const trace::PreparedCpuStream &stream : streams)
        cursors.emplace_back(stream);
    std::vector<RequestPort> ports;
    ports.reserve(cursors.size());
    for (unsigned cpu = 0; cpu < cursors.size(); ++cpu)
        ports.emplace_back(cpu, &cursors[cpu]);
    return runPorts(ports);
}

TimedRun
TimedBusSim::run(const trace::StoredTrace &stored)
{
    if (!stored.hasTimedStreams())
        throw std::invalid_argument(
            "TimedBusSim: stored trace '" + stored.name() +
            "' was spilled without timed per-CPU streams");
    const trace::PrepareOptions &opts = stored.options();
    if (opts.blockBytes != _cfg.sim.blockBytes ||
        opts.domain != _cfg.sim.domain)
        throw std::invalid_argument(
            "TimedBusSim: stored trace '" + stored.name() +
            "' was decoded for a different block size or sharing "
            "domain than this run");
    if (stored.numUnits() > _engine->numUnits())
        throw std::runtime_error(
            "TimedBusSim: trace uses more sharing units than "
            "engine '" + _engine->results().name + "' supports");

    // One windowed file cursor per CPU; each keeps exactly one chunk
    // of its stream resident, so a timed replay of an arbitrarily
    // long store runs in O(nCpus × chunk) memory.
    std::vector<std::unique_ptr<trace::CpuRefCursor>> cursors;
    cursors.reserve(stored.numCpus());
    for (unsigned cpu = 0; cpu < stored.numCpus(); ++cpu)
        cursors.push_back(stored.cpuCursor(cpu));
    std::vector<RequestPort> ports;
    ports.reserve(cursors.size());
    for (unsigned cpu = 0; cpu < cursors.size(); ++cpu)
        ports.emplace_back(cpu, cursors[cpu].get());
    return runPorts(ports);
}

TimedRun
TimedBusSim::runPorts(std::vector<RequestPort> &ports)
{
    // Validates the cost options before anything runs.
    const TransactionModel model(_cfg.scheme, _cfg.bus.costs,
                                 _cfg.costOpts);
    _engine->reset();
    if (_cfg.sim.expectedBlocks != 0)
        _engine->reserveBlocks(_cfg.sim.expectedBlocks);

    const unsigned nCpus = static_cast<unsigned>(ports.size());
    TimedRun result;
    result.scheme =
        sim::schemeName(_cfg.scheme, _cfg.costOpts.nPointers);
    result.bus = _cfg.bus.costs.name;
    result.discipline = disciplineName(_cfg.discipline);
    result.nCpus = nCpus;
    if (nCpus == 0) {
        result.engine = _engine->results();
        return result;
    }

    const auto arbiter = BusArbiter::make(_cfg.discipline, nCpus);

    // --- The discrete-event loop -------------------------------------
    CycleCalendar calendar(nCpus, wakeHorizon(_cfg));
    std::vector<BusRequest> waiters;
    bool busBusy = false;
    unsigned busHolder = 0;
    bool busUsesMemory = false;
    std::uint64_t reqSeq = 0;

    // One wave's working set: its CPUs; the data references it
    // executes, as one SoA slice in CPU order, with their outcomes;
    // the CPUs to visit again once the engine has run, in CPU order
    // (cpu * 2 + 1 for one that ran a slice reference, cpu * 2 for
    // one with a tenure to issue); and the CPUs that retire a
    // bus-free reference, to re-arm as one mask.  The loop works on
    // raw pointers into these: the byte columns may alias anything,
    // and would force a reload of every vector's data pointer after
    // each store.
    const unsigned words = calendar.maskWords();
    std::vector<std::uint64_t> masks(2 * words, 0);
    std::vector<std::uint32_t> blocks(nCpus);
    std::vector<std::uint8_t> bytes(2 * nCpus);
    std::vector<coherence::RefOutcome> outcomeStore(nCpus);
    std::vector<unsigned> visitStore(nCpus);
    std::uint64_t *const wave = masks.data();
    std::uint64_t *const carry = wave + words;
    std::uint32_t *const waveBlock = blocks.data();
    std::uint8_t *const waveUnit = bytes.data();
    std::uint8_t *const waveTypeFlags = waveUnit + nCpus;
    coherence::RefOutcome *const outcomes = outcomeStore.data();
    unsigned *const visits = visitStore.data();
    RequestPort *const port0 = ports.data();
    // With cyclesPerRef 0 a bus-free CPU re-arms for the current
    // cycle and runs again before any higher-index CPU still waiting
    // there, so each wave is one CPU.
    const bool oneCpuWaves = _cfg.cyclesPerRef == 0;
    // Instruction fetches change no engine state (see
    // CoherenceEngine::recordInstrs), so when they cost no bus they
    // bypass the engine and are counted in bulk.
    std::uint64_t instrs = 0;
    const bool instrsBusFree = model.busFree(coherence::RefOutcome{});

    // Push the next tenure of @p port's in-flight charge into the
    // arbitration queue; the grant phase at the end of the current
    // cycle considers it.
    const auto issue = [&](RequestPort &port, std::uint64_t now) {
        const TxnCharge &txn = port.nextTxn();
        waiters.push_back(BusRequest{port.cpu(), now, reqSeq++,
                                     txn.busCycles, txn.usesMemory});
    };

    for (unsigned p = 0; p < nCpus; ++p)
        calendar.scheduleCpu(0, p);

    while (calendar.advance()) {
        const std::uint64_t now = calendar.now();

        // Deliver every event of this cycle before arbitrating, so a
        // freed bus and the requests arriving on the same cycle meet
        // in one grant phase.
        if (calendar.takeBusCompletion()) {
            assert(busBusy);
            busBusy = false;
            RequestPort &port = ports[busHolder];
            // Pipelined buses: the requester sees the data only after
            // the off-bus memory wait.
            const std::uint64_t done =
                now + (busUsesMemory ? _cfg.bus.memExtraLatency : 0);
            if (!port.hasPendingTxn())
                port.endStall(done);
            calendar.scheduleCpu(done, busHolder);
        }

        while (calendar.takeWave(wave, oneCpuWaves)) {
            // Take each ready CPU's next reference and run the wave's
            // data references through the engine in one call.
            std::size_t n = 0, nVisits = 0;
            for (unsigned w = 0; w < words; ++w) {
                for (std::uint64_t bits = wave[w]; bits != 0;
                     bits &= bits - 1) {
                    const unsigned cpu =
                        w * 64 + unsigned(std::countr_zero(bits));
                    RequestPort &port = port0[cpu];
                    if (port.hasPendingTxn()) {
                        visits[nVisits++] = cpu * 2;
                        continue;
                    }
                    if (!port.hasMoreRefs()) {
                        port.finish(now);
                        continue;
                    }
                    // Fetches and data references interleave at
                    // random, so this split is branch-free: the
                    // reference is always written to the slice, and
                    // kept only if it is not a bypassing fetch.
                    const PortRef ref = port.takeRef();
                    const bool bypass =
                        instrsBusFree &&
                        trace::packedRefType(ref.typeFlags) ==
                            trace::RefType::Instr;
                    waveBlock[n] = ref.block;
                    waveUnit[n] = ref.unit;
                    waveTypeFlags[n] = ref.typeFlags;
                    visits[nVisits] = cpu * 2 + 1;
                    n += !bypass;
                    nVisits += !bypass;
                    instrs += bypass;
                    carry[w] |= std::uint64_t(bypass) << (cpu % 64);
                }
            }
            if (n != 0)
                _engine->accessRecorded(
                    coherence::PreparedSlice{waveBlock, waveUnit,
                                             waveTypeFlags, n},
                    outcomes);

            // Then, in CPU order, charge each reference just run, or
            // issue a stalled reference's next tenure.
            const coherence::RefOutcome *outcome = outcomes;
            for (std::size_t v = 0; v < nVisits; ++v) {
                const unsigned cpu = visits[v] / 2;
                RequestPort &port = port0[cpu];
                if (visits[v] % 2 == 0) {
                    issue(port, now);
                    continue;
                }
                const coherence::RefOutcome &done = *outcome++;
                if (!model.busFree(done)) {
                    const RefCharge charge = model.charge(done);
                    if (!charge.empty()) {
                        port.beginStall(charge, now);
                        issue(port, now);
                        continue;
                    }
                }
                carry[cpu / 64] |= std::uint64_t(1) << (cpu % 64);
            }
            calendar.scheduleMask(now + _cfg.cyclesPerRef, carry);
        }

        if (!busBusy && !waiters.empty()) {
            const std::size_t pick = arbiter->pick(waiters);
            assert(pick < waiters.size());
            const BusRequest req = waiters[pick];
            waiters.erase(waiters.begin() +
                          static_cast<std::ptrdiff_t>(pick));
            arbiter->granted(req.cpu);
            result.queueDelay.sample(
                static_cast<std::size_t>(now - req.arrival));
            ++result.transactions;
            result.busBusyCycles += req.busCycles;
            busBusy = true;
            busHolder = req.cpu;
            busUsesMemory = req.usesMemory;
            calendar.scheduleBus(now + req.busCycles);
        }
    }
    assert(waiters.empty());

    _engine->recordInstrs(instrs);

    std::uint64_t cpuTransactions = 0;
    for (const RequestPort &port : ports) {
        const CpuTimedStats &stats = port.stats();
        result.refs += stats.refs;
        result.makespan = std::max(result.makespan, stats.finishCycle);
        cpuTransactions += stats.transactions;
        result.cpus.push_back(stats);
    }
    result.engine = _engine->results();

    // The run's invariants: the bus was busy for exactly the static
    // aggregate of this run's engine statistics, every reference was
    // one engine access, and every granted tenure was a CPU's.
    assert(result.busBusyCycles ==
           staticBusCycles(_cfg.scheme, result.engine, _cfg.bus.costs,
                           _cfg.costOpts));
    assert(result.refs == result.engine.events.totalRefs());
    assert(cpuTransactions == result.transactions);
    (void)cpuTransactions;
    return result;
}

} // namespace dirsim::timing
