/**
 * @file
 * Trace tooling: generate, convert, inspect and simulate trace files.
 *
 * The library consumes any interleaved multiprocessor reference trace
 * through trace::RefSource; this tool shows the full round trip on
 * files so recorded traces from other tools can be plugged in.
 *
 * Run with --help for the commands.
 */

#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "analysis/exhibits.hh"
#include "cli/parse.hh"
#include "coherence/dragon_engine.hh"
#include "coherence/inval_engine.hh"
#include "coherence/limited_engine.hh"
#include "gen/workloads.hh"
#include "sim/simulator.hh"
#include "trace/characterize.hh"
#include "trace/io.hh"

namespace
{

using namespace dirsim;

const char *const kUsage =
    "Usage:\n"
    "  trace_tools gen <pops|thor|pero> <out.trc> [refs]\n"
    "      generate a synthetic workload into a binary trace file\n"
    "  trace_tools info <in.trc>\n"
    "      print Table-3-style characteristics of a binary trace\n"
    "  trace_tools dump <in.trc> [n]\n"
    "      print the first n (default 20) records as text\n"
    "  trace_tools sim <in.trc>\n"
    "      run the four-protocol evaluation on a binary trace\n"
    "  trace_tools -h|--help\n"
    "      print this help and exit\n";

/** Report a bad command line and exit 2, before any output exists. */
[[noreturn]] void
usageError(const std::string &why)
{
    std::cerr << "error: " << why << "\n" << kUsage;
    std::exit(2);
}

int
cmdGen(const std::string &name, const std::string &path,
       std::uint64_t refs)
{
    gen::WorkloadConfig cfg;
    if (name == "pops")
        cfg = gen::popsConfig();
    else if (name == "thor")
        cfg = gen::thorConfig();
    else if (name == "pero")
        cfg = gen::peroConfig();
    else
        usageError("unknown workload '" + name + "'");
    if (refs != 0)
        cfg.totalRefs = refs;

    const trace::MemoryTrace trace = gen::generateTrace(cfg);
    trace::saveBinaryFile(trace, path);
    std::cout << "wrote " << trace.size() << " records to " << path
              << "\n";
    return 0;
}

int
cmdInfo(const std::string &path)
{
    const trace::MemoryTrace trace = trace::loadBinaryFile(path);
    trace::MemoryTraceSource source(trace);
    const auto ch =
        trace::characterize(source, trace.meta().name);
    std::cout << "name:          " << ch.name << "\n"
              << "cpus:          " << trace.meta().nCpus << "\n"
              << "processes:     " << trace.meta().nProcesses << "\n"
              << "references:    " << ch.refs << "\n"
              << "instructions:  " << ch.instr << "\n"
              << "data reads:    " << ch.dataReads << "\n"
              << "data writes:   " << ch.dataWrites << "\n"
              << "system refs:   " << ch.system << "\n"
              << "lock spins:    " << ch.lockTestReads << "\n"
              << "unique blocks: " << ch.uniqueDataBlocks << "\n"
              << "shared blocks: " << ch.sharedDataBlocks << "\n"
              << "read/write:    " << ch.readWriteRatio() << "\n";
    return 0;
}

int
cmdDump(const std::string &path, std::size_t n)
{
    const trace::MemoryTrace trace = trace::loadBinaryFile(path);
    for (std::size_t i = 0; i < std::min(n, trace.size()); ++i) {
        const trace::TraceRecord &rec = trace[i];
        const char type = rec.isInstr() ? 'I'
                          : rec.isRead() ? 'R'
                                         : 'W';
        std::cout << i << ": cpu" << unsigned(rec.cpu) << " pid"
                  << rec.pid << ' ' << type << " 0x" << std::hex
                  << rec.addr << std::dec;
        if (rec.isSystem())
            std::cout << " [sys]";
        if (rec.isLockTest())
            std::cout << " [lock-test]";
        if (rec.isLockWrite())
            std::cout << " [lock-write]";
        std::cout << "\n";
    }
    return 0;
}

int
cmdSim(const std::string &path)
{
    const trace::MemoryTrace trace = trace::loadBinaryFile(path);
    const unsigned units =
        std::max(trace.meta().nProcesses, trace.meta().nCpus);
    if (units == 0 || units > 64) {
        std::cerr << "trace metadata reports " << units
                  << " sharing units; need 1..64\n";
        return 1;
    }

    sim::Simulator simulator;
    coherence::InvalEngineConfig icfg;
    icfg.nUnits = units;
    auto &inval = simulator.addEngine(
        std::make_unique<coherence::InvalEngine>(icfg));
    auto &dir1nb = simulator.addEngine(
        std::make_unique<coherence::LimitedEngine>(units, 1));
    auto &dragon = simulator.addEngine(
        std::make_unique<coherence::DragonEngine>(units));
    trace::MemoryTraceSource source(trace);
    simulator.run(source);

    analysis::Evaluation eval;
    analysis::TraceEvaluation te;
    te.trace = trace.meta().name;
    te.inval = inval.results();
    te.dir1nb = dir1nb.results();
    te.dragon = dragon.results();
    eval.average = te;
    eval.traces.push_back(std::move(te));

    std::cout << analysis::table4(eval).toString() << "\n"
              << analysis::figure2(eval).toString();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<std::string> args =
        cli::positionalArgs(argc, argv, kUsage, 4);
    const std::string cmd = args.empty() ? "" : args[0];
    // Require [lo, hi] arguments, the command included.
    const auto arity = [&](std::size_t lo, std::size_t hi) {
        if (args.size() < lo)
            usageError("'" + cmd + "' needs more arguments");
        if (args.size() > hi)
            usageError("unexpected argument '" + args[hi] + "'");
    };
    try {
        if (cmd == "gen") {
            arity(3, 4);
            const std::uint64_t refs =
                args.size() > 3
                    ? cli::parseUnsigned(args[3].c_str(), "gen refs")
                    : 0;
            return cmdGen(args[1], args[2], refs);
        }
        if (cmd == "info") {
            arity(2, 2);
            return cmdInfo(args[1]);
        }
        if (cmd == "dump") {
            arity(2, 3);
            const std::size_t n =
                args.size() > 2
                    ? cli::parseUnsigned(args[2].c_str(), "dump count")
                    : 20;
            return cmdDump(args[1], n);
        }
        if (cmd == "sim") {
            arity(2, 2);
            return cmdSim(args[1]);
        }
    } catch (const std::exception &err) {
        std::cerr << "error: " << err.what() << "\n";
        return 1;
    }
    usageError(cmd.empty() ? "missing command"
                           : "unknown command '" + cmd + "'");
}
