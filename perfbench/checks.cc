#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "bench.hh"

namespace perfbench
{

namespace
{

using dirsim::coherence::EngineResults;

void
put(std::ostringstream &os, const dirsim::stats::Histogram &h)
{
    os << h.totalSamples() << ' ' << h.totalWeight() << " [";
    for (std::size_t v = 0; v <= h.maxValue(); ++v)
        os << h.count(v) << ' ';
    os << "]\n";
}

} // namespace

std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
canonical(const EngineResults &r)
{
    std::ostringstream os;
    os << r.name << '\n' << r.events.totalRefs() << " [";
    for (std::size_t e = 0; e < dirsim::coherence::numEvents; ++e)
        os << r.events.count(static_cast<dirsim::coherence::Event>(e))
           << ' ';
    os << "]\n";
    put(os, r.whClnFanout);
    put(os, r.wmClnFanout);
    for (const std::uint64_t v :
         {r.holderGrowth12, r.displacementInvals, r.dirDirectedInvals,
          r.dirBroadcasts, r.dirOvershoot, r.homeLocalTransactions,
          r.homeRemoteTransactions, r.replacementEvictions,
          r.replacementWriteBacks, r.dirCacheHits, r.dirCacheMisses,
          r.dirCacheEvictions, r.dirCacheEvictionInvals,
          r.dirCacheEvictionWriteBacks})
        os << v << ' ';
    os << '\n';
    return os.str();
}

std::string
canonical(const dirsim::timing::TimedRun &run)
{
    std::ostringstream os;
    os << run.scheme << ' ' << run.bus << ' ' << run.discipline << ' '
       << run.name << '\n'
       << run.nCpus << ' ' << run.refs << ' ' << run.makespan << ' '
       << run.busBusyCycles << ' ' << run.transactions << '\n';
    put(os, run.queueDelay);
    for (const auto &cpu : run.cpus)
        os << cpu.refs << ' ' << cpu.transactions << ' '
           << cpu.stallCycles << ' ' << cpu.finishCycle << '\n';
    return os.str() + canonical(run.engine);
}

Checker::Checker(const std::string &expectedPath, bool defaultSeed)
    : _defaultSeed(defaultSeed)
{
    if (expectedPath.empty())
        return;
    std::ifstream in(expectedPath);
    if (!in)
        throw std::runtime_error("cannot read digest table " +
                                 expectedPath);
    _compare = true;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string name;
        std::string hex;
        if (!(fields >> name >> hex))
            throw std::runtime_error("bad digest line: " + line);
        _expected[name] = std::stoull(hex, nullptr, 16);
    }
}

void
Checker::result(const std::string &name, const std::string &text,
                bool seedIndependent,
                const std::vector<std::string> &problems)
{
    ++_attempted;
    const std::uint64_t digest = fnv1a(text);
    _seen.emplace_back(name, digest);
    std::string why;
    for (const std::string &p : problems)
        why += (why.empty() ? "" : "; ") + p;
    if (_compare && (_defaultSeed || seedIndependent)) {
        const auto it = _expected.find(name);
        if (it == _expected.end())
            why += (why.empty() ? "" : "; ") +
                   std::string("no expected digest");
        else if (it->second != digest)
            why += (why.empty() ? "" : "; ") +
                   std::string("digest differs from the table");
    }
    if (!why.empty())
        _failures.push_back(name + ": " + why);
}

std::vector<std::string>
Checker::engineProblems(const EngineResults &r, std::uint64_t refs)
{
    std::vector<std::string> out;
    std::uint64_t sum = 0;
    for (std::size_t e = 0; e < dirsim::coherence::numEvents; ++e)
        sum += r.events.count(static_cast<dirsim::coherence::Event>(e));
    if (sum != r.events.totalRefs())
        out.push_back("event counts sum to " + std::to_string(sum) +
                      ", not " + std::to_string(r.events.totalRefs()));
    if (r.events.totalRefs() != refs)
        out.push_back("consumed " +
                      std::to_string(r.events.totalRefs()) +
                      " refs, trace has " + std::to_string(refs));
    return out;
}

void
Checker::record(const std::string &path) const
{
    std::ofstream out(path);
    out << "# name fnv1a-64 (written by dirsim_bench --record)\n";
    for (const auto &[name, digest] : _seen)
        out << name << ' ' << std::hex << std::setw(16)
            << std::setfill('0') << digest << std::dec << '\n';
    if (!out)
        throw std::runtime_error("cannot write digest table " + path);
}

} // namespace perfbench
