#include <sys/resource.h>

#include <chrono>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "bench.hh"
#include "sim/trace_repo.hh"

namespace perfbench
{

namespace
{

thread_local int currentSpan = 0;

std::map<std::string, double>
repoCounters()
{
    const dirsim::sim::RepoStats s =
        dirsim::sim::TraceRepository::global().stats();
    return {{"repo.builds", double(s.builds)},
            {"repo.hits", double(s.hits)},
            {"repo.misses", double(s.misses)},
            {"repo.disk_hits", double(s.diskHits)},
            {"repo.disk_writes", double(s.diskWrites)},
            {"repo.evictions", double(s.evictions)}};
}

} // namespace

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
    }
    return out + "\"";
}

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

void
Context::finish()
{
    root.reset();
    end = now();
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    peakRssKiB = ru.ru_maxrss;
}

int
Tracer::open(const std::string &name, const std::string &label,
             int parent)
{
    if (!_enabled)
        return 0;
    std::lock_guard<std::mutex> lock(_mutex);
    SpanRecord span;
    span.id = static_cast<int>(_spans.size()) + 1;
    span.parent = parent;
    span.name = name;
    span.label = label;
    span.start = now();
    _spans.push_back(std::move(span));
    return _spans.back().id;
}

void
Tracer::close(int id, double cpu,
              const std::map<std::string, double> &counters)
{
    if (!_enabled)
        return;
    const double t = now();
    std::lock_guard<std::mutex> lock(_mutex);
    SpanRecord &span = _spans.at(static_cast<std::size_t>(id - 1));
    span.end = t;
    span.cpu = cpu;
    for (const auto &[name, value] : counters)
        span.counters[name] += value;
}

void
Tracer::counter(int id, const std::string &name, double value)
{
    if (!_enabled)
        return;
    std::lock_guard<std::mutex> lock(_mutex);
    _spans.at(static_cast<std::size_t>(id - 1)).counters[name] += value;
}

void
Tracer::write(const std::string &path) const
{
    std::ostringstream os;
    os << std::setprecision(17) << "{\"spans\": [";
    std::lock_guard<std::mutex> lock(_mutex);
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        const SpanRecord &s = _spans[i];
        os << (i ? ",\n" : "\n") << "{\"id\": " << s.id
           << ", \"parent\": " << s.parent
           << ", \"name\": " << jsonString(s.name)
           << ", \"label\": " << jsonString(s.label)
           << ", \"start\": " << s.start << ", \"end\": " << s.end
           << ", \"cpu\": " << s.cpu << ", \"counters\": {";
        bool first = true;
        for (const auto &[name, value] : s.counters) {
            os << (first ? "" : ", ") << jsonString(name) << ": "
               << value;
            first = false;
        }
        os << "}}";
    }
    os << "\n]}\n";
    std::ofstream out(path);
    out << os.str();
    if (!out)
        throw std::runtime_error("cannot write span log " + path);
}

Span::Span(Tracer &tracer, const std::string &name,
           const std::string &label)
    : _tracer(tracer)
{
    if (!tracer.enabled())
        return;
    _nested = true;
    _prev = currentSpan;
    _cpu0 = cpuSeconds();
    _repo0 = repoCounters();
    _id = tracer.open(name, label, currentSpan);
    currentSpan = _id;
}

Span::Span(Tracer &tracer, const std::string &name,
           const std::string &label, int parent)
    : _tracer(tracer)
{
    _id = tracer.open(name, label, parent);
}

Span::~Span()
{
    if (!_tracer.enabled())
        return;
    if (!_nested) {
        _tracer.close(_id, -1.0, {});
        return;
    }
    std::map<std::string, double> deltas = repoCounters();
    for (auto &[name, value] : deltas)
        value -= _repo0[name];
    _tracer.close(_id, cpuSeconds() - _cpu0, deltas);
    currentSpan = _prev;
}

void
Span::counter(const std::string &name, double value)
{
    _tracer.counter(_id, name, value);
}

} // namespace perfbench
