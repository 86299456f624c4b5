/**
 * @file
 * Shared plumbing for the benches: a wall-clock timer and the one
 * throughput line every bench prints, so runs are comparable across
 * binaries.
 */

#ifndef DIRSIM_BENCH_COMMON_HH
#define DIRSIM_BENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <sstream>
#include <string>

namespace dirsim::bench
{

/** Seconds elapsed on a steady clock since construction. */
class WallTimer
{
  public:
    double
    seconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - _start)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point _start =
        std::chrono::steady_clock::now();
};

/**
 * Uniform one-line throughput report: every bench prints wall clock
 * and refs/sec in the same shape, so runs are comparable across
 * binaries and greppable by "[bench]".
 */
inline std::string
throughputLine(const std::string &name, std::uint64_t refs,
               double seconds)
{
    std::ostringstream os;
    os << "[bench] " << name << ": " << seconds << " s wall, " << refs
       << " refs";
    if (seconds > 0.0 && refs > 0)
        os << ", "
           << static_cast<std::uint64_t>(
                  static_cast<double>(refs) / seconds)
           << " refs/sec";
    return os.str();
}

} // namespace dirsim::bench

#endif // DIRSIM_BENCH_COMMON_HH
