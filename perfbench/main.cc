/**
 * @file
 * dirsim_bench: runs ONE instance of one benchmark workload.
 *
 * Usage: dirsim_bench --workload NAME --out DIR [--seed N]
 *        [--trace 0|1] [--spans FILE] [--size default|tiny]
 *        [--expected FILE] [--record FILE]
 *
 * run.py spawns it once per instance.  The last stdout line is one
 * JSON object: monotonic-clock stamps of the first result-producing
 * call and of the end of the workload, peak RSS, engine-references,
 * and the check counts.  Bad arguments exit 2 before any work.
 */

#include <algorithm>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hh"

namespace
{

using perfbench::Options;

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "dirsim_bench: " << why
              << "\nusage: dirsim_bench --workload campaign|sweep_full|"
                 "sweep_streamed|timed_contention --out DIR [--seed N] "
                 "[--trace 0|1] [--spans FILE] [--size default|tiny] "
                 "[--expected FILE] [--record FILE]\n";
    std::exit(2);
}

std::uint64_t
parseSeed(const std::string &text)
{
    if (text.empty() || text.size() > 19 ||
        !std::all_of(text.begin(), text.end(),
                     [](char c) { return c >= '0' && c <= '9'; }))
        usage("--seed needs a decimal number below 10^19");
    return std::stoull(text);
}

Options
parse(int argc, char **argv, std::string &spans)
{
    Options opts;
    for (int a = 1; a < argc; ++a) {
        const std::string flag = argv[a];
        if (a + 1 >= argc)
            usage(flag + " needs a value");
        const std::string value = argv[++a];
        if (flag == "--workload") {
            if (value != "campaign" && value != "sweep_full" &&
                value != "sweep_streamed" && value != "timed_contention")
                usage("unknown workload '" + value + "'");
            opts.workload = value;
        } else if (flag == "--seed") {
            opts.seed = parseSeed(value);
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            opts.trace = value == "1";
        } else if (flag == "--size") {
            if (value != "default" && value != "tiny")
                usage("--size takes default or tiny");
            opts.tiny = value == "tiny";
        } else if (flag == "--out") {
            opts.outDir = value;
        } else if (flag == "--spans") {
            spans = value;
        } else if (flag == "--expected") {
            opts.expected = value;
        } else if (flag == "--record") {
            opts.record = value;
        } else {
            usage("unknown flag '" + flag + "'");
        }
    }
    if (opts.workload.empty() || opts.outDir.empty())
        usage("--workload and --out are required");
    if (opts.trace != !spans.empty())
        usage("--spans FILE goes with --trace 1");
    opts.jobs = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
    return opts;
}

} // namespace

int
main(int argc, char **argv)
{
    using perfbench::jsonString;
    std::string spans;
    const Options opts = parse(argc, argv, spans);
    perfbench::Tracer tracer(opts.trace);
    try {
        perfbench::Checker checker(opts.expected, opts.seed == 0);
        perfbench::Context ctx{opts, tracer, checker};
        ctx.root.emplace(tracer, "bench.workload", opts.workload);
        if (opts.workload == "campaign")
            perfbench::runCampaign(ctx);
        else if (opts.workload == "sweep_full")
            perfbench::runSweep(ctx, false);
        else if (opts.workload == "sweep_streamed")
            perfbench::runSweep(ctx, true);
        else
            perfbench::runTimedContention(ctx);

        if (opts.trace)
            tracer.write(spans);
        if (!opts.record.empty())
            checker.record(opts.record);
        std::ostringstream os;
        os << std::setprecision(17) << "{\"workload\": "
           << jsonString(opts.workload) << ", \"seed\": " << opts.seed
           << ", \"jobs\": " << opts.jobs
           << ", \"first_result\": " << ctx.firstResult
           << ", \"end\": " << ctx.end
           << ", \"peak_rss_kib\": " << ctx.peakRssKiB
           << ", \"engine_refs\": " << ctx.engineRefs
           << ", \"attempted\": " << checker.attempted()
           << ", \"failed\": " << checker.failed()
           << ", \"failures\": [";
        for (std::size_t i = 0; i < checker.failures().size(); ++i)
            os << (i ? ", " : "")
               << jsonString(checker.failures()[i]);
        os << "]}";
        std::cout << os.str() << std::endl;
    } catch (const std::exception &e) {
        std::cerr << "dirsim_bench: " << opts.workload
                  << " failed: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
