/**
 * @file
 * One-shot reproduction driver: renders every exhibit of the
 * registry (analysis/registry.hh) — every table and figure of the
 * paper plus the extension studies — and writes each as both aligned
 * text and CSV into an output directory, so the whole paper can be
 * regenerated (and plotted) with a single command.
 *
 * Run with --help for the options.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "analysis/evaluation.hh"
#include "analysis/registry.hh"
#include "cli/parse.hh"
#include "sim/trace_repo.hh"
#include "trace/store.hh"

namespace
{

using namespace dirsim;

/** The usage text, ending in the registry's exhibit names. */
std::string
usage()
{
    std::string text =
        "Usage: reproduce_paper [outdir] [options]\n"
        "  outdir   defaults to ./results\n"
        "  --full   full-size (~3.2M reference) traces\n"
        "  --jobs N worker threads for the simulation sweeps (0 = one\n"
        "           per hardware thread; default 1); each trace's schemes\n"
        "           replay as soon as the trace is built, and the exhibits\n"
        "           are bit-identical at any job count\n"
        "  --only NAME[,NAME...]  write only the named exhibits (names\n"
        "           below; an unknown name is a hard error)\n"
        "  --trace-cache-dir PATH    persist prepared traces as out-of-core\n"
        "           store files under PATH and replay them streamed; a\n"
        "           second run (even in another process) reuses the files\n"
        "           and skips all generate/prepare work\n"
        "  --trace-cache-budget MiB  disk-cache byte budget (default 4096)\n"
        "  --stream-chunk-refs N     refs per streamed chunk (default\n"
        "           1048576; smaller = lower replay RSS)\n"
        "  --repo-stats   print trace-repository hit/miss/spill counters\n"
        "           at the end of the run\n"
        "  --schemes CSV  restrict the Section 6 DiriNB pointer sweep to\n"
        "           the named configurations (dir1nb..dir8nb, in the order\n"
        "           given); an unknown name is a hard error\n"
        "  -h, --help     print this help and exit\n"
        "Exhibits, in output order (each written as NAME.txt and "
        "NAME.csv):\n";
    std::string line = " ";
    for (const analysis::Exhibit &ex : analysis::exhibitRegistry()) {
        if (line.size() + 1 + ex.name.size() > 72) {
            text += line + "\n";
            line = " ";
        }
        line += " " + ex.name;
    }
    return text + line + "\n";
}

/** Report a bad command line and exit 2, before any output exists. */
[[noreturn]] void
usageError(const std::string &why)
{
    std::cerr << "error: " << why << "\n" << usage();
    std::exit(2);
}

void
emit(const std::filesystem::path &outDir, const std::string &name,
     const stats::TextTable &table)
{
    std::cout << table.toString() << "\n";
    std::ofstream txt(outDir / (name + ".txt"));
    txt << table.toString();
    std::ofstream csv(outDir / (name + ".csv"));
    csv << table.toCsv();
    if (!txt || !csv)
        throw std::runtime_error("cannot write exhibit " + name);
}

} // namespace

int
main(int argc, char **argv)
{
    bool full_size = false;
    unsigned jobs = 1;
    std::string cacheDir;
    std::uint64_t cacheBudgetMiB = 4096;
    std::uint64_t streamChunkRefs = trace::kDefaultChunkRefs;
    bool repoStats = false;
    // Section 6 sweeps Dir1NB..Dir4NB by default (the paper's range);
    // --schemes replaces the list from the dirXnb vocabulary.
    std::vector<unsigned> sweepPointers = {1, 2, 3, 4};
    // Empty: every exhibit.
    std::vector<std::string> only;
    std::filesystem::path outDir = "results";
    bool haveOutDir = false;
    const auto want = [&](int &a, const char *flag) -> const char * {
        if (a + 1 >= argc) {
            std::cerr << "error: " << flag << " requires a value\n";
            std::exit(2);
        }
        return argv[++a];
    };
    for (int a = 1; a < argc; ++a) {
        if (std::strcmp(argv[a], "--help") == 0 ||
            std::strcmp(argv[a], "-h") == 0) {
            std::cout << usage();
            return 0;
        } else if (std::strcmp(argv[a], "--full") == 0) {
            full_size = true;
        } else if (std::strcmp(argv[a], "--jobs") == 0) {
            jobs = cli::parseUnsigned(want(a, "--jobs"), "--jobs");
        } else if (std::strncmp(argv[a], "--jobs=", 7) == 0) {
            jobs = cli::parseUnsigned(argv[a] + 7, "--jobs");
        } else if (std::strcmp(argv[a], "--only") == 0) {
            std::vector<std::string> names;
            for (const analysis::Exhibit &ex :
                 analysis::exhibitRegistry())
                names.push_back(ex.name);
            only = cli::parseNameList(want(a, "--only"), "--only",
                                      names);
        } else if (std::strcmp(argv[a], "--trace-cache-dir") == 0) {
            cacheDir = want(a, "--trace-cache-dir");
        } else if (std::strcmp(argv[a], "--trace-cache-budget") ==
                   0) {
            cacheBudgetMiB = cli::parseUnsignedInRange(
                want(a, "--trace-cache-budget"),
                "--trace-cache-budget", 1, 16u * 1024 * 1024);
        } else if (std::strcmp(argv[a], "--stream-chunk-refs") == 0) {
            streamChunkRefs = cli::parseUnsignedInRange(
                want(a, "--stream-chunk-refs"), "--stream-chunk-refs",
                1, 1u << 31);
        } else if (std::strcmp(argv[a], "--repo-stats") == 0) {
            repoStats = true;
        } else if (std::strcmp(argv[a], "--schemes") == 0) {
            const std::vector<std::string> allowed = {
                "dir1nb", "dir2nb", "dir3nb", "dir4nb",
                "dir5nb", "dir6nb", "dir7nb", "dir8nb"};
            sweepPointers.clear();
            for (const std::string &name : cli::parseNameList(
                     want(a, "--schemes"), "--schemes", allowed))
                sweepPointers.push_back(
                    static_cast<unsigned>(name[3] - '0'));
        } else if (argv[a][0] == '-') {
            usageError(std::string("unknown option '") + argv[a] + "'");
        } else if (haveOutDir) {
            usageError(std::string("unexpected argument '") + argv[a] +
                       "' (the output directory is already '" +
                       outDir.string() + "')");
        } else {
            outDir = argv[a];
            haveOutDir = true;
        }
    }
    try {
        // Every evaluation below (including the ones inside the
        // extension studies) picks this up and fans out over the
        // sweep engine.
        analysis::setDefaultEvalJobs(jobs);
        if (!cacheDir.empty()) {
            sim::DiskCacheConfig disk;
            disk.dir = cacheDir;
            disk.budgetBytes = cacheBudgetMiB * 1024 * 1024;
            disk.chunkRefs = streamChunkRefs;
            sim::TraceRepository::global().setDiskCache(disk);
            // Stream warm/spilled store files instead of
            // materialising prepared traces; results are
            // bit-identical either way.
            analysis::setDefaultStreamReplay(true);
            std::cout << "Trace cache: " << cacheDir << " (budget "
                      << cacheBudgetMiB << " MiB, chunk "
                      << streamChunkRefs << " refs)\n";
        }
        std::filesystem::create_directories(outDir);
        std::cout << "Writing exhibits to " << outDir
                  << "/ (sweep jobs: " << jobs << ") ...\n\n";
        const auto wall_start = std::chrono::steady_clock::now();

        analysis::Campaign campaign(full_size, sweepPointers);
        for (const analysis::Exhibit &ex : analysis::exhibitRegistry())
            if (only.empty() ||
                std::find(only.begin(), only.end(), ex.name) !=
                    only.end())
                emit(outDir, ex.name, ex.render(campaign));

        const double wall_s =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - wall_start)
                .count();
        std::cout << "Done: " << outDir << "/ contains "
                  << (only.empty() ? "every exhibit"
                                   : "the selected exhibits")
                  << " as .txt and .csv (" << wall_s
                  << " s wall clock, " << jobs << " sweep job"
                  << (jobs == 1 ? "" : "s") << ")\n";
        if (repoStats)
            std::cout << "Repo stats: "
                      << sim::TraceRepository::global().stats().summary()
                      << "\n";
    } catch (const std::exception &err) {
        std::cerr << "error: " << err.what() << "\n";
        return 1;
    }
    return 0;
}
