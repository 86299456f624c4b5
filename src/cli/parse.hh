/**
 * @file
 * Strict command-line parsing shared by the exhibit binaries.
 *
 * std::atoi-style parsing silently maps garbage and negative input to
 * values that pass later range checks ("-3abc" → huge unsigned, "x" →
 * 0); every binary taking a numeric argument uses these helpers
 * instead, so bad input always dies with a message naming the flag.
 * Header-only: the examples and benches link different library sets,
 * and a parse helper is not worth a library of its own.
 */

#ifndef DIRSIM_CLI_PARSE_HH
#define DIRSIM_CLI_PARSE_HH

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

namespace dirsim::cli
{

/**
 * Parse @p text as a non-negative decimal integer.
 *
 * Accepts only an all-digit string (no sign, no trailing junk, no
 * empty string); anything else prints an error naming @p what and
 * exits with status 2, the convention the benches already use for
 * bad flags.
 */
inline unsigned
parseUnsigned(const char *text, const std::string &what)
{
    const std::string s = text == nullptr ? "" : text;
    bool ok = !s.empty();
    unsigned long value = 0;
    for (const char c : s) {
        if (c < '0' || c > '9') {
            ok = false;
            break;
        }
        value = value * 10 + static_cast<unsigned long>(c - '0');
        if (value > 0xffffffffUL) {
            ok = false;
            break;
        }
    }
    if (!ok) {
        std::cerr << "error: invalid " << what << " value '" << s
                  << "' (expected a non-negative integer)\n";
        std::exit(2);
    }
    return static_cast<unsigned>(value);
}

/**
 * parseUnsigned(), then require the value to lie in [@p lo, @p hi]
 * (inclusive); out-of-range input exits with status 2 and a message
 * stating the accepted range.
 */
inline unsigned
parseUnsignedInRange(const char *text, const std::string &what,
                     unsigned lo, unsigned hi)
{
    const unsigned value = parseUnsigned(text, what);
    if (value < lo || value > hi) {
        std::cerr << "error: " << what << " must be in [" << lo << ", "
                  << hi << "], got " << value << "\n";
        std::exit(2);
    }
    return value;
}

/**
 * Parse @p text as a finite decimal floating-point number.
 *
 * Rejects the empty string, trailing characters ("1.5x"), bare signs,
 * non-finite spellings ("nan", "inf") and magnitudes strtod cannot
 * represent; any of these prints an error naming @p what and exits
 * with status 2, matching parseUnsigned.
 */
inline double
parseDouble(const char *text, const std::string &what)
{
    const std::string s = text == nullptr ? "" : text;
    char *end = nullptr;
    errno = 0;
    const double value = std::strtod(s.c_str(), &end);
    const bool consumed =
        !s.empty() && end == s.c_str() + s.size();
    if (!consumed || errno == ERANGE || !std::isfinite(value)) {
        std::cerr << "error: invalid " << what << " value '" << s
                  << "' (expected a finite decimal number)\n";
        std::exit(2);
    }
    return value;
}

/**
 * parseDouble(), then require the value to lie in [@p lo, @p hi]
 * (inclusive); out-of-range input exits with status 2 and a message
 * stating the accepted range.
 */
inline double
parseDoubleInRange(const char *text, const std::string &what,
                   double lo, double hi)
{
    const double value = parseDouble(text, what);
    if (value < lo || value > hi) {
        std::cerr << "error: " << what << " must be in [" << lo << ", "
                  << hi << "], got " << value << "\n";
        std::exit(2);
    }
    return value;
}

/**
 * Parse @p text as a comma-separated list of names, each of which
 * must appear in @p allowed.
 *
 * An empty list, an empty element ("a,,b") or an unknown name exits
 * with status 2 and a message naming @p what plus the accepted
 * vocabulary — a misspelled scheme must be a hard error, not a
 * silently empty sweep.  Duplicates are allowed and preserved; order
 * is the caller's.
 */
inline std::vector<std::string>
parseNameList(const char *text, const std::string &what,
              const std::vector<std::string> &allowed)
{
    const auto die = [&](const std::string &why) {
        std::cerr << "error: invalid " << what << " value: " << why
                  << " (valid:";
        for (const std::string &name : allowed)
            std::cerr << " " << name;
        std::cerr << ")\n";
        std::exit(2);
    };
    const std::string s = text == nullptr ? "" : text;
    if (s.empty())
        die("empty list");
    std::vector<std::string> names;
    std::size_t begin = 0;
    while (begin <= s.size()) {
        const std::size_t comma = s.find(',', begin);
        const std::size_t end =
            comma == std::string::npos ? s.size() : comma;
        const std::string name = s.substr(begin, end - begin);
        if (name.empty())
            die("empty element in '" + s + "'");
        if (std::find(allowed.begin(), allowed.end(), name) ==
            allowed.end())
            die("unknown name '" + name + "'");
        names.push_back(name);
        if (comma == std::string::npos)
            break;
        begin = comma + 1;
    }
    return names;
}

/**
 * Collect the arguments of a command line that takes positional
 * arguments only, checking each in order before the caller does any
 * work: `--help` or `-h` prints @p usage on stdout and exits 0; any
 * other argument starting with '-', or one beyond @p maxPositional,
 * prints an error plus @p usage on stderr and exits 2.
 *
 * @return The positional arguments, in order.
 */
inline std::vector<std::string>
positionalArgs(int argc, char **argv, const char *usage,
               std::size_t maxPositional)
{
    std::vector<std::string> args;
    for (int a = 1; a < argc; ++a) {
        const std::string arg = argv[a];
        if (arg == "--help" || arg == "-h") {
            std::cout << usage;
            std::exit(0);
        }
        std::string why;
        if (!arg.empty() && arg[0] == '-')
            why = "unknown option";
        else if (args.size() == maxPositional)
            why = "unexpected argument";
        if (!why.empty()) {
            std::cerr << "error: " << why << " '" << arg << "'\n"
                      << usage;
            std::exit(2);
        }
        args.push_back(arg);
    }
    return args;
}

} // namespace dirsim::cli

#endif // DIRSIM_CLI_PARSE_HH
