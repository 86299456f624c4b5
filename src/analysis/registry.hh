/**
 * @file
 * The reproduction campaign as data: one ordered list of every
 * exhibit — the paper's tables, figures and analyses, then the
 * extension studies — each a file name and a render function over a
 * shared Campaign.  reproduce_paper walks the list, so adding an
 * exhibit means adding one entry here.
 */

#ifndef DIRSIM_ANALYSIS_REGISTRY_HH
#define DIRSIM_ANALYSIS_REGISTRY_HH

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "analysis/evaluation.hh"
#include "gen/workloads.hh"
#include "stats/table.hh"

namespace dirsim::analysis
{

/**
 * What one reproduction run evaluates: the standard workloads at one
 * size and the Section 6 DiriNB pointer counts.  The two evaluations
 * many exhibits share are computed on first use and kept, so a run
 * that renders only constant tables builds no trace.  Worker count
 * and streaming come from setDefaultEvalJobs() and
 * setDefaultStreamReplay(), as for every other evaluation.
 */
class Campaign
{
  public:
    explicit Campaign(bool fullSize = false,
                      std::vector<unsigned> sweepPointers = {1, 2, 3,
                                                             4});

    bool fullSize() const { return _fullSize; }
    const std::vector<gen::WorkloadConfig> &
    workloads() const
    {
        return _workloads;
    }
    const std::vector<unsigned> &
    sweepPointers() const
    {
        return _sweepPointers;
    }

    /** The three standard engines over workloads(). */
    const Evaluation &standard();
    /** The same with spin-lock test reads dropped (Section 5.2). */
    const Evaluation &noLockTests();

  private:
    bool _fullSize;
    std::vector<gen::WorkloadConfig> _workloads;
    std::vector<unsigned> _sweepPointers;
    std::optional<Evaluation> _standard;
    std::optional<Evaluation> _noLockTests;
};

/** One exhibit, written as <name>.txt and <name>.csv. */
struct Exhibit
{
    std::string name;
    std::function<stats::TextTable(Campaign &)> render;
};

/** Every exhibit, in output order; names are unique. */
const std::vector<Exhibit> &exhibitRegistry();

} // namespace dirsim::analysis

#endif // DIRSIM_ANALYSIS_REGISTRY_HH
