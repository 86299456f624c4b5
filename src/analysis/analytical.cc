#include "analysis/analytical.hh"

#include <cmath>

#include "coherence/events.hh"

namespace dirsim::analysis
{

AnalyticalPrediction
analyticalPredict(const AnalyticalParams &params)
{
    AnalyticalPrediction pred;
    const double fs = params.sharedRefFrac;
    const double w = params.writeFrac;
    const double p = static_cast<double>(params.nProcessors);
    if (fs <= 0.0 || w <= 0.0 || params.nProcessors < 2)
        return pred;

    // Uniform mixing: between consecutive writes to a shared block
    // there are r = (1-w)/w reads, issued by uniformly random
    // processors.  Each of the P-1 remote processors therefore reads
    // the block in that window with probability q.
    const double r = (1.0 - w) / w;
    const double q = 1.0 - std::pow(1.0 - 1.0 / p, r);

    // Remote copies at the write ~ Binomial(P-1, q).
    pred.meanFanout = (p - 1.0) * q;
    pred.fracAtMostOne =
        std::pow(1.0 - q, p - 1.0) +
        (p - 1.0) * q * std::pow(1.0 - q, p - 2.0);

    // Every shared write invalidates unless the writer still holds
    // the block dirty (previous access was its own write: w / P).
    pred.invalEventsPerRef = fs * w * (1.0 - w / p);

    // First-order: every invalidated copy is eventually re-fetched,
    // so coherence misses track invalidations times fanout.
    pred.coherenceMissesPerRef =
        pred.invalEventsPerRef * pred.meanFanout;
    return pred;
}

std::vector<AnalyticalComparison>
analyticalStudy(const std::vector<gen::WorkloadConfig> &cfgs)
{
    const Evaluation eval = evaluateWorkloads(cfgs);
    const std::vector<trace::TraceCharacteristics> chars =
        characterizeWorkloads(cfgs);
    std::vector<AnalyticalComparison> rows;
    for (std::size_t k = 0; k < cfgs.size(); ++k) {
        const gen::WorkloadConfig &cfg = cfgs[k];
        const trace::TraceCharacteristics &ch = chars[k];

        AnalyticalComparison row;
        row.trace = cfg.name;
        row.fitted.nProcessors = cfg.space.nProcesses;
        row.fitted.sharedRefFrac =
            ch.refs == 0 ? 0.0
                         : static_cast<double>(ch.refsToSharedBlocks) /
                               static_cast<double>(ch.refs);
        row.fitted.writeFrac =
            ch.refsToSharedBlocks == 0
                ? 0.0
                : static_cast<double>(ch.writesToSharedBlocks) /
                      static_cast<double>(ch.refsToSharedBlocks);
        row.predicted = analyticalPredict(row.fitted);

        const auto &iv = eval.traces[k].inval;
        const auto &dg = eval.traces[k].dragon;
        const double refs =
            static_cast<double>(iv.events.totalRefs());
        if (refs > 0.0) {
            stats::Histogram fanout;
            fanout.merge(iv.whClnFanout);
            fanout.merge(iv.wmClnFanout);
            row.simInvalEventsPerRef =
                static_cast<double>(fanout.totalSamples()) / refs;
            row.simMeanFanout = fanout.mean();
            row.simFracAtMostOne = fanout.fracAtMost(1);
            // Coherence misses = invalidation-model misses minus the
            // update protocol's native misses (Section 5's method).
            const double inval_misses = static_cast<double>(
                iv.events.readMisses() + iv.events.writeMisses());
            const double native_misses = static_cast<double>(
                dg.events.readMisses() + dg.events.writeMisses());
            row.simCoherenceMissesPerRef =
                (inval_misses - native_misses) / refs;
        }
        rows.push_back(row);
    }
    return rows;
}

stats::TextTable
renderAnalytical(const std::vector<AnalyticalComparison> &rows)
{
    using stats::TextTable;
    TextTable table(
        "Extension H: uniform-sharing analytical model vs simulation "
        "(per-reference rates; the Section 4 methodology argument)",
        {"Trace", "fs %", "w(shared) %", "inval/ref pred", "sim",
         "coh-miss/ref pred", "sim", "<=1 pred %", "sim %"});
    for (const AnalyticalComparison &row : rows) {
        table.addRow({row.trace,
                      TextTable::pct(row.fitted.sharedRefFrac, 1),
                      TextTable::pct(row.fitted.writeFrac, 1),
                      TextTable::num(row.predicted.invalEventsPerRef),
                      TextTable::num(row.simInvalEventsPerRef),
                      TextTable::num(
                          row.predicted.coherenceMissesPerRef),
                      TextTable::num(row.simCoherenceMissesPerRef),
                      TextTable::pct(row.predicted.fracAtMostOne, 1),
                      TextTable::pct(row.simFracAtMostOne, 1)});
    }
    return table;
}

} // namespace dirsim::analysis
