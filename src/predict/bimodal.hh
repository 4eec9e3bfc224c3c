/**
 * @file
 * Bimodal branch predictor (Smith 1981; surveyed for multithreaded
 * processors by Durbhakula 2019): a direct-mapped table of two-bit
 * saturating counters indexed by PC. No history — the baseline every
 * other scheme is measured against, and the scheme loop-detection
 * beats most clearly on loops with data-dependent trip counts
 * (docs/PREDICTORS.md).
 */

#ifndef LOOPSPEC_PREDICT_BIMODAL_HH
#define LOOPSPEC_PREDICT_BIMODAL_HH

#include <vector>

#include "predict/branch_predictor.hh"
#include "predict/sat_counter.hh"

namespace loopspec
{

class BimodalPredictor : public BranchPredictor
{
  public:
    explicit BimodalPredictor(const PredictorConfig &c)
        : mask((1u << c.tableBits) - 1), table(size_t(1) << c.tableBits)
    {
    }

    bool
    predict(uint32_t pc) const override
    {
        return table[index(pc)].confident();
    }

    // predictRun: the base-class all-or-nothing answer is exact here —
    // with no history, every chained lookup of the same PC reads the
    // same counter.

    void
    update(uint32_t pc, bool taken) override
    {
        SatCounter<2> &ctr = table[index(pc)];
        if (taken)
            ctr.up();
        else
            ctr.down();
    }

    void
    reset() override
    {
        table.assign(table.size(), SatCounter<2>());
    }

    uint64_t
    stateHash() const override
    {
        uint64_t h = predict_detail::fnv1aInit();
        for (const SatCounter<2> &c : table)
            predict_detail::fnv1aAdd(h, c.value());
        return h;
    }

  private:
    uint32_t
    index(uint32_t pc) const
    {
        return predict_detail::pcIndexBits(pc) & mask;
    }

    uint32_t mask;
    std::vector<SatCounter<2>> table;
};

} // namespace loopspec

#endif // LOOPSPEC_PREDICT_BIMODAL_HH
