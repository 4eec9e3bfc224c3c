/**
 * @file
 * Two-level local-history branch predictor (Yeh & Patt 1991, the PAg
 * organisation): a first-level table of per-branch history registers
 * (indexed by PC) selects a counter in a shared second-level pattern
 * table (indexed by the history value). A loop branch with a constant
 * trip count shorter than the history width becomes perfectly
 * predictable — the local analogue of what the LET's stride predictor
 * achieves with two table entries' worth of state (docs/PREDICTORS.md).
 */

#ifndef LOOPSPEC_PREDICT_LOCAL_HH
#define LOOPSPEC_PREDICT_LOCAL_HH

#include <vector>

#include "predict/branch_predictor.hh"
#include "predict/sat_counter.hh"

namespace loopspec
{

class LocalHistoryPredictor : public BranchPredictor
{
  public:
    explicit LocalHistoryPredictor(const PredictorConfig &c)
        : l1Mask((1u << c.l1Bits) - 1),
          histMask(c.historyBits >= 32
                       ? ~0u
                       : (1u << c.historyBits) - 1),
          histories(size_t(1) << c.l1Bits),
          pattern(size_t(1) << c.historyBits)
    {
    }

    bool
    predict(uint32_t pc) const override
    {
        return pattern[histories[l1Index(pc)]].confident();
    }

    unsigned
    predictRun(uint32_t pc, unsigned max_n) const override
    {
        // Chain through a speculative copy of this branch's local
        // history; stop at the first predicted not-taken outcome.
        uint32_t h = histories[l1Index(pc)];
        unsigned n = 0;
        while (n < max_n && pattern[h].confident()) {
            h = push(h, true);
            ++n;
        }
        return n;
    }

    void
    update(uint32_t pc, bool taken) override
    {
        uint32_t &h = histories[l1Index(pc)];
        SatCounter<2> &ctr = pattern[h];
        if (taken)
            ctr.up();
        else
            ctr.down();
        h = push(h, taken);
    }

    void
    reset() override
    {
        histories.assign(histories.size(), 0);
        pattern.assign(pattern.size(), SatCounter<2>());
    }

    uint64_t
    stateHash() const override
    {
        uint64_t h = predict_detail::fnv1aInit();
        for (uint32_t hist : histories)
            predict_detail::fnv1aAdd(h, hist);
        for (const SatCounter<2> &c : pattern)
            predict_detail::fnv1aAdd(h, c.value());
        return h;
    }

  private:
    uint32_t
    l1Index(uint32_t pc) const
    {
        return predict_detail::pcIndexBits(pc) & l1Mask;
    }

    uint32_t
    push(uint32_t hist, bool taken) const
    {
        return ((hist << 1) | (taken ? 1u : 0u)) & histMask;
    }

    uint32_t l1Mask;
    uint32_t histMask;
    std::vector<uint32_t> histories;
    std::vector<SatCounter<2>> pattern;
};

} // namespace loopspec

#endif // LOOPSPEC_PREDICT_LOCAL_HH
