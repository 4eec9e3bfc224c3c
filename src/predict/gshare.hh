/**
 * @file
 * Gshare branch predictor (McFarling 1993): a global branch-history
 * register XORed with the PC indexes one shared table of two-bit
 * counters. Captures cross-branch correlation — including "the loop
 * branch was taken N times, the N+1st is the exit" patterns for loops
 * with constant trip counts shorter than the history width — which is
 * exactly the regime where it competes with the LET stride predictor
 * (docs/PREDICTORS.md).
 */

#ifndef LOOPSPEC_PREDICT_GSHARE_HH
#define LOOPSPEC_PREDICT_GSHARE_HH

#include <vector>

#include "predict/branch_predictor.hh"
#include "predict/sat_counter.hh"

namespace loopspec
{

class GsharePredictor : public BranchPredictor
{
  public:
    explicit GsharePredictor(const PredictorConfig &c)
        : tableMask((1u << c.tableBits) - 1),
          histMask(c.historyBits >= 32
                       ? ~0u
                       : (1u << c.historyBits) - 1),
          table(size_t(1) << c.tableBits)
    {
    }

    bool
    predict(uint32_t pc) const override
    {
        return table[index(pc, history)].confident();
    }

    unsigned
    predictRun(uint32_t pc, unsigned max_n) const override
    {
        // Chain with a speculative history copy: each predicted-taken
        // outcome is shifted in before the next lookup, as a real
        // front-end would speculatively update its GHR. The chain stops
        // at the first predicted not-taken outcome (the predicted loop
        // exit).
        uint32_t h = history;
        unsigned n = 0;
        while (n < max_n && table[index(pc, h)].confident()) {
            h = push(h, true);
            ++n;
        }
        return n;
    }

    void
    update(uint32_t pc, bool taken) override
    {
        SatCounter<2> &ctr = table[index(pc, history)];
        if (taken)
            ctr.up();
        else
            ctr.down();
        history = push(history, taken);
    }

    void
    reset() override
    {
        table.assign(table.size(), SatCounter<2>());
        history = 0;
    }

    uint64_t
    stateHash() const override
    {
        uint64_t h = predict_detail::fnv1aInit();
        predict_detail::fnv1aAdd(h, history);
        for (const SatCounter<2> &c : table)
            predict_detail::fnv1aAdd(h, c.value());
        return h;
    }

  private:
    uint32_t
    index(uint32_t pc, uint32_t hist) const
    {
        return (predict_detail::pcIndexBits(pc) ^ hist) & tableMask;
    }

    uint32_t
    push(uint32_t hist, bool taken) const
    {
        return ((hist << 1) | (taken ? 1u : 0u)) & histMask;
    }

    uint32_t tableMask;
    uint32_t histMask;
    uint32_t history = 0;
    std::vector<SatCounter<2>> table;
};

} // namespace loopspec

#endif // LOOPSPEC_PREDICT_GSHARE_HH
