/**
 * @file
 * Stride run-length predictor: the LET trip-count predictor (§3.1.2,
 * tables/iter_predictor.hh) recast as a BranchPredictor so it can slot
 * into the tournament chooser and the predictors= sweep axis. Instead
 * of recording completed loop executions it watches the retired branch
 * stream directly: a "run" is a maximal sequence of consecutive taken
 * outcomes of one PC, and the entry predicts the next run's length as
 * last + stride with two-bit stride confidence — exactly the LET
 * payload, minus the trip counts LET also learns from Exit/Return-
 * terminated executions (docs/PREDICTORS.md).
 */

#ifndef LOOPSPEC_PREDICT_STRIDE_RUN_HH
#define LOOPSPEC_PREDICT_STRIDE_RUN_HH

#include <vector>

#include "predict/branch_predictor.hh"
#include "predict/sat_counter.hh"

namespace loopspec
{

class StrideRunPredictor : public BranchPredictor
{
  public:
    explicit StrideRunPredictor(const PredictorConfig &c)
        : mask((1u << c.tableBits) - 1), table(size_t(1) << c.tableBits)
    {
    }

    bool
    predict(uint32_t pc) const override
    {
        const Entry &e = table[index(pc)];
        if (!e.valid || e.pc != pc || !e.hasLen)
            return true; // unknown loop: assume it keeps iterating
        return predict_detail::runRemaining(predictedTotal(e), e.cur, 1) >
               0;
    }

    unsigned
    predictRun(uint32_t pc, unsigned max_n) const override
    {
        const Entry &e = table[index(pc)];
        if (!e.valid || e.pc != pc || !e.hasLen)
            return max_n; // unknown: aggressive, like STR's Unknown case
        return predict_detail::runRemaining(predictedTotal(e), e.cur,
                                            max_n);
    }

    void
    update(uint32_t pc, bool taken) override
    {
        Entry &e = table[index(pc)];
        if (!e.valid || e.pc != pc) {
            e = Entry();
            e.pc = pc;
            e.valid = true;
        }
        if (taken) {
            ++e.cur;
            return;
        }
        // Not-taken closes the run: train last + stride on its length,
        // mirroring IterCountPredictor::update on iteration counts.
        int64_t len = static_cast<int64_t>(e.cur);
        if (e.hasLen) {
            int64_t stride = len - e.lastLen;
            if (e.hasStride) {
                if (stride == e.stride)
                    e.conf.up();
                else
                    e.conf.down();
            }
            e.stride = stride;
            e.hasStride = true;
        }
        e.lastLen = len;
        e.hasLen = true;
        e.cur = 0;
    }

    void
    reset() override
    {
        table.assign(table.size(), Entry());
    }

    uint64_t
    stateHash() const override
    {
        uint64_t h = predict_detail::fnv1aInit();
        for (const Entry &e : table) {
            predict_detail::fnv1aAdd(h, e.valid);
            predict_detail::fnv1aAdd(h, e.pc);
            predict_detail::fnv1aAdd(h, e.cur);
            predict_detail::fnv1aAdd(h,
                                     static_cast<uint64_t>(e.lastLen));
            predict_detail::fnv1aAdd(h, static_cast<uint64_t>(e.stride));
            predict_detail::fnv1aAdd(h, e.hasLen);
            predict_detail::fnv1aAdd(h, e.hasStride);
            predict_detail::fnv1aAdd(h, e.conf.value());
        }
        return h;
    }

  private:
    struct Entry
    {
        uint32_t pc = 0; //!< full-PC tag (direct-mapped, no aliasing)
        bool valid = false;
        uint32_t cur = 0; //!< taken outcomes in the current run
        int64_t lastLen = 0;
        int64_t stride = 0;
        bool hasLen = false;
        bool hasStride = false;
        SatCounter<2> conf;
    };

    static int64_t
    predictedTotal(const Entry &e)
    {
        if (e.hasStride && e.conf.confident()) {
            int64_t predicted = e.lastLen + e.stride;
            return predicted < 0 ? 0 : predicted;
        }
        return e.lastLen;
    }

    uint32_t
    index(uint32_t pc) const
    {
        return predict_detail::pcIndexBits(pc) & mask;
    }

    uint32_t mask;
    std::vector<Entry> table;
};

} // namespace loopspec

#endif // LOOPSPEC_PREDICT_STRIDE_RUN_HH
