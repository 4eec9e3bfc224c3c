/**
 * @file
 * Tournament predictor (McFarling 1993 combining predictors, per-loop
 * flavour): a direct-mapped table of two-bit choosers indexed by branch
 * PC arbitrates between two component BranchPredictors — in the
 * configuration this repo cares about, the LET stride run-length path
 * (stride_run.hh) against a conventional direction scheme. The chooser
 * is consulted once per prediction and the chosen component answers
 * predictRun() wholesale, so spawn-point predictions stay all-or-
 * nothing: a chain never mixes two components' extrapolations
 * (docs/PREDICTORS.md).
 */

#ifndef LOOPSPEC_PREDICT_TOURNAMENT_HH
#define LOOPSPEC_PREDICT_TOURNAMENT_HH

#include <utility>
#include <vector>

#include "predict/branch_predictor.hh"
#include "predict/sat_counter.hh"

namespace loopspec
{

class TournamentPredictor : public BranchPredictor
{
  public:
    explicit TournamentPredictor(const PredictorConfig &c)
        : TournamentPredictor(c, makePredictor(c.components.at(0)),
                              makePredictor(c.components.at(1)))
    {
    }

    /** Test seam: inject hand-built components (chooser geometry still
     *  comes from @p c). Counter at 0 favours component A. */
    TournamentPredictor(const PredictorConfig &c,
                        std::unique_ptr<BranchPredictor> component_a,
                        std::unique_ptr<BranchPredictor> component_b)
        : mask((1u << c.tableBits) - 1),
          chooser(size_t(1) << c.tableBits),
          a(std::move(component_a)), b(std::move(component_b))
    {
    }

    bool
    predict(uint32_t pc) const override
    {
        return chosen(pc).predict(pc);
    }

    unsigned
    predictRun(uint32_t pc, unsigned max_n) const override
    {
        // All-or-nothing: one chooser read picks the component, which
        // runs the whole chain. Consulting the chooser per link would
        // splice extrapolations from predictors with different run
        // models.
        return chosen(pc).predictRun(pc, max_n);
    }

    void
    update(uint32_t pc, bool taken) override
    {
        // Train the chooser only when the components disagree on this
        // outcome, then let both components retire the branch.
        bool correct_a = a->predict(pc) == taken;
        bool correct_b = b->predict(pc) == taken;
        if (correct_a != correct_b) {
            SatCounter<2> &ctr = chooser[index(pc)];
            if (correct_b)
                ctr.up();
            else
                ctr.down();
        }
        a->update(pc, taken);
        b->update(pc, taken);
    }

    void
    reset() override
    {
        chooser.assign(chooser.size(), SatCounter<2>());
        a->reset();
        b->reset();
    }

    uint64_t
    stateHash() const override
    {
        uint64_t h = predict_detail::fnv1aInit();
        for (const SatCounter<2> &c : chooser)
            predict_detail::fnv1aAdd(h, c.value());
        predict_detail::fnv1aAdd(h, a->stateHash());
        predict_detail::fnv1aAdd(h, b->stateHash());
        return h;
    }

  private:
    uint32_t
    index(uint32_t pc) const
    {
        return predict_detail::pcIndexBits(pc) & mask;
    }

    const BranchPredictor &
    chosen(uint32_t pc) const
    {
        // MSB set means component B; power-on state favours A, so
        // "tournament:let+<conv>" starts on the stride path like STR.
        return chooser[index(pc)].confident() ? *b : *a;
    }

    uint32_t mask;
    std::vector<SatCounter<2>> chooser;
    std::unique_ptr<BranchPredictor> a;
    std::unique_ptr<BranchPredictor> b;
};

} // namespace loopspec

#endif // LOOPSPEC_PREDICT_TOURNAMENT_HH
