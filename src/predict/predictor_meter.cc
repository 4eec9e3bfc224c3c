#include "predict/predictor_meter.hh"

namespace loopspec
{

PredictorMeter::PredictorMeter(
    const std::vector<PredictorConfig> &configs)
{
    preds.reserve(configs.size());
    for (const PredictorConfig &c : configs)
        preds.push_back({c, makePredictor(c), 0, 0});
}

void
PredictorMeter::onBranch(uint32_t pc, bool taken)
{
    for (Slot &s : preds) {
        ++s.lookups;
        if (s.pred->predict(pc) == taken)
            ++s.hits;
        s.pred->update(pc, taken);
    }
}

void
PredictorMeter::onInstr(const DynInstr &d)
{
    if (d.kind == CtrlKind::Branch)
        onBranch(d.pc, d.taken);
}

void
PredictorMeter::onInstrBatchSoA(const SoaBatch &b)
{
    // The producer already knows where the transfers are; visit only
    // those slots and filter for conditional branches.
    for (size_t k = 0; k < b.numCtrl; ++k) {
        const uint32_t i = b.ctrl[k];
        if (static_cast<CtrlKind>(b.kind[i]) == CtrlKind::Branch)
            onBranch(b.pc[i], b.taken[i] != 0);
    }
}

std::vector<PredictorMeterResult>
PredictorMeter::results() const
{
    std::vector<PredictorMeterResult> out;
    out.reserve(preds.size());
    for (const Slot &s : preds) {
        PredictorMeterResult r;
        r.config = s.config;
        r.lookups = s.lookups;
        r.hits = s.hits;
        r.stateHash = s.pred->stateHash();
        out.push_back(r);
    }
    return out;
}

} // namespace loopspec
