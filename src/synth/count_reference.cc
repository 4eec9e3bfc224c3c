#include "synth/count_reference.hh"

namespace loopspec
{
namespace synth
{

CountingReference::CountingReference(size_t cls_entries)
    : det({cls_entries})
{
    det.addListener(&stats);
    det.addListener(&idealModel);
}

void
CountingReference::addListener(LoopListener *listener)
{
    det.addListener(listener);
}

void
CountingReference::onInstr(const DynInstr &d)
{
    // Credited before the detector dispatches d, so a closing branch
    // counts in the iteration it terminates.
    stats.countInstrs(1);
    idealModel.countInstrs(1);
    det.onInstr(d);
}

void
CountingReference::onTraceEnd(uint64_t total_instrs)
{
    det.onTraceEnd(total_instrs);
}

} // namespace synth
} // namespace loopspec
