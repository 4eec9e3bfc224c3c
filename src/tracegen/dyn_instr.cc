#include "tracegen/dyn_instr.hh"

#include "util/logging.hh"

namespace loopspec
{

void
SoaBatch::materializeAll(DynInstr *out) const
{
    LOOPSPEC_ASSERT(hasColdPlanes(),
                    "materializing a hot-only SoA batch");
    for (size_t i = 0; i < count; ++i)
        out[i] = materialize(i);
}

void
TraceObserver::onInstrBatchSoA(const SoaBatch &batch)
{
    LOOPSPEC_ASSERT(batch.hasColdPlanes(),
                    "hot-only SoA delivery reached an observer that "
                    "never declared BatchNeed::HotPlanes");
    for (size_t i = 0; i < batch.count; ++i)
        onInstr(batch.materialize(i));
}

} // namespace loopspec
