#include "tracegen/dyn_instr.hh"

#include "util/logging.hh"

namespace loopspec
{

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
