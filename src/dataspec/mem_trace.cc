#include "dataspec/mem_trace.hh"

#include <utility>

#include "util/logging.hh"

namespace loopspec
{

uint64_t
MemAccessTrace::stateHash() const
{
    uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](uint64_t v) { h = (h ^ v) * 0x100000001b3ull; };
    mix(totalInstrs);
    mix(accesses.size());
    for (const MemAccess &a : accesses) {
        mix(a.seq);
        mix(a.addr);
        mix(a.pc);
        mix(a.isStore ? 1u : 0u);
    }
    return h;
}

void
MemTraceRecorder::onInstrBatchSoA(const SoaBatch &b)
{
    LOOPSPEC_ASSERT(b.hasColdPlanes(),
                    "memory sidecar needs the cold planes");
    for (size_t i = 0; i < b.count; ++i) {
        const DynInstr &t = b.templates[b.sidx[i]];
        if (!(t.isLoad || t.isStore))
            continue;
        MemAccess a;
        a.seq = b.seqBase + i;
        a.addr = b.memAddr[i];
        a.pc = b.pc[i];
        a.isStore = t.isStore;
        trace.accesses.push_back(a);
    }
}

MemAccessTrace
MemTraceRecorder::take()
{
    LOOPSPEC_ASSERT(done, "take() before onTraceEnd");
    return std::move(trace);
}

} // namespace loopspec
