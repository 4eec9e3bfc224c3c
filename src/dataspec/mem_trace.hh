/**
 * @file
 * Memory-access sidecar of one functional pass (docs/DATASPEC.md).
 *
 * The ControlTrace deliberately carries no operand values, so a replay
 * pass cannot see addresses — and the conflict profiler needs them. The
 * MemAccessTrace closes that gap: a compact, CLS-independent record of
 * every retired load and store (retire seq, static PC, effective
 * address), captured once on the functional pass by MemTraceRecorder.
 * Conflict profiles at *any* CLS are then a pure function of
 * (LoopEventRecording at that CLS, MemAccessTrace) — see
 * dataspec/conflict_profiler.hh — which keeps sweeps one-functional-pass
 * and makes the artifact cacheable next to ControlTraces in sweepd.
 */

#ifndef LOOPSPEC_DATASPEC_MEM_TRACE_HH
#define LOOPSPEC_DATASPEC_MEM_TRACE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tracegen/dyn_instr.hh"

namespace loopspec
{

/** One retired load or store (24 bytes; appended on the hot path). */
struct MemAccess
{
    uint64_t seq = 0;  //!< retire index of the instruction
    uint64_t addr = 0; //!< effective byte address
    uint32_t pc = 0;   //!< static instruction address
    bool isStore = false;
};

static_assert(sizeof(MemAccess) == 24, "MemAccess must stay 24 bytes");

/** The full memory-access stream of one trace, in retire order. */
struct MemAccessTrace
{
    uint64_t totalInstrs = 0;
    std::vector<MemAccess> accesses;

    /** Heap footprint — the recording cache's accounting hook. */
    size_t
    memoryBytes() const
    {
        return accesses.capacity() * sizeof(MemAccess);
    }

    /** FNV-1a over the access stream; the DiffChecker's cross-path
     *  equivalence token. */
    uint64_t stateHash() const;
};

/**
 * TraceObserver recording the memory-access sidecar. Attach next to the
 * detector on the functional pass (either engine path — the default
 * FullRecords batchNeed makes the producer fill the cold planes), then
 * take() the result after the trace ends.
 */
class MemTraceRecorder : public TraceObserver
{
  public:
    void
    onInstr(const DynInstr &d) override
    {
        if (!(d.isLoad || d.isStore))
            return;
        MemAccess a;
        a.seq = d.seq;
        a.addr = d.memAddr;
        a.pc = d.pc;
        a.isStore = d.isStore;
        trace.accesses.push_back(a);
    }

    /** Reads the load/store flags from the records' templates and
     *  address, pc and seq from the planes, without materializing. */
    void onInstrBatchSoA(const SoaBatch &batch) override;

    void
    onTraceEnd(uint64_t total_instrs) override
    {
        trace.totalInstrs = total_instrs;
        done = true;
    }

    /** Move the finished trace out (valid after onTraceEnd). */
    MemAccessTrace take();

  private:
    MemAccessTrace trace;
    bool done = false;
};

} // namespace loopspec

#endif // LOOPSPEC_DATASPEC_MEM_TRACE_HH
