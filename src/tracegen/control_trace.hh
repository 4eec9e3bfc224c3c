/**
 * @file
 * Compact replayable control-event trace. The CLS update algorithm (paper
 * §2.2) reads nothing but the control transfers of the retired stream —
 * PC, target, kind, taken — plus the retire index for positions. Recording
 * exactly those events once per (workload, scale) lets every *derived*
 * configuration (a different CLS size, a truncated prefix) re-run the
 * LoopDetector by replay, without re-executing the functional simulator.
 *
 * Replay synthesises the non-control gap instructions between recorded
 * events (correct seq, CtrlKind::None) so observers see a stream with the
 * same length, positions and control behaviour as the original run;
 * listeners that only count instructions or consume loop events (LoopStats,
 * IdealTpcComputer, the LET/LIT meters) produce bit-identical artifacts.
 * Listeners that read operand values (DataSpecProfiler) must stay on the
 * functional pass.
 */

#ifndef LOOPSPEC_TRACEGEN_CONTROL_TRACE_HH
#define LOOPSPEC_TRACEGEN_CONTROL_TRACE_HH

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "tracegen/dyn_instr.hh"

namespace loopspec
{

/** One retired control transfer. */
struct CtrlTransfer
{
    uint64_t seq;    //!< retire index
    uint32_t pc;
    uint32_t target; //!< resolved target (valid when taken; also for
                     //!< not-taken branches, whose direction matters)
    CtrlKind kind;   //!< Branch / Jump / Call / Ret (never None)
    bool taken;
};

/** The control-transfer stream of one trace. */
struct ControlTrace
{
    uint64_t totalInstrs = 0;
    std::vector<CtrlTransfer> transfers;

    /** Heap footprint — the recording cache's accounting hook. */
    size_t
    memoryBytes() const
    {
        return transfers.capacity() * sizeof(CtrlTransfer);
    }

    /** Serialise to a stream (simple binary format, versioned). */
    void save(std::ostream &os) const;

    /** Load a trace saved by save(); fatal() on format errors. */
    static ControlTrace load(std::istream &is);
};

/**
 * TraceObserver recording the control transfers of a run. Attach to a
 * TraceEngine alongside the detector, run the trace, then take() the
 * result.
 */
class ControlTraceRecorder : public TraceObserver
{
  public:
    void onInstr(const DynInstr &instr) override;
    /** Hot-plane consumer: a transfer is exactly the four hot fields
     *  plus seq, so the recorder never needs full records. */
    void onInstrBatchSoA(const SoaBatch &batch) override;
    BatchNeed batchNeed() const override { return BatchNeed::HotPlanes; }
    void onTraceEnd(uint64_t total_instrs) override;

    /** Move the finished trace out (valid after onTraceEnd). */
    ControlTrace take();

  private:
    ControlTrace trace;
    bool done = false;
};

/**
 * Incremental core of control-trace replay: feed() recorded transfers one
 * at a time and the synthesizer reconstructs the full retired stream —
 * gap instructions (CtrlKind::None, correct seq) between them — and
 * delivers it to the observer as hot-plane SoaBatches. Gap instructions
 * are all-zero plane entries with implicit seq, so synthesizing them is a
 * pure position advance. A replay carries no operand values: the
 * observer must report BatchNeed::HotPlanes (asserted). This is what lets
 * the on-disk streaming reader drive a replay without ever holding the
 * transfer vector in memory; replayControlTrace() is a thin loop over
 * it, so both paths are bit-identical by construction (same batch
 * boundaries, same planes).
 */
class ControlReplaySynthesizer
{
  public:
    /** Replays the first min(total_instrs, max_instrs) instructions
     *  (max_instrs 0 = no truncation) in @p batch_instrs batches. */
    ControlReplaySynthesizer(TraceObserver &observer,
                             uint64_t total_instrs,
                             uint64_t max_instrs = 0,
                             size_t batch_instrs = 4096);

    /**
     * Feed the next recorded transfer. Transfers must arrive in the
     * recorded order; entries at or past the replay window are ignored.
     * Returns false once no future transfer can be consumed — the
     * caller may stop decoding and call finish().
     */
    bool feed(const CtrlTransfer &t);

    /** Synthesize the trailing gap, flush, deliver onTraceEnd. Returns
     *  the instruction count replayed. Call exactly once. */
    uint64_t finish();

    /** Instructions synthesized so far (next seq to produce). */
    uint64_t position() const { return seq; }

    /** Replay window length (totalInstrs clamped by max_instrs). */
    uint64_t windowEnd() const { return end; }

    /** Bytes of batch buffers (hot planes + control index) a
     *  synthesizer with @p batch_instrs-record batches allocates. */
    static size_t
    batchBytes(size_t batch_instrs)
    {
        return batch_instrs *
               (SoaBatch::kHotBytesPerInstr + sizeof(uint32_t));
    }

  private:
    void flush();

    /** Synthesize gap instructions until seq reaches @p upto. */
    void synthGap(uint64_t upto);

    TraceObserver &observer;
    std::vector<uint32_t> ctrl;
    std::vector<uint32_t> pcP, targetP;
    std::vector<uint8_t> kindP, takenP;
    uint64_t batchSeqBase = 0; //!< seq of plane position 0
    size_t cap = 0;   //!< batch capacity (records per flush)
    uint64_t end;     //!< replay window length
    uint64_t seq = 0; //!< next seq to synthesize
    size_t fill = 0;  //!< occupied batch slots
    bool stalled = false;
    bool finished = false;
};

/**
 * Replay a recorded trace into @p observer (typically a LoopDetector with
 * a fresh listener set; a HotPlanes observer), delivering synthesized
 * batches. @p max_instrs
 * truncates the replay (0 = full length), mirroring EngineConfig::
 * maxInstrs: observers see exactly the first max_instrs instructions and
 * an onTraceEnd at that position. Returns the instruction count replayed.
 */
uint64_t replayControlTrace(const ControlTrace &trace,
                            TraceObserver &observer,
                            uint64_t max_instrs = 0,
                            size_t batch_instrs = 4096);

} // namespace loopspec

#endif // LOOPSPEC_TRACEGEN_CONTROL_TRACE_HH
