/**
 * @file
 * Dynamic loop detection (paper §2.2): drives the CurrentLoopStack from
 * the retired instruction stream and emits loop execution/iteration events
 * to registered LoopListeners.
 */

#ifndef LOOPSPEC_LOOP_LOOP_DETECTOR_HH
#define LOOPSPEC_LOOP_LOOP_DETECTOR_HH

#include <cstdint>
#include <vector>

#include "loop/cls.hh"
#include "loop/loop_event.hh"
#include "tracegen/dyn_instr.hh"

namespace loopspec
{

/** LoopDetector configuration. */
struct DetectorConfig
{
    /** CLS entries; the paper uses 16 ("enough for the SPEC95"). */
    size_t clsEntries = 16;
};

/**
 * Implements the full CLS update algorithm:
 *
 *  - a taken backward branch/jump to T not in the CLS pushes (T, PC);
 *    on a full CLS the deepest entry is dropped first;
 *  - a taken backward branch/jump to T in the CLS at entry i closes an
 *    iteration: entries above i pop (their executions end), B is raised
 *    to PC if higher, and a new iteration of T begins;
 *  - a not-taken backward branch to T in the CLS with B <= PC terminates
 *    both the iteration and the execution of T (entries above pop too);
 *  - a not-taken backward branch to T not in the CLS is a completed
 *    single-iteration execution;
 *  - any taken branch or jump (never a call) whose PC lies inside a CLS
 *    entry's body [T,B] and whose target lies outside it removes that
 *    entry (loop exit) — including middle entries for overlapped loops;
 *  - a return whose PC lies inside an entry's body removes that entry;
 *  - at trace end, remaining entries are flushed with reason TraceEnd.
 *
 * The detector is a TraceObserver: attach it to a TraceEngine and attach
 * LoopListeners to it.
 */
class LoopDetector : public TraceObserver
{
  public:
    explicit LoopDetector(DetectorConfig config = {});

    /** Attach a listener; not owned; order of attach = order of calls. */
    void addListener(LoopListener *listener);

    // TraceObserver interface. The batch path forwards instructions to
    // listeners as spans (LoopListener::onInstrSpan) that never straddle
    // a loop event, so listeners observe the exact per-instruction order
    // of the scalar path at a fraction of the virtual-dispatch cost.
    void onInstr(const DynInstr &instr) override;
    /** The one batch walk: hops along the control index over the hot
     *  planes with the next control record (and the LET/LIT-style
     *  listeners' table lines) prefetched. Span listeners that read
     *  records get spans of a per-batch materialized copy; every other
     *  span listener gets (nullptr, count). */
    void onInstrBatchSoA(const SoaBatch &batch) override;
    /** HotPlanes unless a listener reads span records, so engines skip
     *  the cold planes. */
    BatchNeed batchNeed() const override;
    void onTraceEnd(uint64_t total_instrs) override;

    /** Expose the CLS for tests and inspection tools. */
    const CurrentLoopStack &cls() const { return stack; }

    /** Total executions detected (pushes), not counting single-iteration
     *  executions. */
    uint64_t executionsDetected() const { return nextExecId - 1; }

  private:
    void emitExecStart(const ExecStartEvent &ev);
    void emitIterStart(const IterEvent &ev);
    void emitIterEnd(const IterEvent &ev);
    void emitExecEnd(const ExecEndEvent &ev);
    void emitSingleIter(const SingleIterExecEvent &ev);

    /** End the execution at CLS index i with @p reason (does not touch
     *  other entries). */
    void endExecutionAt(size_t i, uint64_t pos, ExecEndReason reason);

    /** Pop all entries strictly above index i, innermost first. */
    void popAbove(size_t i, uint64_t pos, ExecEndReason reason);

    void handleTakenTransfer(const DynInstr &d);
    void handleNotTakenBackward(const DynInstr &d);
    void handleReturn(const DynInstr &d);

    /** CLS update for one instruction (shared by both observer paths);
     *  the caller has already forwarded @p d to the listeners. */
    void dispatch(const DynInstr &d);

    /** Forward the finished span of @p count instructions to every
     *  span listener; @p records (null when no listener reads records)
     *  holds the span's materialized records. */
    void flushSpan(const DynInstr *records, size_t count);

    CurrentLoopStack stack;
    DetectorConfig cfg;
    std::vector<LoopListener *> listeners;
    /** A listener with consumesInstrs(): the only ones that receive
     *  onInstr/onInstrSpan. */
    struct InstrListener
    {
        LoopListener *listener;
        bool readsRecords; //!< readsSpanRecords(), cached
    };
    std::vector<InstrListener> instrListeners;
    /** Subset of listeners with wantsPrefetchHints(): warmed right
     *  before a CLS-changing transfer dispatches. */
    std::vector<LoopListener *> prefetchListeners;
    /** True when some instruction listener dereferences span records —
     *  batches then arrive with cold planes and are materialized into
     *  spanRecords. */
    bool spanRecordsNeeded = false;
    std::vector<DynInstr> spanRecords;
    uint64_t nextExecId = 1;
    bool flushed = false;
};

} // namespace loopspec

#endif // LOOPSPEC_LOOP_LOOP_DETECTOR_HH
