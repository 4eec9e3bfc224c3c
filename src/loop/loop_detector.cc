#include "loop/loop_detector.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/prefetch.hh"

namespace loopspec
{

const char *
execEndReasonName(ExecEndReason reason)
{
    switch (reason) {
      case ExecEndReason::Close: return "close";
      case ExecEndReason::Exit: return "exit";
      case ExecEndReason::Return: return "return";
      case ExecEndReason::OuterClose: return "outer-close";
      case ExecEndReason::OuterEnd: return "outer-end";
      case ExecEndReason::Overflow: return "overflow";
      case ExecEndReason::Flush: return "flush";
      case ExecEndReason::TraceEnd: return "trace-end";
      default: panic("bad ExecEndReason");
    }
}

LoopDetector::LoopDetector(DetectorConfig config)
    : stack(config.clsEntries), cfg(config)
{
}

void
LoopDetector::addListener(LoopListener *listener)
{
    LOOPSPEC_ASSERT(listener != nullptr);
    listeners.push_back(listener);
    if (listener->wantsPrefetchHints())
        prefetchListeners.push_back(listener);
}

void
LoopDetector::setInstrConsumer(InstrConsumer *instr_consumer)
{
    consumer = instr_consumer;
}

void
LoopDetector::emitExecStart(const ExecStartEvent &ev)
{
    for (auto *l : listeners)
        l->onExecStart(ev);
}

void
LoopDetector::emitIterStart(const IterEvent &ev)
{
    for (auto *l : listeners)
        l->onIterStart(ev);
}

void
LoopDetector::emitIterEnd(const IterEvent &ev)
{
    for (auto *l : listeners)
        l->onIterEnd(ev);
}

void
LoopDetector::emitExecEnd(const ExecEndEvent &ev)
{
    for (auto *l : listeners)
        l->onExecEnd(ev);
}

void
LoopDetector::emitSingleIter(const SingleIterExecEvent &ev)
{
    for (auto *l : listeners)
        l->onSingleIterExec(ev);
}

void
LoopDetector::endExecutionAt(size_t i, uint64_t pos, ExecEndReason reason)
{
    const ClsEntry &e = stack.at(i);
    // The current (possibly partial) iteration is the execution's last
    // iteration (§2.1: "The last iteration finishes when its loop
    // execution also finishes"). Overflow is not a termination: tracking
    // is lost while the loop keeps running, so no IterEnd is emitted.
    if (reason != ExecEndReason::Overflow) {
        emitIterEnd({pos, e.execId, e.loop, e.iterIndex,
                     static_cast<uint32_t>(i + 1)});
    }
    emitExecEnd({pos, e.execId, e.loop, e.iterIndex, reason});
}

void
LoopDetector::popAbove(size_t i, uint64_t pos, ExecEndReason reason)
{
    while (stack.size() > i + 1) {
        endExecutionAt(stack.size() - 1, pos, reason);
        stack.pop();
    }
}

void
LoopDetector::handleTakenTransfer(const DynInstr &d)
{
    // Exit rule (§2.2): any taken branch or jump whose address lies inside
    // a CLS loop body and whose target lies outside it terminates that
    // loop. Applies to forward and backward transfers alike, to middle
    // entries too (overlapped loops); never to calls (handled by caller).
    for (size_t j = stack.size(); j-- > 0;) {
        const ClsEntry &e = stack.at(j);
        if (e.bodyContains(d.pc) && !e.bodyContains(d.target)) {
            endExecutionAt(j, d.seq, ExecEndReason::Exit);
            stack.removeAt(j);
        }
    }

    if (d.target > d.pc)
        return; // forward transfer: exit rule was everything

    // Backward transfer to T: either an iteration close of a live loop or
    // the detection of a new one.
    const uint32_t t = d.target;
    int idx = stack.find(t);
    if (idx >= 0) {
        // Iteration close. Everything nested above terminates (this is
        // the recursion/setjmp situation of §2.2 when idx is not the
        // top).
        popAbove(static_cast<size_t>(idx), d.seq,
                 ExecEndReason::OuterClose);
        ClsEntry &e = stack.at(static_cast<size_t>(idx));
        uint32_t depth = static_cast<uint32_t>(idx + 1);
        emitIterEnd({d.seq, e.execId, e.loop, e.iterIndex, depth});
        if (d.pc > e.branchAddr)
            e.branchAddr = d.pc;
        ++e.iterIndex;
        emitIterStart({d.seq, e.execId, e.loop, e.iterIndex, depth});
        return;
    }

    // New loop execution: push (T, PC). Iteration 1 just ended; iteration
    // 2 begins. On overflow the deepest entry is lost (§2.2).
    if (stack.full()) {
        const ClsEntry lost = stack.at(0);
        emitExecEnd({d.seq, lost.execId, lost.loop, lost.iterIndex,
                     ExecEndReason::Overflow});
        stack.dropDeepest();
    }
    ClsEntry e;
    e.loop = t;
    e.branchAddr = d.pc;
    e.execId = nextExecId++;
    e.iterIndex = 2;
    uint64_t parent = stack.empty() ? 0 : stack.top().execId;
    stack.push(e);
    uint32_t depth = static_cast<uint32_t>(stack.size());
    emitExecStart({d.seq, e.execId, e.loop, e.branchAddr, depth, parent});
    emitIterStart({d.seq, e.execId, e.loop, 2, depth});
}

void
LoopDetector::handleNotTakenBackward(const DynInstr &d)
{
    const uint32_t t = d.target;
    int idx = stack.find(t);
    if (idx < 0) {
        // A loop with exactly one iteration has completed (§2.2).
        emitSingleIter({d.seq, t, d.pc,
                        static_cast<uint32_t>(stack.size() + 1)});
        return;
    }
    ClsEntry &e = stack.at(static_cast<size_t>(idx));
    if (e.branchAddr <= d.pc) {
        // Not taken at (or above) B: iteration and execution both end.
        popAbove(static_cast<size_t>(idx), d.seq, ExecEndReason::OuterEnd);
        endExecutionAt(static_cast<size_t>(idx), d.seq,
                       ExecEndReason::Close);
        stack.removeAt(static_cast<size_t>(idx));
    }
    // Not taken below B: a secondary closing branch fell through; the
    // loop goes on. No action.
}

void
LoopDetector::handleReturn(const DynInstr &d)
{
    // Return rule (§2.2): pop every loop whose static body contains the
    // return's address, regardless of where the return goes.
    for (size_t j = stack.size(); j-- > 0;) {
        const ClsEntry &e = stack.at(j);
        if (e.bodyContains(d.pc)) {
            endExecutionAt(j, d.seq, ExecEndReason::Return);
            stack.removeAt(j);
        }
    }
}

void
LoopDetector::dispatch(const DynInstr &d)
{
    switch (d.kind) {
      case CtrlKind::None:
      case CtrlKind::Call:
        // Calls never terminate loop executions (§2.1: any number of
        // subroutine activations inside a loop body).
        return;
      case CtrlKind::Branch:
        if (d.taken)
            handleTakenTransfer(d);
        else if (d.target <= d.pc)
            handleNotTakenBackward(d);
        return;
      case CtrlKind::Jump:
        handleTakenTransfer(d);
        return;
      case CtrlKind::Ret:
        handleReturn(d);
        return;
      default:
        panic("bad CtrlKind");
    }
}

void
LoopDetector::onInstr(const DynInstr &d)
{
    // The consumer sees the instruction before any events it triggers,
    // so a closing branch is attributed to the iteration it terminates.
    if (consumer)
        consumer->onInstr(d);
    dispatch(d);
}

BatchNeed
LoopDetector::batchNeed() const
{
    return consumer ? BatchNeed::FullRecords : BatchNeed::HotPlanes;
}

void
LoopDetector::onInstrBatchSoA(const SoaBatch &b)
{
    // Only the control positions are ever touched: everything between
    // them extends the consumer's current span.
    size_t span_start = 0;
    for (size_t k = 0; k < b.numCtrl; ++k) {
        const size_t i = b.ctrl[k];
        if (k + 1 < b.numCtrl) {
            // Warm the next control record's plane lines while this one
            // dispatches.
            const size_t ni = b.ctrl[k + 1];
            prefetchRead(&b.pc[ni]);
            prefetchRead(&b.target[ni]);
            prefetchRead(&b.kind[ni]);
            prefetchRead(&b.taken[ni]);
        }

        // Reconstruct the hot fields of the control record — all the
        // CLS update reads.
        DynInstr d;
        d.seq = b.seqBase + i;
        d.pc = b.pc[i];
        d.target = b.target[i];
        d.kind = static_cast<CtrlKind>(b.kind[i]);
        d.taken = b.taken[i] != 0;

        // Only taken branches/jumps, not-taken backward branches and
        // returns can change the CLS; calls never terminate loop
        // executions (§2.1).
        bool work;
        switch (d.kind) {
          case CtrlKind::None:
          case CtrlKind::Call:
            work = false;
            break;
          case CtrlKind::Branch:
            work = d.taken || d.target <= d.pc;
            break;
          case CtrlKind::Jump:
          case CtrlKind::Ret:
            work = true;
            break;
          default:
            panic("bad CtrlKind");
        }
        if (!work)
            continue;

        // Warm the LET/LIT-style set lines keyed by the transfer's
        // target: the CLS update below overlaps the loads before any
        // event handler probes the tables.
        for (auto *l : prefetchListeners)
            l->prefetchLoop(d.target);

        // The consumer must see d before any event it triggers: hand
        // over the span up to and including d, then update the CLS.
        if (consumer)
            consumer->onSpan(b, span_start, i - span_start + 1);
        dispatch(d);
        span_start = i + 1;
    }
    if (consumer && span_start < b.count)
        consumer->onSpan(b, span_start, b.count - span_start);
}

void
LoopDetector::onTraceEnd(uint64_t total_instrs)
{
    if (flushed)
        return;
    flushed = true;
    // Flush anything still live; SPEC95 always drains naturally per the
    // paper, but synthetic or truncated traces may not.
    while (!stack.empty()) {
        endExecutionAt(stack.size() - 1, total_instrs,
                       ExecEndReason::TraceEnd);
        stack.pop();
    }
    for (auto *l : listeners)
        l->onTraceDone(total_instrs);
}

} // namespace loopspec
