#include "trace_io/replay_source.hh"

#include "util/logging.hh"

namespace loopspec
{

ControlTraceSource::ControlTraceSource(const ControlTrace &trace,
                                       TraceObserver &observer,
                                       uint64_t max_instrs,
                                       size_t batch_instrs)
    : trace(trace),
      synth(observer, trace.totalInstrs, max_instrs, batch_instrs)
{
}

bool
ControlTraceSource::pump(uint64_t chunk_instrs)
{
    LOOPSPEC_ASSERT(!done, "pump() after completion");
    uint64_t pos = synth.position();
    uint64_t goal = synth.windowEnd();
    if (chunk_instrs < goal - pos)
        goal = pos + chunk_instrs;
    while (synth.position() < goal) {
        if (next >= trace.transfers.size() ||
            !synth.feed(trace.transfers[next])) {
            // No remaining transfer can advance the replay: synthesize
            // the trailing gap and deliver onTraceEnd, exactly like
            // replayControlTrace's epilogue.
            total = synth.finish();
            done = true;
            return false;
        }
        ++next;
    }
    if (synth.position() >= synth.windowEnd()) {
        // Window filled mid-stream (max_instrs truncation): remaining
        // transfers are ignored, as in sequential replay.
        total = synth.finish();
        done = true;
        return false;
    }
    return true;
}

EventRecordingSource::EventRecordingSource(
    const LoopEventRecording &recording,
    std::vector<LoopListener *> listeners)
    : rec(recording), listeners(std::move(listeners))
{
}

bool
EventRecordingSource::pump(uint64_t chunk_instrs)
{
    LOOPSPEC_ASSERT(!done, "pump() after completion");
    uint64_t goal = pos + chunk_instrs;
    while (next < rec.loopEvents.size()) {
        const LoopEventRec &e = rec.loopEvents[next];
        if (e.pos >= goal && goal < rec.totalInstrs) {
            pos = goal;
            return true;
        }
        uint32_t branch_addr = 0;
        uint64_t parent_exec_id = 0;
        if (e.kind == LoopEventKind::ExecStart) {
            LOOPSPEC_ASSERT(nextExec < rec.execs.size(),
                            "more ExecStart events than ExecRecords");
            const ExecRecord &r = rec.execs[nextExec++];
            branch_addr = r.branchAddr;
            parent_exec_id = r.parentExecId;
        }
        dispatchLoopEvent(e, branch_addr, parent_exec_id, listeners);
        pos = e.pos;
        ++next;
    }
    for (auto *l : listeners)
        l->onTraceDone(rec.totalInstrs);
    pos = rec.totalInstrs;
    done = true;
    return false;
}

StreamedControlSource::StreamedControlSource(TraceFileStreamer &streamer,
                                             TraceObserver &observer,
                                             uint64_t max_instrs)
{
    pumpImpl = streamer.openControlPump(observer, max_instrs, &err);
    if (!pumpImpl)
        done = true; // error() carries the diagnostic
}

bool
StreamedControlSource::pump(uint64_t chunk_instrs)
{
    LOOPSPEC_ASSERT(!done, "pump() after completion");
    if (pumpImpl->pump(chunk_instrs))
        return true;
    err = pumpImpl->error();
    done = true;
    return false;
}

std::string
interleaveReplay(const std::vector<ReplaySource *> &sources,
                 uint64_t chunk_instrs)
{
    LOOPSPEC_ASSERT(chunk_instrs >= 1, "chunk_instrs must be >= 1");
    std::string first_err;
    std::vector<bool> live(sources.size());
    size_t remaining = 0;
    for (size_t i = 0; i < sources.size(); ++i) {
        // A source that failed to construct (streamer open error) is
        // already terminal; collect its diagnostic without pumping.
        live[i] = sources[i]->error().empty();
        if (live[i])
            ++remaining;
        else if (first_err.empty())
            first_err = sources[i]->error();
    }
    while (remaining) {
        for (size_t i = 0; i < sources.size(); ++i) {
            if (!live[i])
                continue;
            if (!sources[i]->pump(chunk_instrs)) {
                live[i] = false;
                --remaining;
                if (first_err.empty())
                    first_err = sources[i]->error();
            }
        }
    }
    return first_err;
}

} // namespace loopspec
