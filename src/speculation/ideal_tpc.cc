#include "speculation/ideal_tpc.hh"

#include <algorithm>

#include "util/logging.hh"

namespace loopspec
{

void
IdealTpcModel::countInstrs(uint64_t count)
{
    instrs += count;
    if (frames.empty())
        rootCost += count;
    else
        frames.back().curCost += count;
}

void
IdealTpcModel::onExecStart(const ExecStartEvent &ev)
{
    frames.push_back({ev.execId, 0, 0});
}

void
IdealTpcModel::onIterEnd(const IterEvent &ev)
{
    // Pops arrive innermost-first, so by the time a loop's IterEnd fires
    // it is the top frame (middle removals only happen for ExecEnd).
    if (frames.empty() || frames.back().execId != ev.execId)
        return; // IterEnd of a middle entry (overlapped exit); ExecEnd
                // handles the fold.
    Frame &f = frames.back();
    f.maxCost = std::max(f.maxCost, f.curCost);
    f.curCost = 0;
}

void
IdealTpcModel::onExecEnd(const ExecEndEvent &ev)
{
    size_t idx = frames.size();
    for (size_t i = frames.size(); i-- > 0;) {
        if (frames[i].execId == ev.execId) {
            idx = i;
            break;
        }
    }
    LOOPSPEC_ASSERT(idx < frames.size(), "ExecEnd for unknown frame");

    Frame f = frames[idx];
    frames.erase(frames.begin() + static_cast<long>(idx));

    // Overflow losses carry an unfolded current iteration (no IterEnd was
    // emitted); fold it so the cost is not lost.
    uint64_t collapsed = std::max(f.maxCost, f.curCost);

    if (idx > 0)
        frames[idx - 1].curCost += collapsed;
    else
        rootCost += collapsed;
}

void
IdealTpcModel::onTraceDone(uint64_t total_instrs)
{
    (void)total_instrs;
    LOOPSPEC_ASSERT(frames.empty(),
                    "frames must drain before onTraceDone");
    done = true;
}

IdealResult
IdealTpcModel::result() const
{
    LOOPSPEC_ASSERT(done, "ideal result before trace end");
    return {instrs, rootCost};
}

IdealResult
idealFromRecording(const LoopEventRecording &recording, uint64_t window)
{
    IdealTpcModel model;
    replayCounted(recording, model, window);
    return model.result();
}

void
IdealTpcComputer::onExecStart(const ExecStartEvent &ev)
{
    recorder.onExecStart(ev);
}

void
IdealTpcComputer::onIterStart(const IterEvent &ev)
{
    recorder.onIterStart(ev);
}

void
IdealTpcComputer::onIterEnd(const IterEvent &ev)
{
    recorder.onIterEnd(ev);
}

void
IdealTpcComputer::onExecEnd(const ExecEndEvent &ev)
{
    recorder.onExecEnd(ev);
}

void
IdealTpcComputer::onSingleIterExec(const SingleIterExecEvent &ev)
{
    recorder.onSingleIterExec(ev);
}

void
IdealTpcComputer::onTraceDone(uint64_t total_instrs)
{
    recorder.onTraceDone(total_instrs);
    ideal = idealFromRecording(recorder.take(), total_instrs);
    done = true;
}

uint64_t
IdealTpcComputer::idealCycles() const
{
    LOOPSPEC_ASSERT(done, "idealCycles() before trace end");
    return ideal.cycles;
}

double
IdealTpcComputer::tpc() const
{
    LOOPSPEC_ASSERT(done, "tpc() before trace end");
    return ideal.tpc();
}

IdealTpcPair
idealTpcPair(const LoopEventRecording &recording)
{
    const uint64_t total = recording.totalInstrs;
    return {idealFromRecording(recording, total).tpc(),
            idealFromRecording(recording, idealPrefixWindow(total)).tpc()};
}

} // namespace loopspec
