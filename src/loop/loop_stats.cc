#include "loop/loop_stats.hh"

#include <algorithm>

#include "speculation/event_record.hh"
#include "util/logging.hh"

namespace loopspec
{

void
LoopStatsModel::countInstrs(uint64_t count)
{
    totalInstrs += count;
    if (!frames.empty()) {
        frames.back().instrs += count;
        coveredInstrs += count;
    }
}

void
LoopStatsModel::onExecStart(const ExecStartEvent &ev)
{
    loopIds.insert(ev.loop);
    frames.push_back({ev.execId, 0});
    nestingSum += ev.depth;
    ++nestingCount;
    maxNesting = std::max(maxNesting, ev.depth);
}

void
LoopStatsModel::onExecEnd(const ExecEndEvent &ev)
{
    // Find the frame (normally the top; middle for overlapped-loop exits
    // and the bottom for overflow drops).
    size_t idx = frames.size();
    for (size_t i = frames.size(); i-- > 0;) {
        if (frames[i].execId == ev.execId) {
            idx = i;
            break;
        }
    }
    LOOPSPEC_ASSERT(idx < frames.size(), "ExecEnd for unknown frame");

    uint64_t span = frames[idx].instrs;
    // Cascade the span into the enclosing execution: a child's
    // instructions belong to the parent execution too (§2.1).
    if (idx > 0)
        frames[idx - 1].instrs += span;
    frames.erase(frames.begin() + static_cast<long>(idx));

    ++totalExecs;
    totalIters += ev.iterCount;
    if (ev.reason == ExecEndReason::Overflow) {
        ++overflowDrops;
        return; // span is truncated; exclude from instr/iter
    }
    if (ev.iterCount >= 2) {
        double corrected = static_cast<double>(span) *
                           static_cast<double>(ev.iterCount) /
                           static_cast<double>(ev.iterCount - 1);
        spanCorrectedSum += corrected;
        spanIters += ev.iterCount;
    }
}

void
LoopStatsModel::onSingleIterExec(const SingleIterExecEvent &ev)
{
    loopIds.insert(ev.loop);
    ++totalExecs;
    ++totalIters;
    ++singleIters;
    nestingSum += ev.depth;
    ++nestingCount;
    maxNesting = std::max(maxNesting, ev.depth);
}

void
LoopStatsModel::onTraceDone(uint64_t total_instrs)
{
    LOOPSPEC_ASSERT(!done, "onTraceDone twice");
    LOOPSPEC_ASSERT(frames.empty(),
                    "LoopStatsModel frames must drain before onTraceDone");
    done = true;

    result.totalInstrs = total_instrs;
    result.staticLoops = loopIds.size();
    result.totalExecs = totalExecs;
    result.totalIters = totalIters;
    result.singleIterExecs = singleIters;
    result.itersPerExec =
        totalExecs ? static_cast<double>(totalIters) /
                         static_cast<double>(totalExecs)
                   : 0.0;
    result.instrsPerIter =
        spanIters ? spanCorrectedSum / static_cast<double>(spanIters) : 0.0;
    result.avgNesting =
        nestingCount ? static_cast<double>(nestingSum) /
                           static_cast<double>(nestingCount)
                     : 0.0;
    result.maxNesting = maxNesting;
    result.overflowDrops = overflowDrops;
    result.loopCoverage =
        totalInstrs ? static_cast<double>(coveredInstrs) /
                          static_cast<double>(totalInstrs)
                    : 0.0;
}

LoopStatsReport
loopStatsFromRecording(const LoopEventRecording &recording, uint64_t window)
{
    LoopStatsModel stats;
    replayCounted(recording, stats, window);
    return stats.report();
}

} // namespace loopspec
