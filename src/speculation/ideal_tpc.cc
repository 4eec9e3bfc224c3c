#include "speculation/ideal_tpc.hh"

#include <algorithm>

#include "util/logging.hh"

namespace loopspec
{

void
IdealTpcComputer::onInstr(const DynInstr &instr)
{
    (void)instr;
    ++instrs;
    if (frames.empty())
        ++rootCost;
    else
        ++frames.back().curCost;
}

void
IdealTpcComputer::onInstrSpan(const DynInstr *instrs_p, size_t count)
{
    // Spans never straddle loop events: the frame stack is constant.
    (void)instrs_p;
    instrs += count;
    if (frames.empty())
        rootCost += count;
    else
        frames.back().curCost += count;
}

void
IdealTpcComputer::onExecStart(const ExecStartEvent &ev)
{
    frames.push_back({ev.execId, 0, 0});
}

void
IdealTpcComputer::onIterEnd(const IterEvent &ev)
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
IdealTpcComputer::onExecEnd(const ExecEndEvent &ev)
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
IdealTpcComputer::onTraceDone(uint64_t total_instrs)
{
    (void)total_instrs;
    LOOPSPEC_ASSERT(frames.empty(),
                    "frames must drain before onTraceDone");
    done = true;
}

uint64_t
IdealTpcComputer::idealCycles() const
{
    LOOPSPEC_ASSERT(done, "idealCycles() before trace end");
    return rootCost;
}

double
IdealTpcComputer::tpc() const
{
    uint64_t cycles = idealCycles();
    return cycles ? static_cast<double>(instrs) /
                        static_cast<double>(cycles)
                  : 0.0;
}

IdealTpcPair
idealTpcPair(const LoopEventRecording &recording)
{
    IdealTpcComputer full, prefix;
    replayLoopEvents(recording, {&full});
    replayLoopEvents(recording, {&prefix},
                     idealPrefixWindow(recording.totalInstrs));
    return {full.tpc(), prefix.tpc()};
}

} // namespace loopspec
