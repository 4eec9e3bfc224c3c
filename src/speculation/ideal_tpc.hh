/**
 * @file
 * Infinite-TU thread-level-parallelism model (Figure 5). The ideal
 * machine detects a loop execution at the end of its first iteration and
 * immediately starts every remaining iteration on its own TU; speculative
 * threads recursively parallelise their inner loops the same way. The
 * duration recursion is
 *
 *     dur(execution) = dur(iter 1) + max_{k >= 2} dur(iter k)
 *
 * where iteration 1 serialises with its parent (detection happens at its
 * end) and each dur(iter k) collapses inner executions recursively.
 * TPC = total instructions / dur(whole program).
 */

#ifndef LOOPSPEC_SPECULATION_IDEAL_TPC_HH
#define LOOPSPEC_SPECULATION_IDEAL_TPC_HH

#include <cstdint>
#include <vector>

#include "loop/loop_event.hh"
#include "speculation/event_record.hh"

namespace loopspec
{

/**
 * Streaming computation of the ideal duration over the detector's event
 * stream: a frame per live execution accumulates the current iteration's
 * cost; IterEnd folds it into the per-execution max; ExecEnd collapses
 * the execution into its parent's current iteration as the max iteration
 * cost (iteration 1's cost accrued to the parent inline, which is exactly
 * the serialisation the detection delay imposes).
 */
class IdealTpcComputer : public LoopListener
{
  public:
    void onInstr(const DynInstr &instr) override;
    void onInstrSpan(const DynInstr *instrs, size_t count) override;
    /** Spans only accrue counts; the records are never dereferenced. */
    bool readsSpanRecords() const override { return false; }
    void onExecStart(const ExecStartEvent &ev) override;
    void onIterEnd(const IterEvent &ev) override;
    void onExecEnd(const ExecEndEvent &ev) override;
    void onTraceDone(uint64_t total_instrs) override;

    /** Ideal-machine cycle count; valid after onTraceDone. */
    uint64_t idealCycles() const;

    /** Instructions observed. */
    uint64_t totalInstrs() const { return instrs; }

    /** TPC on the infinite-TU machine. */
    double tpc() const;

  private:
    struct Frame
    {
        uint64_t execId;
        uint64_t curCost;  //!< current iteration, collapsed children incl.
        uint64_t maxCost;  //!< max over finished iterations >= 2
    };

    std::vector<Frame> frames;
    uint64_t rootCost = 0;
    uint64_t instrs = 0;
    bool done = false;
};

/**
 * Figure 5's window: the paper pairs the whole trace with its first
 * 10^9 instructions; we pair it with its first half.
 */
constexpr uint64_t
idealPrefixWindow(uint64_t total_instrs)
{
    return total_instrs / 2;
}

/** Figure 5's pair of ideal ∞-TU TPCs over one recording. */
struct IdealTpcPair
{
    double full = 0.0;   //!< whole trace
    double prefix = 0.0; //!< first idealPrefixWindow() instructions
};

/** Both Figure-5 values by windowed replay of @p recording — equal to
 *  running the detector over each window (replayLoopEvents). */
IdealTpcPair idealTpcPair(const LoopEventRecording &recording);

} // namespace loopspec

#endif // LOOPSPEC_SPECULATION_IDEAL_TPC_HH
