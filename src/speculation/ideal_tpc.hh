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

/** Figure 5's ideal machine over one window of a trace. */
struct IdealResult
{
    uint64_t instrs = 0; //!< instructions in the window
    uint64_t cycles = 0; //!< ideal-machine cycles

    /** TPC on the infinite-TU machine (0 for an empty window). */
    double
    tpc() const
    {
        return cycles ? static_cast<double>(instrs) /
                            static_cast<double>(cycles)
                      : 0.0;
    }
};

/**
 * The ideal duration's frame logic over the detector's event stream,
 * with the instruction counts supplied through countInstrs() (see
 * InstrCountingListener): a frame per live execution accumulates the
 * current iteration's cost; IterEnd folds it into the per-execution
 * max; ExecEnd collapses the execution into its parent's current
 * iteration as the max iteration cost (iteration 1's cost accrued to
 * the parent inline, which is exactly the serialisation the detection
 * delay imposes). idealFromRecording is its production driver.
 */
class IdealTpcModel : public InstrCountingListener
{
  public:
    void countInstrs(uint64_t count) override;
    void onExecStart(const ExecStartEvent &ev) override;
    void onIterEnd(const IterEvent &ev) override;
    void onExecEnd(const ExecEndEvent &ev) override;
    void onTraceDone(uint64_t total_instrs) override;

    /** Instructions and ideal cycles; valid after onTraceDone. */
    IdealResult result() const;

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
 * Figure 5's ideal machine over the first @p window instructions of
 * @p recording's trace (clamped to its length): equal to running the
 * detector over those instructions, with every instruction up to an
 * event's position credited before the event (replayCounted).
 */
IdealResult idealFromRecording(const LoopEventRecording &recording,
                               uint64_t window);

/**
 * The ideal machine as a detector listener, for callers that attach it
 * to a live detector. It records the events it sees and, at
 * onTraceDone, evaluates idealFromRecording over the whole pass — one
 * ideal algorithm whichever way the events arrive.
 */
class IdealTpcComputer : public LoopListener
{
  public:
    void onExecStart(const ExecStartEvent &ev) override;
    void onIterStart(const IterEvent &ev) override;
    void onIterEnd(const IterEvent &ev) override;
    void onExecEnd(const ExecEndEvent &ev) override;
    void onSingleIterExec(const SingleIterExecEvent &ev) override;
    void onTraceDone(uint64_t total_instrs) override;

    /** Ideal-machine cycle count; valid after onTraceDone. */
    uint64_t idealCycles() const;

    /** Instructions observed; valid after onTraceDone. */
    uint64_t totalInstrs() const { return ideal.instrs; }

    /** TPC on the infinite-TU machine; valid after onTraceDone. */
    double tpc() const;

  private:
    LoopEventRecorder recorder;
    IdealResult ideal;
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

/** Both Figure-5 values of @p recording (idealFromRecording). */
IdealTpcPair idealTpcPair(const LoopEventRecording &recording);

} // namespace loopspec

#endif // LOOPSPEC_SPECULATION_IDEAL_TPC_HH
