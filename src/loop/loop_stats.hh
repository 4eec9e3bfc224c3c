/**
 * @file
 * Table-1 loop statistics: instruction counts, static loop count,
 * iterations per execution, instructions per iteration, nesting levels.
 */

#ifndef LOOPSPEC_LOOP_LOOP_STATS_HH
#define LOOPSPEC_LOOP_LOOP_STATS_HH

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "loop/loop_event.hh"

namespace loopspec
{

/** Table 1 of one program (loopStatsFromRecording). */
struct LoopStatsReport
{
    uint64_t totalInstrs = 0;
    uint64_t staticLoops = 0; //!< distinct loop identifiers T observed
    uint64_t totalExecs = 0;  //!< detected + single-iteration executions
    uint64_t totalIters = 0;
    uint64_t singleIterExecs = 0;
    double itersPerExec = 0.0;
    double instrsPerIter = 0.0;
    double avgNesting = 0.0;
    uint32_t maxNesting = 0;
    uint64_t overflowDrops = 0; //!< executions lost to CLS overflow
    /** Fraction of dynamic instructions inside at least one detected
     *  loop execution. */
    double loopCoverage = 0.0;
};

/**
 * Table-1 frame logic over the detector's event stream, with the
 * instruction counts supplied through countInstrs() (see
 * InstrCountingListener); loopStatsFromRecording is its production
 * driver.
 *
 * Instruction attribution: each retired instruction increments the
 * innermost live frame; when an execution ends, its span (own + children)
 * cascades into its parent, so an execution's span covers everything
 * retired between its detection and its termination, as the paper's
 * execution definition requires. Because the first iteration is
 * undetectable (§2.2), spans start at detection; instrsPerIter corrects
 * by scaling each span by iters/(iters-1) — iteration 1 statistically
 * resembles the others (§4: 85% of iterations share one path).
 * Single-iteration executions have unknowable spans and are excluded
 * from instrsPerIter (but counted in executions/iterations).
 */
class LoopStatsModel : public InstrCountingListener
{
  public:
    void countInstrs(uint64_t count) override;
    void onExecStart(const ExecStartEvent &ev) override;
    void onExecEnd(const ExecEndEvent &ev) override;
    void onSingleIterExec(const SingleIterExecEvent &ev) override;
    void onTraceDone(uint64_t total_instrs) override;

    /** Final report; valid after onTraceDone. */
    const LoopStatsReport &report() const { return result; }

  private:
    struct Frame
    {
        uint64_t execId;
        uint64_t instrs; //!< own + cascaded child spans
    };

    std::vector<Frame> frames; //!< mirrors the CLS (bottom at index 0)
    std::unordered_set<uint32_t> loopIds;

    uint64_t totalInstrs = 0;
    uint64_t coveredInstrs = 0; //!< instructions with >= 1 live frame
    uint64_t totalExecs = 0;
    uint64_t totalIters = 0;
    uint64_t singleIters = 0;
    uint64_t overflowDrops = 0;
    double spanCorrectedSum = 0.0;
    uint64_t spanIters = 0; //!< iterations of span-counted executions
    uint64_t nestingSum = 0;
    uint64_t nestingCount = 0;
    uint32_t maxNesting = 0;

    LoopStatsReport result;
    bool done = false;
};

struct LoopEventRecording; // see speculation/event_record.hh

/**
 * Table 1 over the first @p window instructions of @p recording's trace
 * (clamped to its length): the statistics a detector run over those
 * instructions yields, with every instruction up to an event's position
 * credited before the event (replayCounted).
 */
LoopStatsReport loopStatsFromRecording(const LoopEventRecording &recording,
                                       uint64_t window);

} // namespace loopspec

#endif // LOOPSPEC_LOOP_LOOP_STATS_HH
