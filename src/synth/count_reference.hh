/**
 * @file
 * Per-instruction reference for the recording-derived counts: Table 1
 * (loopStatsFromRecording) and Figure 5's ideal machine
 * (idealFromRecording). The production functions derive every
 * instruction count from event positions and the window; this reference
 * credits the counting models one retired instruction at a time, before
 * the detector dispatches it, so its counts come from delivery alone.
 * It is kept as the oracle of the DiffChecker's windowed stage, the way
 * step() is kept for run().
 */

#ifndef LOOPSPEC_SYNTH_COUNT_REFERENCE_HH
#define LOOPSPEC_SYNTH_COUNT_REFERENCE_HH

#include <cstddef>
#include <cstdint>

#include "loop/loop_detector.hh"
#include "loop/loop_stats.hh"
#include "speculation/ideal_tpc.hh"

namespace loopspec
{
namespace synth
{

/**
 * A TraceObserver owning its own LoopDetector; the Table-1 and ideal
 * models share their frame logic with the production functions. Batch
 * deliveries reach it record by record (the TraceObserver default).
 */
class CountingReference : public TraceObserver
{
  public:
    explicit CountingReference(size_t cls_entries);

    /** Attach a further listener to the reference's detector. */
    void addListener(LoopListener *listener);

    void onInstr(const DynInstr &instr) override;
    void onTraceEnd(uint64_t total_instrs) override;

    /** Valid after onTraceEnd. */
    const LoopStatsReport &loopStats() const { return stats.report(); }
    IdealResult ideal() const { return idealModel.result(); }

  private:
    LoopStatsModel stats;
    IdealTpcModel idealModel;
    LoopDetector det;
};

} // namespace synth
} // namespace loopspec

#endif // LOOPSPEC_SYNTH_COUNT_REFERENCE_HH
