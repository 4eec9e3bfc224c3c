/**
 * @file
 * The traced run's sweep: runSpecSweep's three stages composed from the
 * library's public calls (runWorkload, interleaveReplay over
 * ControlTraceSource / StreamedControlSource, profileConflicts +
 * annotateConflicts, RecordingIndex, ThreadSpecSimulator::run), with a
 * span around each call. Its result must digest exactly like
 * runSpecSweep's, which the benchmark checks on every traced pass.
 */

#ifndef LOOPSPEC_PERFBENCH_PIPELINE_HH
#define LOOPSPEC_PERFBENCH_PIPELINE_HH

#include <vector>

#include "common.hh"
#include "speculation/sweep.hh"
#include "tracer.hh"

namespace perfbench
{

/** One traced pass: its result, wall time and spans. */
struct ComposedPass
{
    loopspec::SweepResult result;
    double wall = 0.0;
    std::vector<Span> spans;
    size_t peakBufferBytes = 0; //!< largest streamer buffer (trace-dir)
};

/** Run @p grid stage by stage on @p width threads, tracing each call. */
ComposedPass composedSweep(const loopspec::SweepGrid &grid, unsigned width);

/**
 * The span-derived per-layer metrics of @p pass (tracegen, trace_io,
 * speculation, sweep and dataspec), every one of them whether or not its
 * layer did work (0 when it did not). @p width is the pool width the
 * stage idle fractions are taken against.
 */
std::vector<Metric> layerMetrics(const ComposedPass &pass, unsigned width);

} // namespace perfbench

#endif // LOOPSPEC_PERFBENCH_PIPELINE_HH
