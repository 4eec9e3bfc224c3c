/**
 * @file
 * Shared experiment driver: builds a workload, executes the functional
 * simulator ONCE through the loop detector (or streams an exported trace
 * container in its place), recording the loop-event stream, and derives
 * every loop-event artifact from that recording — Table 1, the LET/LIT
 * table-size sweep of Figure 4, and the ideal TPC of Figure 5 over the
 * whole trace and over its first half. Every bench
 * binary (one per paper table/figure) is a thin layer over this.
 */

#ifndef LOOPSPEC_HARNESS_RUNNER_HH
#define LOOPSPEC_HARNESS_RUNNER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dataspec/data_profiler.hh"
#include "dataspec/mem_trace.hh"
#include "loop/loop_stats.hh"
#include "predict/predictor_meter.hh"
#include "speculation/event_record.hh"
#include "speculation/sweep.hh"
#include "tables/hit_ratio.hh"
#include "trace_io/container.hh"
#include "trace_io/replay_source.hh"
#include "tracegen/control_trace.hh"
#include "util/cli.hh"
#include "workloads/workload.hh"

namespace loopspec
{

/** Options shared by all experiment binaries. */
struct RunOptions
{
    WorkloadScale scale;
    std::vector<std::string> benchmarks; //!< empty = whole suite
    size_t clsEntries = 16;
    uint64_t maxInstrs = 0; //!< trace truncation (0 = run to Halt)
    bool csv = false;
    /** Cross-check the pass against its control trace (re-recording,
     *  predictor meters), the Figure-4 meters against meters riding the
     *  pass, and the Figure-5 prefix against a direct detection over
     *  it; fatal() on any mismatch. */
    bool checkReplay = false;
    /** Thread-pool width for sweeps and parallel workload runs
     *  (0 = one per hardware thread, 1 = fully serial). Results are
     *  identical for every value. */
    unsigned jobs = 0;
    /**
     * Replay recorded control-trace containers from this directory
     * instead of executing workloads: each "benchmark" name resolves to
     * <traceDir>/<name>.lstrace and the functional pass becomes an
     * out-of-core streaming replay (docs/TRACE_FORMAT.md). Artifacts
     * that need operand values (dataSpec/dataCorrectness) are fatal in
     * this mode; everything else is bit-identical to the in-process
     * run that exported the trace.
     */
    std::string traceDir;

    /** Benchmarks to run (selection, trace-dir scan, or full registry
     *  order). */
    std::vector<std::string> selected() const;
};

/** Parse the standard flags: --scale --benchmarks --cls --max-instrs
 *  --csv --check-replay --jobs --trace-dir. Extra flags may be listed in
 *  @p extra_flags and read from the CliArgs handed back through
 *  @p args_out (ownership goes to the caller; pass nullptr when only the
 *  standard flags matter). */
RunOptions parseRunOptions(int argc, char **argv,
                           const std::vector<std::string> &extra_flags,
                           std::unique_ptr<CliArgs> *args_out = nullptr);

/** What a trace pass should collect. */
struct CollectFlags
{
    bool loopStats = false;
    bool hitRatios = false; //!< LET/LIT meters at 2/4/8/16 entries
    bool ideal = false;     //!< infinite-TU TPC, whole trace and half
    bool recording = false; //!< event recording for the TU simulator
    bool dataSpec = false;  //!< §4 profiler
    /** Annotate the recording with per-iteration live-in correctness
     *  (implies recording + dataSpec); enables DataMode::Profiled and,
     *  with the conflict annotation, DataMode::Full. */
    bool dataCorrectness = false;
    /** Record the memory-access sidecar (dataspec/mem_trace.hh) so the
     *  caller can derive conflict profiles at any CLS; enables
     *  DataMode::Conflicts. Fatal in --trace-dir mode (a control-trace
     *  replay has no operands). */
    bool memTrace = false;
    /** Keep the control-event trace in the artifacts so the caller can
     *  replay further derived configurations (e.g. CLS-size sweeps). */
    bool controlTrace = false;
    /** Branch-predictor accuracy meters riding the functional pass
     *  (one per configuration; docs/PREDICTORS.md). Under
     *  --check-replay each meter is re-derived by control-trace replay
     *  and must match the pass's one bit-for-bit. */
    std::vector<PredictorConfig> predictors;
};

/** Everything a pass can produce. */
struct WorkloadArtifacts
{
    std::string name;
    uint64_t totalInstrs = 0;
    LoopStatsReport loopStats;
    std::vector<std::pair<size_t, HitRatioResult>> letResults;
    std::vector<std::pair<size_t, HitRatioResult>> litResults;
    double idealTpc = 0.0;
    double idealTpcPrefix = 0.0; //!< first half of the trace
    LoopEventRecording recording;
    DataSpecReport dataSpec;
    MemAccessTrace memTrace;   //!< populated when flags.memTrace
    ControlTrace controlTrace; //!< populated when flags.controlTrace
    /** Per-predictor accuracy, in CollectFlags::predictors order. */
    std::vector<PredictorMeterResult> predictorStats;
};

/** Build + trace one workload, collecting per @p flags. */
WorkloadArtifacts runWorkload(const std::string &name,
                              const RunOptions &opts,
                              const CollectFlags &flags);

/**
 * Run several workloads concurrently on a std::thread pool
 * (@p num_threads 0 = one per hardware thread) and return the artifacts
 * in input order. Every runWorkload call owns its engine/detector state,
 * so the merged result is identical to the sequential loop regardless of
 * scheduling — callers may swap this in for a for-loop freely.
 */
std::vector<WorkloadArtifacts>
runWorkloads(const std::vector<std::string> &names, const RunOptions &opts,
             const CollectFlags &flags, unsigned num_threads = 0);

/**
 * Seed a SweepGrid from the standard options: workload axis from the
 * selection, CLS axis {opts.clsEntries}, scale/max-instrs/check-replay
 * forwarded. Benches add their figure's configuration axes on top and
 * hand the grid to runSpecSweep(grid, opts.jobs).
 */
SweepGrid sweepGridFromOptions(const RunOptions &opts);

/** Write the sweep's JSON artifact to @p path and log it; "" = no-op
 *  (benches wire this to an optional --json flag). */
void writeSweepJsonFile(const std::string &path, const SweepResult &result,
                        unsigned jobs, double serial_seconds = 0.0);

/** The table sizes Figure 4 sweeps. */
const std::vector<size_t> &hitRatioTableSizes();

/**
 * Record the detector at each of @p cls_sizes over one control stream in
 * a single walk: @p make_source wraps each size's detector in a source
 * over the same stream (an in-memory trace or a streamed container), and
 * the sources advance chunk by chunk in lockstep (interleaveReplay), so
 * every chunk of trace bytes is pulled through the cache once. Returns ""
 * with one recording per size, or the first source error.
 */
std::string
recordAtClsSizes(const std::vector<size_t> &cls_sizes,
                 const std::function<std::unique_ptr<ReplaySource>(
                     TraceObserver &)> &make_source,
                 std::vector<LoopEventRecording> *recordings);

/**
 * Run @p name once and write its control trace as a binary container
 * to <dir>/<name>.lstrace (tools/trace_convert export, test fixtures).
 * Returns the path written; fatal() on I/O failure.
 */
std::string exportWorkloadTrace(const std::string &name,
                                const RunOptions &opts,
                                const std::string &dir,
                                TraceEncoding enc);

} // namespace loopspec

#endif // LOOPSPEC_HARNESS_RUNNER_HH
