/**
 * @file
 * Unified speculation sweep engine behind the paper's payoff experiments
 * (Figures 5-8, Table 2) and arbitrary beyond-paper grids.
 *
 * A sweep is declared as a grid — workloads × CLS sizes × policies ×
 * TU counts × LET capacities, plus per-workload artifact switches (ideal
 * ∞-TU TPC, §4 data-speculation profile) — and executed in three
 * deterministic stages (docs/DESIGN.md §9):
 *
 *  1. each *workload* is traced functionally exactly once (all grid
 *     cells over it share that pass);
 *  2. each required *(workload, CLS)* recording is produced exactly once
 *     — the first CLS size from the live pass, every further size by
 *     control-trace replay — and indexed once (RecordingIndex);
 *  3. the cross-product of ThreadSpecSimulator runs fans out over the
 *     thread pool, each cell writing only its own pre-allocated slot.
 *
 * Results are bit-identical for any --jobs value, including fully
 * serial, because every cell is a pure function of its recording and
 * configuration. The per-figure bench binaries (bench_fig5..8,
 * bench_table2, bench_dataspec_tpc) are thin declarative grids over
 * this engine; tools/sweep_loopspec exposes it on the command line.
 */

#ifndef LOOPSPEC_SPECULATION_SWEEP_HH
#define LOOPSPEC_SPECULATION_SWEEP_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "dataspec/data_profiler.hh"
#include "speculation/policy.hh"
#include "workloads/workload.hh"

namespace loopspec
{

/** One entry of a grid's policy axis. */
struct GridPolicy
{
    GridPolicy() = default;
    GridPolicy(SpecPolicy p, unsigned nest, DataMode dm,
               std::string lbl)
        : policy(p), nestLimit(nest), dataMode(dm),
          label(std::move(lbl))
    {
    }

    SpecPolicy policy = SpecPolicy::Str;
    /** The i in STR(i); ignored by IDLE/STR. */
    unsigned nestLimit = 3;
    /** Data-dependence treatment (docs/DATASPEC.md). Profiled/Full need
     *  the §4 profiler's live-in flags from the functional pass
     *  (single-CLS grids only); Conflicts/Full need the conflict-
     *  profile annotation, which is replay-derivable at any CLS. */
    DataMode dataMode = DataMode::None;
    /** Display label (mode suffix appended by name()); empty =
     *  specPolicyName(policy, nestLimit), or predictorName(predictor)
     *  for PRED entries. */
    std::string label;
    /** Scheme behind a SpecPolicy::Pred entry (the `predictors=` axis,
     *  docs/PREDICTORS.md); ignored by the paper policies. */
    PredictorConfig predictor;

    std::string name() const;
};

/** A `predictors=` axis entry: the conventional-baseline policy running
 *  @p spec (e.g. "gshare:12"), labelled with its canonical name. */
GridPolicy predictorGridPolicy(const std::string &spec);

/**
 * Declarative sweep grid. Cells are produced when both the policy and
 * the TU axes are non-empty; per-workload rows are always produced and
 * carry the ideal/dataSpec artifacts when requested.
 */
struct SweepGrid
{
    /** Workload axis (registry names); empty = empty sweep. */
    std::vector<std::string> workloads;
    /** CLS capacity axis; the first entry is traced live, the rest are
     *  derived by control-trace replay. */
    std::vector<size_t> clsSizes = {16};
    std::vector<GridPolicy> policies;
    std::vector<unsigned> tuCounts;
    /** Predictor axis: LET capacities backing the STR trip predictor
     *  (0 = unbounded, the §3 evaluation's assumption). */
    std::vector<size_t> letEntries = {0};
    /** Grid-wide spawn throttle (SpecConfig::spawnConfidenceBits):
     *  0 = off, the paper behaviour. */
    unsigned spawnConfidenceBits = 0;
    unsigned spawnConfidenceThreshold = 2;
    /** Grid-wide data-violation recovery penalty
     *  (SpecConfig::dataSquashCycles, the `datacost=` axis). */
    unsigned dataSquashCycles = 0;

    /** Collect the ideal ∞-TU TPC over the whole trace and over its
     *  first half per row (windowed replays of each CLS's recording). */
    bool ideal = false;
    /** Collect the §4 data-speculation report per row (single-CLS). */
    bool dataSpec = false;

    WorkloadScale scale;
    uint64_t maxInstrs = 0; //!< trace truncation (0 = run to Halt)
    /** Cross-check replay-derived recordings against direct passes
     *  (forwarded to runWorkload; fatal() on divergence). */
    bool checkReplay = false;
    /**
     * Non-empty = replay recorded control-trace containers from this
     * directory instead of executing the workloads (RunOptions::traceDir):
     * each workload name resolves to <traceDir>/<name>.lstrace, the
     * functional pass becomes an out-of-core streaming replay, and the
     * derived-CLS recordings re-stream the same file instead of
     * buffering a materialized ControlTrace. Grids needing operand values
     * (dataSpec, needsDataCorrectness) are fatal in this mode.
     */
    std::string traceDir;

    /** Cells per workload-CLS point (policies × TUs × LET sizes). */
    size_t configsPerRecording() const;
    /** Total simulator cells the grid requires. */
    size_t numCells() const;
    /** True when the grid produces simulator cells at all. */
    bool hasCells() const;
    /** True when any policy needs the §4 profiler's per-iteration
     *  live-in flags from the functional pass (Profiled/Full). */
    bool needsDataCorrectness() const;
    /** True when any policy needs the memory-dependence conflict
     *  annotation (Conflicts/Full) — and therefore the functional
     *  pass's MemAccessTrace sidecar. */
    bool needsConflictProfile() const;
};

/** Per-(workload × CLS) artifacts of a sweep. */
struct SweepRow
{
    std::string workload;
    size_t clsEntries = 0;
    uint64_t totalInstrs = 0;
    double idealTpc = 0.0;       //!< when SweepGrid::ideal
    double idealTpcPrefix = 0.0; //!< first half of the trace
    DataSpecReport dataSpec;     //!< when SweepGrid::dataSpec
};

/** One simulator cell: full grid coordinates plus the statistics. */
struct SweepCell
{
    uint32_t workloadIdx = 0;
    uint32_t clsIdx = 0;
    uint32_t policyIdx = 0;
    uint32_t tuIdx = 0;
    uint32_t letIdx = 0;
    SpecStats stats;
};

/**
 * Everything a sweep produces. Rows are workload-major then CLS; cells
 * are nested workload → CLS → policy → TU → LET, so iteration order —
 * and therefore floating-point aggregation order — matches the serial
 * per-figure loops the engine replaced.
 */
struct SweepResult
{
    SweepGrid grid; //!< the grid that produced this result
    std::vector<SweepRow> rows;
    std::vector<SweepCell> cells;

    // Dedup accounting: cellsRun >> recordingsProduced whenever the
    // configuration axes are non-trivial.
    uint64_t functionalPasses = 0;   //!< one per workload
    uint64_t recordingsProduced = 0; //!< one per (workload, CLS)
    uint64_t cellsRun = 0;

    double sweepSeconds = 0.0; //!< wall-clock of the whole sweep

    size_t rowIndex(size_t w, size_t c = 0) const;
    size_t cellIndex(size_t w, size_t c, size_t p, size_t t,
                     size_t l) const;
    const SweepRow &row(size_t w, size_t c = 0) const;
    const SpecStats &cell(size_t w, size_t c, size_t p, size_t t,
                          size_t l = 0) const;

    /**
     * Shared aggregation for the per-figure suite averages (the loops
     * previously copy-pasted across bench_fig5-8/bench_table2): mean of
     * @p fn over the workload axis at fixed other coordinates, in
     * workload order (so the floating-point sum is reproducible).
     */
    double meanCellOverWorkloads(size_t c, size_t p, size_t t, size_t l,
                                 double (*fn)(const SpecStats &)) const;
    double meanRowOverWorkloads(size_t c,
                                double (*fn)(const SweepRow &)) const;
    /** Geometric mean of positive fn(row) values (Figure 5's log-scale
     *  average); rows with fn(row) <= 0 are excluded. */
    double geomeanRowOverWorkloads(size_t c,
                                   double (*fn)(const SweepRow &)) const;

    /** Suite-average TPC at (policy p, TU t) — Figures 6/7. */
    double meanTpc(size_t p, size_t t, size_t c = 0, size_t l = 0) const;
    /** Suite-average hit percentage at (policy p, TU t) — Table 2. */
    double meanHitPct(size_t p, size_t t, size_t c = 0,
                      size_t l = 0) const;
};

/**
 * Set the paper's payoff configuration axes on @p grid: the five §3.1.2
 * policies (IDLE, STR, STR(1..3)) × {2,4,8,16} TUs with an unbounded
 * LET — the union of the Figure 6/7 and Table 2 grids. The single
 * definition behind bench_fig7 and sweep_loopspec's "paper" preset.
 */
void applyPaperAxes(SweepGrid *grid);

/**
 * Apply a `--grid` axis spec to @p grid: semicolon-separated key=value
 * pairs with comma-separated lists (policies | predictors | tus | cls |
 * let | spawnconf | ideal | dataspec | datacost), or the single preset
 * "paper" = applyPaperAxes(). `spawnconf=<bits>/<threshold>` (or
 * `spawnconf=off`) sets the grid-wide spawn throttle. `dataspec=` takes
 * either a single 0/1 (the legacy per-row §4 report switch) or a list
 * of data modes (none|live|mem|all) that crosses into the policy axis
 * once the whole spec is parsed — key order does not matter;
 * `datacost=<cycles>` sets the violation recovery penalty. Returns ""
 * on success, else a diagnostic — never fatal(), so the sweep service
 * can reject bad remote grids without dying (tools wrap it with
 * fatal() themselves).
 */
std::string applyGridSpec(const std::string &spec, SweepGrid *grid);

/**
 * Execute @p grid. @p jobs sizes the thread pool (0 = one per hardware
 * thread, 1 = fully inline serial). The result — rows, cells, and every
 * statistic in them — is identical for every jobs value.
 */
SweepResult runSpecSweep(const SweepGrid &grid, unsigned jobs = 0);

class RecordingIndex;
class ThreadPool;
struct LoopEventRecording;

/**
 * Stage 3 of runSpecSweep on pre-materialized recordings: fan the
 * configuration cross-product of @p grid out over @p pool (nullptr = a
 * transient pool of @p jobs threads, runSpecSweep's behaviour), one
 * pre-allocated slot per cell. @p recordings / @p indexes hold one
 * entry per (workload-major, CLS-minor) point. The sweep service runs
 * cells over cached immutable recordings through this exact code path,
 * which is what keeps served cells bit-identical to a direct sweep.
 */
void runSweepCells(const SweepGrid &grid,
                   const std::vector<const LoopEventRecording *> &recordings,
                   const std::vector<const RecordingIndex *> &indexes,
                   std::vector<SweepCell> *cells, ThreadPool *pool,
                   unsigned jobs);

/**
 * Consolidated machine-readable artifact (BENCH_specsim.json): the grid,
 * dedup accounting, every row and cell, and — when @p serial_seconds is
 * non-zero — the wall-clock speedup of the swept run over a serial one.
 */
void writeSweepJson(std::ostream &os, const SweepResult &result,
                    unsigned jobs, double serial_seconds = 0.0);

} // namespace loopspec

#endif // LOOPSPEC_SPECULATION_SWEEP_HH
