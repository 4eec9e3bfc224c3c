#include "speculation/sweep.hh"

#include <chrono>
#include <cmath>
#include <memory>
#include <ostream>
#include <utility>

#include "dataspec/conflict_profiler.hh"
#include "harness/runner.hh"
#include "loop/cls.hh"
#include "speculation/ideal_tpc.hh"
#include "speculation/spec_sim.hh"
#include "trace_io/replay_source.hh"
#include "trace_io/stream_reader.hh"
#include "trace_io/trace_codec.hh"
#include "tracegen/control_trace.hh"
#include "util/cli.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace loopspec
{

namespace
{

/** Policy-label suffix of a data mode (docs/DATASPEC.md). */
const char *
dataModeSuffix(DataMode mode)
{
    switch (mode) {
      case DataMode::Profiled:
        return "+data";
      case DataMode::Conflicts:
        return "+mem";
      case DataMode::Full:
        return "+all";
      default:
        return "";
    }
}

} // namespace

std::string
GridPolicy::name() const
{
    if (!label.empty())
        return label;
    std::string base = policy == SpecPolicy::Pred
                           ? predictorName(predictor)
                           : specPolicyName(policy, nestLimit);
    return base + dataModeSuffix(dataMode);
}

GridPolicy
predictorGridPolicy(const std::string &spec)
{
    GridPolicy gp;
    gp.policy = SpecPolicy::Pred;
    gp.predictor = parsePredictorSpec(spec);
    gp.label = predictorName(gp.predictor);
    return gp;
}

size_t
SweepGrid::configsPerRecording() const
{
    return policies.size() * tuCounts.size() * letEntries.size();
}

size_t
SweepGrid::numCells() const
{
    return workloads.size() * clsSizes.size() * configsPerRecording();
}

bool
SweepGrid::hasCells() const
{
    return numCells() > 0;
}

bool
SweepGrid::needsDataCorrectness() const
{
    for (const GridPolicy &p : policies) {
        if (p.dataMode == DataMode::Profiled ||
            p.dataMode == DataMode::Full)
            return true;
    }
    return false;
}

bool
SweepGrid::needsConflictProfile() const
{
    for (const GridPolicy &p : policies) {
        if (p.dataMode == DataMode::Conflicts ||
            p.dataMode == DataMode::Full)
            return true;
    }
    return false;
}

size_t
SweepResult::rowIndex(size_t w, size_t c) const
{
    LOOPSPEC_ASSERT(w < grid.workloads.size() && c < grid.clsSizes.size(),
                    "sweep row coordinate out of range");
    return w * grid.clsSizes.size() + c;
}

size_t
SweepResult::cellIndex(size_t w, size_t c, size_t p, size_t t,
                       size_t l) const
{
    LOOPSPEC_ASSERT(w < grid.workloads.size() &&
                        c < grid.clsSizes.size() &&
                        p < grid.policies.size() &&
                        t < grid.tuCounts.size() &&
                        l < grid.letEntries.size(),
                    "sweep cell coordinate out of range");
    return (((w * grid.clsSizes.size() + c) * grid.policies.size() + p) *
                grid.tuCounts.size() +
            t) *
               grid.letEntries.size() +
           l;
}

const SweepRow &
SweepResult::row(size_t w, size_t c) const
{
    return rows[rowIndex(w, c)];
}

const SpecStats &
SweepResult::cell(size_t w, size_t c, size_t p, size_t t, size_t l) const
{
    return cells[cellIndex(w, c, p, t, l)].stats;
}

double
SweepResult::meanCellOverWorkloads(size_t c, size_t p, size_t t, size_t l,
                                   double (*fn)(const SpecStats &)) const
{
    const size_t w_count = grid.workloads.size();
    if (w_count == 0)
        return 0.0;
    double sum = 0.0;
    for (size_t w = 0; w < w_count; ++w)
        sum += fn(cell(w, c, p, t, l));
    return sum / static_cast<double>(w_count);
}

double
SweepResult::meanRowOverWorkloads(size_t c,
                                  double (*fn)(const SweepRow &)) const
{
    const size_t w_count = grid.workloads.size();
    if (w_count == 0)
        return 0.0;
    double sum = 0.0;
    for (size_t w = 0; w < w_count; ++w)
        sum += fn(row(w, c));
    return sum / static_cast<double>(w_count);
}

double
SweepResult::geomeanRowOverWorkloads(size_t c,
                                     double (*fn)(const SweepRow &)) const
{
    double log_sum = 0.0;
    unsigned count = 0;
    for (size_t w = 0; w < grid.workloads.size(); ++w) {
        double v = fn(row(w, c));
        if (v > 0.0) {
            log_sum += std::log10(v);
            ++count;
        }
    }
    return count ? std::pow(10.0, log_sum / count) : 0.0;
}

double
SweepResult::meanTpc(size_t p, size_t t, size_t c, size_t l) const
{
    return meanCellOverWorkloads(
        c, p, t, l, +[](const SpecStats &s) { return s.tpc(); });
}

double
SweepResult::meanHitPct(size_t p, size_t t, size_t c, size_t l) const
{
    return meanCellOverWorkloads(
        c, p, t, l, +[](const SpecStats &s) { return 100.0 * s.hitRatio(); });
}

namespace
{

/** --check-replay support: a control-trace-derived recording, and the
 *  ideal rows replayed from it, must be indistinguishable from a direct
 *  functional pass at the same CLS size (which, run with checkReplay,
 *  cross-checks its own derivations too). */
void
checkDerivedCls(const std::string &workload, size_t cls,
                const WorkloadArtifacts &direct,
                const LoopEventRecording &derived, const SweepRow &row)
{
    std::string err = compareRecordings(direct.recording, derived);
    if (!err.empty()) {
        fatal("%s: recording derived at CLS %zu diverges from a direct "
              "functional pass: %s",
              workload.c_str(), cls, err.c_str());
    }
    if (direct.idealTpc != row.idealTpc ||
        direct.idealTpcPrefix != row.idealTpcPrefix) {
        fatal("%s: ideal TPC derived at CLS %zu diverges from a direct "
              "functional pass",
              workload.c_str(), cls);
    }
}

} // namespace

void
applyPaperAxes(SweepGrid *grid)
{
    grid->policies = {{SpecPolicy::Idle, 3, DataMode::None, "IDLE"},
                      {SpecPolicy::Str, 3, DataMode::None, "STR"},
                      {SpecPolicy::StrI, 1, DataMode::None, "STR(1)"},
                      {SpecPolicy::StrI, 2, DataMode::None, "STR(2)"},
                      {SpecPolicy::StrI, 3, DataMode::None, "STR(3)"}};
    grid->tuCounts = {2, 4, 8, 16};
    grid->letEntries = {0};
}

namespace
{

/** Grid-axis policy entry: "idle" / "str" / "strN", with an optional
 *  data-mode suffix — "+data" (profiled live-in correctness), "+mem"
 *  (conflict violations) or "+all" (both). */
std::string
tryParseGridPolicy(std::string text, GridPolicy *gp)
{
    static const std::pair<const char *, DataMode> suffixes[] = {
        {"+data", DataMode::Profiled},
        {"+mem", DataMode::Conflicts},
        {"+all", DataMode::Full},
    };
    for (const auto &[suffix, mode] : suffixes) {
        size_t len = std::string(suffix).size();
        if (text.size() > len &&
            text.compare(text.size() - len, len, suffix) == 0) {
            gp->dataMode = mode;
            text.resize(text.size() - len);
            break;
        }
    }
    return tryParseSpecPolicy(text, &gp->policy, &gp->nestLimit);
}

/** Grid-axis number with the axis name prepended to any diagnostic. */
std::string
tryParseGridU64(const std::string &text, const char *what, uint64_t *out)
{
    std::string err = tryParseUint(text, out);
    return err.empty() ? err : std::string(what) + ": " + err;
}

} // namespace

std::string
applyGridSpec(const std::string &spec, SweepGrid *grid)
{
    if (spec == "paper") {
        applyPaperAxes(grid); // shared with bench_fig7
        return "";
    }
    // dataspec= mode lists collect here and cross into the policy axis
    // only after every key is parsed, so "dataspec=...;policies=..."
    // and "policies=...;dataspec=..." produce the same grid.
    std::vector<DataMode> data_modes;
    bool have_data_modes = false;
    for (const std::string &pair : splitOn(spec, ';')) {
        size_t eq = pair.find('=');
        if (eq == std::string::npos)
            return "grid: expected key=value, got '" + pair + "'";
        const std::string key = pair.substr(0, eq);
        const std::vector<std::string> vals =
            splitList(pair.substr(eq + 1));
        if (vals.empty())
            return "grid: empty value list for '" + key + "'";
        std::string err;
        if (key == "policies") {
            // Replaces earlier policies= entries but keeps predictors=
            // ones (and vice versa), so the two sub-axes compose in
            // either key order.
            std::vector<GridPolicy> kept;
            for (GridPolicy &gp : grid->policies) {
                if (gp.policy == SpecPolicy::Pred)
                    kept.push_back(std::move(gp));
            }
            grid->policies = std::move(kept);
            for (const auto &v : vals) {
                GridPolicy gp;
                err = tryParseGridPolicy(v, &gp);
                if (!err.empty())
                    return "grid: " + err;
                grid->policies.push_back(std::move(gp));
            }
        } else if (key == "predictors") {
            std::vector<GridPolicy> kept;
            for (GridPolicy &gp : grid->policies) {
                if (gp.policy != SpecPolicy::Pred)
                    kept.push_back(std::move(gp));
            }
            grid->policies = std::move(kept);
            for (const auto &v : vals) {
                GridPolicy gp;
                gp.policy = SpecPolicy::Pred;
                err = tryParsePredictorSpec(v, &gp.predictor);
                if (!err.empty())
                    return "grid: " + err;
                gp.label = predictorName(gp.predictor);
                grid->policies.push_back(std::move(gp));
            }
        } else if (key == "tus") {
            grid->tuCounts.clear();
            for (const auto &v : vals) {
                uint64_t n = 0;
                err = tryParseGridU64(v, "grid tus", &n);
                if (!err.empty())
                    return err;
                if (n < 1)
                    return "grid: TU count must be >= 1";
                grid->tuCounts.push_back(static_cast<unsigned>(n));
            }
        } else if (key == "cls") {
            grid->clsSizes.clear();
            for (const auto &v : vals) {
                uint64_t n = 0;
                err = tryParseGridU64(v, "grid cls", &n);
                if (!err.empty())
                    return err;
                if (n < 1 || n > clsMaxCapacity)
                    return strprintf(
                        "grid: CLS size %llu outside [1, %zu]",
                        static_cast<unsigned long long>(n),
                        clsMaxCapacity);
                grid->clsSizes.push_back(static_cast<size_t>(n));
            }
        } else if (key == "let") {
            grid->letEntries.clear();
            for (const auto &v : vals) {
                uint64_t n = 0;
                err = tryParseGridU64(v, "grid let", &n);
                if (!err.empty())
                    return err;
                grid->letEntries.push_back(static_cast<size_t>(n));
            }
        } else if (key == "spawnconf") {
            // Grid-wide spawn throttle: a single "bits/threshold"
            // value (not a list), or "off"/"0" to disable.
            if (vals.size() != 1)
                return "grid: spawnconf wants one bits/threshold value "
                       "(e.g. spawnconf=2/2) or 'off'";
            if (vals[0] == "off" || vals[0] == "0") {
                grid->spawnConfidenceBits = 0;
            } else {
                size_t slash = vals[0].find('/');
                if (slash == std::string::npos)
                    return "grid: spawnconf wants bits/threshold "
                           "(e.g. spawnconf=2/2) or 'off'";
                uint64_t bits = 0;
                uint64_t thr = 0;
                err = tryParseGridU64(vals[0].substr(0, slash),
                                      "grid spawnconf bits", &bits);
                if (!err.empty())
                    return err;
                err = tryParseGridU64(vals[0].substr(slash + 1),
                                      "grid spawnconf threshold", &thr);
                if (!err.empty())
                    return err;
                if (bits < 1 || bits > 8)
                    return "grid: spawnconf bits outside [1, 8]";
                if (thr < 1 || thr >= (uint64_t(1) << bits))
                    return strprintf(
                        "grid: spawnconf threshold %llu outside "
                        "[1, %llu]",
                        static_cast<unsigned long long>(thr),
                        static_cast<unsigned long long>(
                            (uint64_t(1) << bits) - 1));
                grid->spawnConfidenceBits =
                    static_cast<unsigned>(bits);
                grid->spawnConfidenceThreshold =
                    static_cast<unsigned>(thr);
            }
        } else if (key == "ideal") {
            uint64_t n = 0;
            err = tryParseGridU64(vals[0], "grid ideal", &n);
            if (!err.empty())
                return err;
            grid->ideal = n != 0;
        } else if (key == "dataspec") {
            // A single 0/1 is the legacy per-row §4 report switch; mode
            // tokens become a data-mode axis crossed into the policies.
            if (vals.size() == 1 && (vals[0] == "0" || vals[0] == "1")) {
                grid->dataSpec = vals[0] == "1";
            } else {
                data_modes.clear();
                for (const auto &v : vals) {
                    if (v == "none")
                        data_modes.push_back(DataMode::None);
                    else if (v == "live")
                        data_modes.push_back(DataMode::Profiled);
                    else if (v == "mem")
                        data_modes.push_back(DataMode::Conflicts);
                    else if (v == "all")
                        data_modes.push_back(DataMode::Full);
                    else
                        return "grid: bad dataspec mode '" + v +
                               "' (want none|live|mem|all, or a "
                               "single 0/1)";
                }
                have_data_modes = true;
            }
        } else if (key == "datacost") {
            if (vals.size() != 1)
                return "grid: datacost wants one cycle count "
                       "(e.g. datacost=8)";
            uint64_t n = 0;
            err = tryParseGridU64(vals[0], "grid datacost", &n);
            if (!err.empty())
                return err;
            if (n > 1000000)
                return "grid: datacost outside [0, 1000000]";
            grid->dataSquashCycles = static_cast<unsigned>(n);
        } else {
            return "grid: unknown axis '" + key +
                   "' (want policies|predictors|tus|cls|let|spawnconf|"
                   "ideal|dataspec|datacost)";
        }
    }
    if (have_data_modes) {
        // Cross the data-mode axis into the policy axis: each policy
        // entry fans out over the modes (policy-major, so a policy's
        // modes sit side by side in reports), replacing any data mode
        // a "+data"/"+mem"/"+all" suffix already set.
        std::vector<GridPolicy> crossed;
        crossed.reserve(grid->policies.size() * data_modes.size());
        for (const GridPolicy &gp : grid->policies) {
            for (DataMode mode : data_modes) {
                GridPolicy copy = gp;
                copy.dataMode = mode;
                if (!copy.label.empty())
                    copy.label += dataModeSuffix(mode);
                crossed.push_back(std::move(copy));
            }
        }
        grid->policies = std::move(crossed);
    }
    return "";
}

SweepResult
runSpecSweep(const SweepGrid &grid, unsigned jobs)
{
    using clk = std::chrono::steady_clock;
    const auto t0 = clk::now();
    const auto elapsed = [&t0] {
        return std::chrono::duration<double>(clk::now() - t0).count();
    };

    SweepResult out;
    out.grid = grid;

    const size_t num_w = grid.workloads.size();
    if (num_w == 0) {
        out.sweepSeconds = elapsed();
        return out;
    }
    const size_t num_c = grid.clsSizes.size();
    if (num_c == 0)
        fatal("sweep grid needs at least one CLS size");
    const bool cells = grid.hasCells();
    const bool data = grid.needsDataCorrectness();
    const bool conflicts = cells && grid.needsConflictProfile();
    // Live-in flags read register values, which only the functional
    // pass sees — single CLS only. Conflict profiles are a pure
    // function of (recording, memory sidecar) and re-derive at every
    // CLS, so Conflicts-only grids stay multi-CLS legal.
    if ((data || grid.dataSpec) && num_c > 1) {
        fatal("data-speculation artifacts read operand values and cannot "
              "be derived by control-trace replay; use a single-CLS grid");
    }
    const bool from_traces = !grid.traceDir.empty();
    if (from_traces && (data || conflicts || grid.dataSpec)) {
        fatal("data-speculation artifacts read operand values, which a "
              "control-trace replay (--trace-dir) cannot provide");
    }

    out.rows.resize(num_w * num_c);
    std::vector<LoopEventRecording> recordings(cells ? num_w * num_c : 0);

    RunOptions opts;
    opts.scale = grid.scale;
    opts.maxInstrs = grid.maxInstrs;
    opts.checkReplay = grid.checkReplay;
    opts.clsEntries = grid.clsSizes[0];
    opts.traceDir = grid.traceDir;

    // Extra CLS sizes only matter when something is derived per size (a
    // recording for cells, or the ideal artifacts); rows-only grids copy
    // the live pass and need no control trace. In trace-dir mode the
    // on-disk container *is* the control trace: derived sizes re-stream
    // it instead of buffering a materialized copy.
    const bool derive_cls = num_c > 1 && (cells || grid.ideal);

    CollectFlags flags;
    flags.recording = cells;
    flags.ideal = grid.ideal;
    flags.dataSpec = grid.dataSpec;
    flags.dataCorrectness = data;
    flags.memTrace = conflicts;
    flags.controlTrace = derive_cls && !from_traces;

    // Stage 1: one functional pass per workload; every further CLS size
    // is derived from that pass's control trace inside the same work
    // item, so the trace is freed before the worker moves on.
    parallelFor(jobs, num_w, [&](uint64_t w) {
        WorkloadArtifacts art =
            runWorkload(grid.workloads[w], opts, flags);
        for (size_t c = 0; c < num_c; ++c) {
            SweepRow &row = out.rows[w * num_c + c];
            row.workload = grid.workloads[w];
            row.clsEntries = grid.clsSizes[c];
            row.totalInstrs = art.totalInstrs;
        }
        SweepRow &row0 = out.rows[w * num_c];
        row0.idealTpc = art.idealTpc;
        row0.idealTpcPrefix = art.idealTpcPrefix;
        row0.dataSpec = art.dataSpec;
        if (cells)
            recordings[w * num_c] = std::move(art.recording);

        if (derive_cls) {
            // Every further size re-walks the pass's control stream in
            // one interleaved walk. Trace-dir mode re-streams the
            // container (its pumps keep their own bounded-buffer cursors
            // over the shared fd) rather than materializing it.
            std::unique_ptr<TraceFileStreamer> streamer;
            if (from_traces) {
                std::string err;
                streamer = TraceFileStreamer::open(
                    traceFilePath(grid.traceDir, grid.workloads[w],
                                  kControlTraceExt),
                    StreamConfig{}, &err);
                if (!streamer)
                    fatal("%s", err.c_str());
            }
            std::vector<LoopEventRecording> derived;
            std::string err = recordAtClsSizes(
                {grid.clsSizes.begin() + 1, grid.clsSizes.end()},
                [&](TraceObserver &det) -> std::unique_ptr<ReplaySource> {
                    if (from_traces)
                        return std::make_unique<StreamedControlSource>(
                            *streamer, det, grid.maxInstrs);
                    return std::make_unique<ControlTraceSource>(
                        art.controlTrace, det);
                },
                &derived);
            if (!err.empty())
                fatal("%s", err.c_str());

            // The ideal rows are windowed replays of each recording.
            for (size_t c = 1; c < num_c; ++c) {
                SweepRow &row = out.rows[w * num_c + c];
                LoopEventRecording &rec = derived[c - 1];
                if (grid.ideal) {
                    const IdealTpcPair ideal = idealTpcPair(rec);
                    row.idealTpc = ideal.full;
                    row.idealTpcPrefix = ideal.prefix;
                }
                if (grid.checkReplay) {
                    RunOptions direct = opts;
                    direct.clsEntries = grid.clsSizes[c];
                    CollectFlags direct_flags;
                    direct_flags.recording = true;
                    direct_flags.ideal = grid.ideal;
                    checkDerivedCls(
                        grid.workloads[w], grid.clsSizes[c],
                        runWorkload(grid.workloads[w], direct,
                                    direct_flags),
                        rec, row);
                }
                if (cells)
                    recordings[w * num_c + c] = std::move(rec);
            }
        }

        // Conflicts/Full: annotate every CLS's recording with the
        // cross-iteration dependence sources profiled from the shared,
        // CLS-independent memory sidecar of the single functional pass.
        if (conflicts) {
            for (size_t c = 0; c < num_c; ++c) {
                LoopEventRecording &r = recordings[w * num_c + c];
                annotateConflicts(&r,
                                  profileConflicts(r, art.memTrace));
            }
        }
    });
    out.functionalPasses = num_w;
    out.recordingsProduced = cells ? num_w * num_c : 0;

    if (!cells) {
        out.sweepSeconds = elapsed();
        return out;
    }

    // Stage 2: one shared read-only index per recording — every
    // configuration over a recording reuses the same segment/parent
    // tables instead of rebuilding them per simulator.
    std::vector<std::unique_ptr<RecordingIndex>> indexes(num_w * num_c);
    parallelFor(jobs, indexes.size(), [&](uint64_t i) {
        indexes[i] = std::make_unique<RecordingIndex>(recordings[i]);
    });

    // Stage 3: fan the configuration cross-product out with one
    // pre-allocated result slot per cell.
    std::vector<const LoopEventRecording *> rec_ptrs(recordings.size());
    std::vector<const RecordingIndex *> idx_ptrs(indexes.size());
    for (size_t i = 0; i < recordings.size(); ++i) {
        rec_ptrs[i] = &recordings[i];
        idx_ptrs[i] = indexes[i].get();
    }
    runSweepCells(grid, rec_ptrs, idx_ptrs, &out.cells, nullptr, jobs);
    out.cellsRun = out.cells.size();
    out.sweepSeconds = elapsed();
    return out;
}

void
runSweepCells(const SweepGrid &grid,
              const std::vector<const LoopEventRecording *> &recordings,
              const std::vector<const RecordingIndex *> &indexes,
              std::vector<SweepCell> *cells, ThreadPool *pool,
              unsigned jobs)
{
    const size_t num_c = grid.clsSizes.size();
    const size_t num_p = grid.policies.size();
    const size_t num_t = grid.tuCounts.size();
    const size_t num_l = grid.letEntries.size();
    LOOPSPEC_ASSERT(recordings.size() ==
                            grid.workloads.size() * num_c &&
                        indexes.size() == recordings.size(),
                    "one recording+index per (workload, CLS) point");

    // Decoding the flat index keeps cell order — and so aggregation
    // order — independent of scheduling.
    cells->resize(grid.numCells());
    const auto run_cell = [&](uint64_t i) {
        size_t rem = i;
        const size_t l = rem % num_l;
        rem /= num_l;
        const size_t t = rem % num_t;
        rem /= num_t;
        const size_t p = rem % num_p;
        rem /= num_p;
        const size_t c = rem % num_c;
        const size_t w = rem / num_c;

        SweepCell &cell = (*cells)[i];
        cell.workloadIdx = static_cast<uint32_t>(w);
        cell.clsIdx = static_cast<uint32_t>(c);
        cell.policyIdx = static_cast<uint32_t>(p);
        cell.tuIdx = static_cast<uint32_t>(t);
        cell.letIdx = static_cast<uint32_t>(l);

        const GridPolicy &gp = grid.policies[p];
        SpecConfig cfg;
        cfg.numTUs = grid.tuCounts[t];
        cfg.policy = gp.policy;
        cfg.nestLimit = gp.nestLimit;
        cfg.dataMode = gp.dataMode;
        cfg.letEntries = grid.letEntries[l];
        cfg.predictor = gp.predictor;
        cfg.spawnConfidenceBits = grid.spawnConfidenceBits;
        cfg.spawnConfidenceThreshold = grid.spawnConfidenceThreshold;
        cfg.dataSquashCycles = grid.dataSquashCycles;

        const size_t rec_idx = w * num_c + c;
        ThreadSpecSimulator sim(*recordings[rec_idx], *indexes[rec_idx],
                                cfg);
        cell.stats = sim.run();
    };
    if (pool)
        pool->parallelFor(cells->size(), run_cell);
    else
        parallelFor(jobs, cells->size(), run_cell);
}

namespace
{

const char *
dataModeName(DataMode mode)
{
    switch (mode) {
      case DataMode::Profiled:
        return "profiled";
      case DataMode::Conflicts:
        return "conflicts";
      case DataMode::Full:
        return "full";
      default:
        return "none";
    }
}

void
writeStringList(std::ostream &os, const std::vector<std::string> &items)
{
    os << "[";
    for (size_t i = 0; i < items.size(); ++i)
        os << (i ? ", " : "") << "\"" << items[i] << "\"";
    os << "]";
}

template <typename T>
void
writeNumberList(std::ostream &os, const std::vector<T> &items)
{
    os << "[";
    for (size_t i = 0; i < items.size(); ++i)
        os << (i ? ", " : "") << static_cast<uint64_t>(items[i]);
    os << "]";
}

} // namespace

void
writeSweepJson(std::ostream &os, const SweepResult &result, unsigned jobs,
               double serial_seconds)
{
    const SweepGrid &grid = result.grid;
    const auto old_precision = os.precision(12);

    os << "{\n  \"grid\": {\n    \"workloads\": ";
    writeStringList(os, grid.workloads);
    os << ",\n    \"cls\": ";
    writeNumberList(os, grid.clsSizes);
    std::vector<std::string> policy_names;
    for (const GridPolicy &p : grid.policies)
        policy_names.push_back(p.name());
    os << ",\n    \"policies\": ";
    writeStringList(os, policy_names);
    os << ",\n    \"tus\": ";
    writeNumberList(os, grid.tuCounts);
    os << ",\n    \"let\": ";
    writeNumberList(os, grid.letEntries);
    os << ",\n    \"spawn_conf_bits\": " << grid.spawnConfidenceBits
       << ",\n    \"spawn_conf_threshold\": "
       << grid.spawnConfidenceThreshold;
    // Emitted only when set: grids without data speculation must stay
    // byte-identical to the pre-dataspec artifact format.
    if (grid.dataSquashCycles != 0)
        os << ",\n    \"data_squash_cycles\": " << grid.dataSquashCycles;
    os << ",\n    \"ideal\": " << (grid.ideal ? "true" : "false")
       << ",\n    \"dataspec\": " << (grid.dataSpec ? "true" : "false")
       << ",\n    \"scale\": " << grid.scale.factor
       << ",\n    \"max_instrs\": " << grid.maxInstrs << "\n  },\n";

    os << "  \"jobs\": " << jobs
       << ",\n  \"functional_passes\": " << result.functionalPasses
       << ",\n  \"recordings_produced\": " << result.recordingsProduced
       << ",\n  \"cells_run\": " << result.cellsRun << ",\n";

    os << "  \"rows\": [\n";
    for (size_t i = 0; i < result.rows.size(); ++i) {
        const SweepRow &row = result.rows[i];
        os << "    {\"workload\": \"" << row.workload
           << "\", \"cls\": " << row.clsEntries
           << ", \"total_instrs\": " << row.totalInstrs;
        if (grid.ideal) {
            os << ", \"ideal_tpc\": " << row.idealTpc
               << ", \"ideal_tpc_prefix\": " << row.idealTpcPrefix;
        }
        if (grid.dataSpec) {
            os << ", \"same_path_pct\": " << row.dataSpec.samePathPct()
               << ", \"all_data_pct\": " << row.dataSpec.allDataPct();
        }
        os << "}" << (i + 1 < result.rows.size() ? "," : "") << "\n";
    }
    os << "  ],\n";

    os << "  \"cells\": [\n";
    for (size_t i = 0; i < result.cells.size(); ++i) {
        const SweepCell &cell = result.cells[i];
        const SpecStats &s = cell.stats;
        os << "    {\"workload\": \""
           << grid.workloads[cell.workloadIdx]
           << "\", \"cls\": " << grid.clsSizes[cell.clsIdx]
           << ", \"policy\": \"" << grid.policies[cell.policyIdx].name()
           << "\", \"data_mode\": \""
           << dataModeName(grid.policies[cell.policyIdx].dataMode)
           << "\", \"tus\": " << grid.tuCounts[cell.tuIdx]
           << ", \"let\": " << grid.letEntries[cell.letIdx]
           << ", \"tpc\": " << s.tpc()
           << ", \"hit_pct\": " << 100.0 * s.hitRatio()
           << ", \"spec_events\": " << s.specEvents
           << ", \"threads_per_spec\": " << s.threadsPerSpec()
           << ", \"instr_to_verif\": " << s.avgInstrToVerif()
           << ", \"threads_verified\": " << s.threadsVerified
           << ", \"threads_squashed\": " << s.threadsSquashed
           << ", \"nest_rule_squashes\": " << s.squashedByNestRule
           << ", \"spawns_throttled\": " << s.spawnsThrottled
           << ", \"data_misses\": " << s.dataMisses;
        // Conditional for the same byte-identity reason as above.
        if (grid.needsConflictProfile())
            os << ", \"conflict_squashes\": " << s.conflictSquashes;
        os << ", \"cycles\": " << s.cycles
           << ", \"total_instrs\": " << s.totalInstrs << "}"
           << (i + 1 < result.cells.size() ? "," : "") << "\n";
    }
    os << "  ],\n";

    os << "  \"wall\": {\"swept_seconds\": " << result.sweepSeconds;
    if (serial_seconds > 0.0) {
        os << ", \"serial_seconds\": " << serial_seconds
           << ", \"speedup_vs_serial\": "
           << (result.sweepSeconds > 0.0
                   ? serial_seconds / result.sweepSeconds
                   : 0.0);
    }
    os << "}\n}\n";
    os.precision(old_precision);
}

} // namespace loopspec
