#include "service/sweep_service.hh"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "dataspec/conflict_profiler.hh"
#include "harness/runner.hh"
#include "loop/cls.hh"
#include "speculation/ideal_tpc.hh"
#include "trace_io/replay_source.hh"
#include "trace_io/trace_codec.hh"
#include "util/cli.hh"
#include "util/logging.hh"
#include "workloads/workload.hh"

namespace loopspec
{

SweepService::SweepService(const SweepServiceConfig &config)
    : cfg(config), cache(config.cacheBytes), pool(config.jobs)
{
    // A bad --trace-dir is a server configuration error: fail at
    // startup (fatal is fine here — no remote input involved).
    if (!cfg.traceDir.empty())
        traceWorkloads = traceDirWorkloads(cfg.traceDir);
}

std::string
SweepService::requestToGrid(const SweepRequest &req, SweepGrid *grid,
                            unsigned *jobs_echo) const
{
    std::string err;

    // Mirror parseRunOptions defaults and validation, through the same
    // tryParse* primitives, so a raw flag string parses to the exact
    // value the CLI would produce (including the double bit pattern
    // behind --scale).
    double scale = 1.0;
    if (!req.scale.empty()) {
        err = tryParseDouble(req.scale, &scale);
        if (!err.empty())
            return err + " for scale";
    }
    if (!(scale > 0.0) || !std::isfinite(scale))
        return "scale must be positive";

    uint64_t cls = 16;
    if (!req.cls.empty()) {
        err = tryParseUint(req.cls, &cls);
        if (!err.empty())
            return err + " for cls";
    }

    uint64_t max_instrs = 0;
    if (!req.maxInstrs.empty()) {
        err = tryParseUint(req.maxInstrs, &max_instrs);
        if (!err.empty())
            return err + " for max-instrs";
    }

    uint64_t jobs = 0;
    if (!req.jobs.empty()) {
        err = tryParseUint(req.jobs, &jobs);
        if (!err.empty())
            return err + " for jobs";
        if (jobs > 4096)
            return "jobs out of range";
    }
    *jobs_echo = static_cast<unsigned>(jobs);

    SweepGrid g;
    g.scale.factor = scale;
    g.clsSizes = {static_cast<size_t>(cls)};
    g.maxInstrs = max_instrs;
    g.traceDir = req.traceDir;
    g.workloads = splitList(req.benchmarks);
    if (g.workloads.empty())
        g.workloads =
            req.traceDir.empty() ? workloadNames() : traceWorkloads;

    err = applyGridSpec(req.grid.empty() ? "paper" : req.grid, &g);
    if (!err.empty())
        return err;

    err = validateGrid(g);
    if (!err.empty())
        return err;
    *grid = std::move(g);
    return "";
}

std::string
SweepService::validateGrid(const SweepGrid &grid) const
{
    if (grid.checkReplay)
        return "check-replay is not supported by the sweep service "
               "(divergence is fatal, not an error response)";

    // Requests may only read the directory this server was started to
    // serve: arbitrary client paths would turn the daemon into a file
    // probe.
    if (!grid.traceDir.empty() && grid.traceDir != cfg.traceDir)
        return "trace-dir '" + grid.traceDir +
               "' is not served by this server";

    if (grid.clsSizes.empty())
        return "sweep grid needs at least one CLS size";
    for (size_t cls : grid.clsSizes) {
        if (cls < 1 || cls > clsMaxCapacity)
            return strprintf("CLS size %zu outside [1, %zu]", cls,
                             clsMaxCapacity);
    }
    for (unsigned tu : grid.tuCounts) {
        if (tu < 1)
            return "TU count must be >= 1";
    }

    const bool data = grid.needsDataCorrectness();
    if ((data || grid.dataSpec) && grid.clsSizes.size() > 1)
        return "data-speculation artifacts cannot be derived by "
               "control-trace replay; use a single-CLS grid";
    if ((data || grid.dataSpec || grid.needsConflictProfile()) &&
        !grid.traceDir.empty())
        return "data-speculation artifacts need operand values, which "
               "a control-trace replay cannot provide";

    for (const std::string &w : grid.workloads) {
        if (grid.traceDir.empty()) {
            if (!isKnownWorkload(w))
                return "unknown workload '" + w + "'";
        } else if (std::find(traceWorkloads.begin(),
                             traceWorkloads.end(),
                             w) == traceWorkloads.end()) {
            return "workload '" + w +
                   "' has no trace in the served directory";
        }
    }
    return "";
}

std::string
SweepService::materializeWorkload(
    const SweepGrid &grid, size_t w,
    std::vector<std::shared_ptr<const CachedRecording>> *recs,
    std::vector<SweepRow> *rows)
{
    const std::string &name = grid.workloads[w];
    const size_t num_c = grid.clsSizes.size();
    const bool cells = grid.hasCells();
    const bool from_traces = !grid.traceDir.empty();
    const std::string src = from_traces ? grid.traceDir : "run";

    // Operand-dependent needs (docs/DATASPEC.md): live-in annotations
    // must come from a functional pass (single-CLS, validateGrid);
    // conflict annotations re-derive per CLS from the cached
    // memory-access sidecar; the §4 report is a per-workload row
    // artifact. Annotated recordings are keyed apart from plain ones.
    const bool need_data = grid.needsDataCorrectness();
    const bool conflicts = cells && grid.needsConflictProfile();
    const bool need_report = grid.dataSpec;
    std::string ann;
    if (need_data)
        ann += "l";
    if (conflicts)
        ann += "m";

    // 1. Recording lookups — a fully warm cells-only workload needs no
    // control trace and no functional pass at all.
    std::vector<size_t> missing;
    if (cells) {
        for (size_t c = 0; c < num_c; ++c) {
            (*recs)[c] = cache.getRecording(RecordingCache::recordingKey(
                name, grid.scale.factor, grid.maxInstrs, src,
                grid.clsSizes[c], ann));
            if (!(*recs)[c])
                missing.push_back(c);
        }
    }

    std::shared_ptr<const CachedDataReport> dsrep;
    if (need_report) {
        dsrep = cache.getDataReport(RecordingCache::dataReportKey(
            name, grid.scale.factor, grid.maxInstrs, src));
    }
    std::shared_ptr<const CachedMemTrace> mt;
    if (conflicts && !missing.empty()) {
        mt = cache.getMemTrace(RecordingCache::memTraceKey(
            name, grid.scale.factor, grid.maxInstrs, src));
    }

    // A live-in-annotated recording cannot be derived by replay: when
    // it is missing (single CLS), the functional pass produces it
    // directly and the replay stage below has nothing left to do.
    const bool pass_recording = need_data && !missing.empty();

    // Rows-only grids still need totalInstrs, which the trace carries;
    // their ideal rows need a recording per CLS, derived from it too.
    const bool need_trace =
        !cells || (!missing.empty() && !pass_recording);

    std::shared_ptr<const CachedControlTrace> ct;
    const std::string tkey = RecordingCache::traceKey(
        name, grid.scale.factor, grid.maxInstrs, src);
    if (need_trace)
        ct = cache.getTrace(tkey);

    // 2a. One functional pass covers every operand-dependent miss
    // (exactly what runSpecSweep's stage 1 would run), its products
    // frozen into the cache so the next data-speculation request over
    // this workload is served without executing it.
    const bool live_pass = pass_recording || (need_report && !dsrep) ||
                           (conflicts && !missing.empty() && !mt);
    if (live_pass) {
        RunOptions opts;
        opts.scale = grid.scale;
        opts.maxInstrs = grid.maxInstrs;
        opts.clsEntries = grid.clsSizes[0];
        CollectFlags flags;
        flags.recording = pass_recording;
        flags.dataCorrectness = pass_recording;
        flags.dataSpec = need_report;
        flags.memTrace = conflicts && !mt;
        flags.controlTrace = need_trace && !ct;
        WorkloadArtifacts art = runWorkload(name, opts, flags);
        if (flags.memTrace) {
            auto built = std::make_shared<CachedMemTrace>();
            built->trace = std::move(art.memTrace);
            mt = cache.putMemTrace(
                RecordingCache::memTraceKey(name, grid.scale.factor,
                                            grid.maxInstrs, src),
                std::move(built));
        }
        if (need_report || pass_recording) {
            auto built = std::make_shared<CachedDataReport>();
            built->report = art.dataSpec;
            dsrep = cache.putDataReport(
                RecordingCache::dataReportKey(name, grid.scale.factor,
                                              grid.maxInstrs, src),
                std::move(built));
        }
        if (flags.controlTrace) {
            auto built = std::make_shared<CachedControlTrace>();
            built->trace = std::move(art.controlTrace);
            ct = cache.putTrace(tkey, std::move(built));
        }
        if (pass_recording) {
            LoopEventRecording r = std::move(art.recording);
            if (conflicts)
                annotateConflicts(&r, profileConflicts(r, mt->trace));
            (*recs)[0] = cache.putRecording(
                RecordingCache::recordingKey(name, grid.scale.factor,
                                             grid.maxInstrs, src,
                                             grid.clsSizes[0], ann),
                std::make_shared<CachedRecording>(std::move(r)));
            missing.clear();
        }
    }

    // 2b. Get-or-build the control trace.
    if (need_trace) {
        if (!ct) {
            auto built = std::make_shared<CachedControlTrace>();
            if (from_traces) {
                std::string err = loadControlTraceFile(
                    traceFilePath(grid.traceDir, name, kControlTraceExt),
                    &built->trace);
                if (!err.empty())
                    return name + ": " + err;
            } else {
                RunOptions opts;
                opts.scale = grid.scale;
                opts.maxInstrs = grid.maxInstrs;
                opts.clsEntries = grid.clsSizes[0];
                CollectFlags flags;
                flags.controlTrace = true;
                built->trace =
                    std::move(runWorkload(name, opts, flags)
                                  .controlTrace);
            }
            ct = cache.putTrace(tkey, std::move(built));
        }
    }

    // The window actually simulated: in-process traces are recorded
    // already truncated; a served container is clamped here exactly
    // like runWorkloadFromTrace clamps its streamer.
    uint64_t total = 0;
    if (ct) {
        total = ct->trace.totalInstrs;
        if (grid.maxInstrs && grid.maxInstrs < total)
            total = grid.maxInstrs;
    } else {
        total = (*recs)[0]->recording.totalInstrs;
    }

    // 3. Derive every missing recording in ONE interleaved replay walk
    // (chunk-lockstep across CLS sizes, like runSpecSweep's stage 1),
    // then freeze recording+index into the cache together. A rows-only
    // ideal grid derives a recording per CLS the same way, uncached:
    // its ideal rows are read off them below and they are freed.
    std::vector<LoopEventRecording> uncached;
    if (!cells && grid.ideal) {
        for (size_t c = 0; c < num_c; ++c)
            missing.push_back(c);
    }
    if (!missing.empty()) {
        std::vector<size_t> sizes;
        for (size_t c : missing)
            sizes.push_back(grid.clsSizes[c]);
        std::vector<LoopEventRecording> derived;
        std::string err = recordAtClsSizes(
            sizes,
            [&](TraceObserver &det) -> std::unique_ptr<ReplaySource> {
                return std::make_unique<ControlTraceSource>(
                    ct->trace, det, grid.maxInstrs);
            },
            &derived);
        if (!err.empty())
            return name + ": " + err;
        if (!cells)
            uncached = std::move(derived);
        for (size_t i = 0; cells && i < missing.size(); ++i) {
            LoopEventRecording &r = derived[i];
            // Conflict annotations are CLS-dependent but replay-
            // derivable: the sidecar is one pass, the profile walk is
            // per recording (exactly runSpecSweep's stage 1).
            if (conflicts)
                annotateConflicts(&r, profileConflicts(r, mt->trace));
            (*recs)[missing[i]] = cache.putRecording(
                RecordingCache::recordingKey(name, grid.scale.factor,
                                             grid.maxInstrs, src,
                                             grid.clsSizes[missing[i]],
                                             ann),
                std::make_shared<CachedRecording>(std::move(r)));
        }
    }

    // 4. Ideal ∞-TU TPC per CLS: windowed replays of each recording,
    // identical to runSpecSweep's rows (the response cannot tell which
    // path produced them).
    std::vector<IdealTpcPair> ideal(num_c);
    for (size_t c = 0; grid.ideal && c < num_c; ++c)
        ideal[c] = idealTpcPair(cells ? (*recs)[c]->recording
                                      : uncached[c]);

    for (size_t c = 0; c < num_c; ++c) {
        SweepRow &row = (*rows)[c];
        row.workload = name;
        row.clsEntries = grid.clsSizes[c];
        row.totalInstrs = total;
        row.idealTpc = ideal[c].full;
        row.idealTpcPrefix = ideal[c].prefix;
        if (need_report)
            row.dataSpec = dsrep->report;
    }
    return "";
}

std::string
SweepService::run(const SweepGrid &grid, SweepResult *out)
{
    using clk = std::chrono::steady_clock;
    const auto t0 = clk::now();
    served.fetch_add(1);

    std::string err = validateGrid(grid);
    if (!err.empty())
        return err;

    SweepResult result;
    result.grid = grid;
    const size_t num_w = grid.workloads.size();
    const size_t num_c = grid.clsSizes.size();
    const bool cells = grid.hasCells();

    result.rows.resize(num_w * num_c);
    std::vector<std::shared_ptr<const CachedRecording>> recordings(
        cells ? num_w * num_c : 0);

    // Materialize per workload on the shared pool. Tasks must not
    // throw or die: each workload reports through its own error slot.
    std::vector<std::string> errors(num_w);
    pool.parallelFor(num_w, [&](uint64_t w) {
        std::vector<std::shared_ptr<const CachedRecording>> recs(num_c);
        std::vector<SweepRow> rows(num_c);
        errors[w] = materializeWorkload(grid, w, &recs, &rows);
        if (!errors[w].empty())
            return;
        for (size_t c = 0; c < num_c; ++c) {
            result.rows[w * num_c + c] = std::move(rows[c]);
            if (cells)
                recordings[w * num_c + c] = std::move(recs[c]);
        }
    });
    for (const std::string &e : errors) {
        if (!e.empty())
            return e;
    }

    // Dedup counters describe the grid's work shape — what a cold
    // standalone run performs — so warm and cold responses stay
    // byte-identical. Real cache effectiveness is reported out of band
    // (sweepd_client --stats).
    result.functionalPasses = num_w;
    result.recordingsProduced = cells ? num_w * num_c : 0;

    if (cells) {
        std::vector<const LoopEventRecording *> rec_ptrs(
            recordings.size());
        std::vector<const RecordingIndex *> idx_ptrs(recordings.size());
        for (size_t i = 0; i < recordings.size(); ++i) {
            rec_ptrs[i] = &recordings[i]->recording;
            idx_ptrs[i] = &recordings[i]->index;
        }
        runSweepCells(grid, rec_ptrs, idx_ptrs, &result.cells, &pool,
                      cfg.jobs);
    }
    result.cellsRun = result.cells.size();
    result.sweepSeconds =
        std::chrono::duration<double>(clk::now() - t0).count();
    *out = std::move(result);
    return "";
}

} // namespace loopspec
