#include "pipeline.hh"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>

#include "dataspec/conflict_profiler.hh"
#include "harness/runner.hh"
#include "loop/loop_detector.hh"
#include "speculation/ideal_tpc.hh"
#include "speculation/spec_sim.hh"
#include "trace_io/replay_source.hh"
#include "trace_io/stream_reader.hh"
#include "trace_io/trace_codec.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

using namespace loopspec;

namespace perfbench
{

namespace
{

/** Policy family a cell's time is charged to. */
const char *
cellFamily(const GridPolicy &gp)
{
    if (gp.dataMode != DataMode::None)
        return "data";
    switch (gp.policy) {
      case SpecPolicy::Idle:
        return "idle";
      case SpecPolicy::Str:
        return "str";
      case SpecPolicy::StrI:
        return "strn";
      default:
        return "pred";
    }
}

/** A derived-CLS detector with the listeners runSpecSweep attaches. */
struct DerivedState
{
    LoopDetector det;
    LoopEventRecorder rec;
    IdealTpcComputer ideal;
    explicit DerivedState(size_t cls_entries) : det({cls_entries}) {}
};

void
interleaveOrDie(const std::vector<ReplaySource *> &sources)
{
    std::string err = interleaveReplay(sources);
    if (!err.empty())
        fatal("%s", err.c_str());
}

} // namespace

ComposedPass
composedSweep(const SweepGrid &grid, unsigned width)
{
    Tracer tracer;
    ComposedPass pass;
    SweepResult &out = pass.result;
    out.grid = grid;

    const double t0 = wallNow();
    const uint32_t root = tracer.open("sweep.pass", Span::noParent, "");

    const size_t num_w = grid.workloads.size();
    const size_t num_c = grid.clsSizes.size();
    const bool cells = grid.hasCells();
    const bool conflicts = cells && grid.needsConflictProfile();
    const bool from_traces = !grid.traceDir.empty();
    const bool derive_cls = num_c > 1 && (cells || grid.ideal);

    RunOptions opts;
    opts.scale = grid.scale;
    opts.maxInstrs = grid.maxInstrs;
    opts.clsEntries = grid.clsSizes[0];
    opts.traceDir = grid.traceDir;

    CollectFlags flags;
    flags.recording = cells;
    flags.ideal = grid.ideal;
    flags.dataSpec = grid.dataSpec;
    flags.dataCorrectness = grid.needsDataCorrectness();
    flags.memTrace = conflicts;
    flags.controlTrace = derive_cls && !from_traces;

    out.rows.resize(num_w * num_c);
    std::vector<LoopEventRecording> recordings(cells ? num_w * num_c : 0);
    std::mutex peak_mtx;

    // Stage 1: one functional pass (or streamed replay) per workload,
    // further CLS sizes derived by interleaved replay, conflict
    // annotation last — runSpecSweep's stage 1, call for call.
    {
        ScopedSpan stage(tracer, "sweep.materialize", root);
        parallelFor(width, num_w, [&](uint64_t w) {
            const std::string &name = grid.workloads[w];
            ScopedSpan item(tracer, "sweep.materialize_item", stage.id(),
                            name);
            WorkloadArtifacts art;
            {
                ScopedSpan fs(tracer,
                              from_traces ? "trace_io.stream"
                                          : "tracegen.functional",
                              item.id(), name);
                art = runWorkload(name, opts, flags);
                // A streamed pass with ideal=1 also replays the
                // half-trace prefix of the first CLS size.
                fs.setWork(art.totalInstrs +
                           (from_traces && grid.ideal
                                ? art.totalInstrs / 2
                                : 0));
            }
            for (size_t c = 0; c < num_c; ++c) {
                SweepRow &row = out.rows[w * num_c + c];
                row.workload = name;
                row.clsEntries = grid.clsSizes[c];
                row.totalInstrs = art.totalInstrs;
            }
            SweepRow &row0 = out.rows[w * num_c];
            row0.idealTpc = art.idealTpc;
            row0.idealTpcPrefix = art.idealTpcPrefix;
            row0.dataSpec = art.dataSpec;
            if (cells)
                recordings[w * num_c] = std::move(art.recording);

            std::unique_ptr<TraceFileStreamer> streamer;
            if (derive_cls && from_traces) {
                std::string err;
                streamer = TraceFileStreamer::open(
                    traceFilePath(grid.traceDir, name, kControlTraceExt),
                    StreamConfig{}, &err);
                if (!streamer)
                    fatal("%s", err.c_str());
            }
            const auto make_source = [&](DerivedState &st,
                                         uint64_t window)
                -> std::unique_ptr<ReplaySource> {
                if (from_traces)
                    return std::make_unique<StreamedControlSource>(
                        *streamer, st.det, window);
                return std::make_unique<ControlTraceSource>(
                    art.controlTrace, st.det, window);
            };

            if (derive_cls) {
                std::vector<std::unique_ptr<DerivedState>> states;
                std::vector<std::unique_ptr<ReplaySource>> sources;
                std::vector<ReplaySource *> source_ptrs;
                for (size_t c = 1; c < num_c; ++c) {
                    states.push_back(
                        std::make_unique<DerivedState>(grid.clsSizes[c]));
                    DerivedState &st = *states.back();
                    if (cells)
                        st.det.addListener(&st.rec);
                    if (grid.ideal)
                        st.det.addListener(&st.ideal);
                    sources.push_back(make_source(
                        st, from_traces ? grid.maxInstrs : 0));
                    source_ptrs.push_back(sources.back().get());
                }
                {
                    ScopedSpan ds(tracer, "trace_io.derive", item.id(),
                                  name);
                    interleaveOrDie(source_ptrs);
                    ds.setWork((num_c - 1) * art.totalInstrs);
                }
                for (size_t c = 1; c < num_c; ++c) {
                    if (cells)
                        recordings[w * num_c + c] =
                            states[c - 1]->rec.take();
                    if (grid.ideal)
                        out.rows[w * num_c + c].idealTpc =
                            states[c - 1]->ideal.tpc();
                }

                if (grid.ideal) {
                    std::vector<std::unique_ptr<DerivedState>> pstates;
                    std::vector<std::unique_ptr<ReplaySource>> psources;
                    std::vector<ReplaySource *> psource_ptrs;
                    for (size_t c = 1; c < num_c; ++c) {
                        pstates.push_back(std::make_unique<DerivedState>(
                            grid.clsSizes[c]));
                        DerivedState &st = *pstates.back();
                        st.det.addListener(&st.ideal);
                        psources.push_back(
                            make_source(st, art.totalInstrs / 2));
                        psource_ptrs.push_back(psources.back().get());
                    }
                    ScopedSpan ps(tracer, "trace_io.prefix", item.id(),
                                  name);
                    interleaveOrDie(psource_ptrs);
                    ps.setWork((num_c - 1) * (art.totalInstrs / 2));
                    for (size_t c = 1; c < num_c; ++c)
                        out.rows[w * num_c + c].idealTpcPrefix =
                            pstates[c - 1]->ideal.tpc();
                }
            }
            if (streamer) {
                std::lock_guard<std::mutex> lock(peak_mtx);
                pass.peakBufferBytes = std::max(pass.peakBufferBytes,
                                                streamer->peakBufferBytes());
            }

            if (conflicts) {
                ScopedSpan cs(tracer, "dataspec.conflict", item.id(), name);
                for (size_t c = 0; c < num_c; ++c) {
                    LoopEventRecording &r = recordings[w * num_c + c];
                    annotateConflicts(&r,
                                      profileConflicts(r, art.memTrace));
                }
                cs.setWork(num_c * art.memTrace.accesses.size());
            }
        });
    }
    out.functionalPasses = num_w;
    out.recordingsProduced = cells ? num_w * num_c : 0;

    if (cells) {
        // Stage 2: one shared index per recording.
        std::vector<std::unique_ptr<RecordingIndex>> indexes(
            recordings.size());
        {
            ScopedSpan stage(tracer, "sweep.index", root);
            parallelFor(width, indexes.size(), [&](uint64_t i) {
                ScopedSpan s(tracer, "speculation.index", stage.id(),
                             grid.workloads[i / num_c]);
                indexes[i] = std::make_unique<RecordingIndex>(recordings[i]);
                s.setWork(recordings[i].events.size());
            });
        }

        // Stage 3: the configuration cross-product, decoded from the
        // flat cell index exactly as runSweepCells does.
        ScopedSpan stage(tracer, "sweep.cells", root);
        const size_t num_p = grid.policies.size();
        const size_t num_t = grid.tuCounts.size();
        const size_t num_l = grid.letEntries.size();
        out.cells.resize(grid.numCells());
        parallelFor(width, out.cells.size(), [&](uint64_t i) {
            size_t rem = i;
            const size_t l = rem % num_l;
            rem /= num_l;
            const size_t t = rem % num_t;
            rem /= num_t;
            const size_t p = rem % num_p;
            rem /= num_p;
            const size_t c = rem % num_c;
            const size_t w = rem / num_c;

            SweepCell &cell = out.cells[i];
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
            ScopedSpan s(tracer, "speculation.cell", stage.id(),
                         grid.workloads[w], cellFamily(gp));
            ThreadSpecSimulator sim(recordings[rec_idx], *indexes[rec_idx],
                                    cfg);
            cell.stats = sim.run();
            s.setWork(recordings[rec_idx].events.size());
        });
        out.cellsRun = out.cells.size();
    }

    tracer.close(root, 0);
    pass.wall = wallNow() - t0;
    out.sweepSeconds = pass.wall;
    pass.spans = tracer.spans();
    return pass;
}

std::vector<Metric>
layerMetrics(const ComposedPass &pass, unsigned width)
{
    // Per span name: summed busy seconds, work units and span count.
    struct Sum
    {
        double seconds = 0.0;
        double work = 0.0;
        double count = 0.0;
    };
    std::map<std::string, Sum> by_name;
    std::map<std::string, Sum> cell_by_family;
    std::vector<double> cell_ms;
    for (const Span &s : pass.spans) {
        Sum &sum = by_name[s.name];
        sum.seconds += s.seconds();
        sum.work += static_cast<double>(s.work);
        sum.count += 1.0;
        if (std::string(s.name) == "speculation.cell") {
            Sum &fam = cell_by_family[s.tag];
            fam.seconds += s.seconds();
            fam.work += static_cast<double>(s.work);
            fam.count += 1.0;
            cell_ms.push_back(s.seconds() * 1e3);
        }
    }
    const auto get = [&by_name](const char *name) {
        auto it = by_name.find(name);
        return it == by_name.end() ? Sum{} : it->second;
    };
    const auto rate = [](double work, double seconds, double unit) {
        return seconds > 0.0 ? work / seconds / unit : 0.0;
    };
    const auto idle = [width](const Sum &busy, const Sum &stage) {
        return stage.seconds > 0.0
                   ? 1.0 - busy.seconds / (width * stage.seconds)
                   : 0.0;
    };

    std::vector<Metric> m;
    const Sum fn = get("tracegen.functional");
    m.push_back({"tracegen.functional_s", fn.seconds, "s"});
    m.push_back({"tracegen.instrs", fn.work, "count"});
    m.push_back({"tracegen.minstr_per_s", rate(fn.work, fn.seconds, 1e6),
                 "Minstr/s"});

    const Sum st = get("trace_io.stream");
    const Sum dv = get("trace_io.derive");
    const Sum pf = get("trace_io.prefix");
    m.push_back({"trace_io.stream_s", st.seconds, "s"});
    m.push_back({"trace_io.stream_minstr_per_s",
                 rate(st.work, st.seconds, 1e6), "Minstr/s"});
    m.push_back({"trace_io.derive_s", dv.seconds, "s"});
    m.push_back({"trace_io.derive_minstr_per_s",
                 rate(dv.work, dv.seconds, 1e6), "Minstr/s"});
    m.push_back({"trace_io.prefix_s", pf.seconds, "s"});
    m.push_back({"trace_io.peak_buffer_kb",
                 static_cast<double>(pass.peakBufferBytes) / 1024.0, "KiB"});

    const Sum ix = get("speculation.index");
    m.push_back({"speculation.record_events", ix.work, "count"});
    m.push_back({"speculation.index_s", ix.seconds, "s"});
    m.push_back({"speculation.index_mevents_per_s",
                 rate(ix.work, ix.seconds, 1e6), "Mevents/s"});

    const Sum cl = get("speculation.cell");
    m.push_back({"speculation.cells", cl.count, "count"});
    m.push_back({"speculation.cell_busy_s", cl.seconds, "s"});
    m.push_back({"speculation.cell_p50_ms", quantile(cell_ms, 0.50), "ms"});
    m.push_back({"speculation.cell_p99_ms", quantile(cell_ms, 0.99), "ms"});
    m.push_back({"speculation.cell_mevents_per_s",
                 rate(cl.work, cl.seconds, 1e6), "Mevents/s"});
    for (const char *fam : {"idle", "str", "strn", "pred", "data"}) {
        const Sum f = cell_by_family.count(fam) ? cell_by_family.at(fam)
                                                : Sum{};
        const std::string suffix = std::string(".") + fam;
        m.push_back({"speculation.cells" + suffix, f.count, "count"});
        m.push_back({"speculation.cell_busy_s" + suffix, f.seconds, "s"});
        m.push_back({"speculation.cell_mevents_per_s" + suffix,
                     rate(f.work, f.seconds, 1e6), "Mevents/s"});
    }

    // The modelled design: identical on every run of the same code.
    double tpc_sum = 0.0;
    double verified = 0.0;
    double spawned = 0.0;
    double conflict_squashes = 0.0;
    double conflict_spawned = 0.0;
    const SweepGrid &grid = pass.result.grid;
    for (const SweepCell &cell : pass.result.cells) {
        tpc_sum += cell.stats.tpc();
        verified += static_cast<double>(cell.stats.threadsVerified);
        spawned += static_cast<double>(cell.stats.threadsSpeculated);
        const DataMode mode = grid.policies[cell.policyIdx].dataMode;
        if (mode == DataMode::Conflicts || mode == DataMode::Full) {
            conflict_squashes +=
                static_cast<double>(cell.stats.conflictSquashes);
            conflict_spawned +=
                static_cast<double>(cell.stats.threadsSpeculated);
        }
    }
    const size_t n_cells = pass.result.cells.size();
    m.push_back({"speculation.tpc_mean", n_cells ? tpc_sum / n_cells : 0.0,
                 "TPC"});
    m.push_back({"speculation.verify_ratio",
                 spawned > 0.0 ? verified / spawned : 0.0, "ratio"});

    const Sum mat = get("sweep.materialize");
    const Sum idx = get("sweep.index");
    const Sum cel = get("sweep.cells");
    m.push_back({"sweep.materialize_wall_s", mat.seconds, "s"});
    m.push_back({"sweep.index_wall_s", idx.seconds, "s"});
    m.push_back({"sweep.cells_wall_s", cel.seconds, "s"});
    m.push_back({"sweep.materialize_idle_frac",
                 idle(get("sweep.materialize_item"), mat), "ratio"});
    m.push_back({"sweep.cells_idle_frac", idle(cl, cel), "ratio"});
    m.push_back({"sweep.unattributed_s",
                 get("sweep.pass").seconds - mat.seconds - idx.seconds -
                     cel.seconds,
                 "s"});

    // Conflict spans count the sidecar's accesses once per CLS size
    // profiled; the sidecar itself is one access stream per workload.
    const Sum cf = get("dataspec.conflict");
    m.push_back({"dataspec.mem_accesses",
                 cf.work / static_cast<double>(grid.clsSizes.size()),
                 "count"});
    m.push_back({"dataspec.conflict_s", cf.seconds, "s"});
    m.push_back({"dataspec.conflict_maccess_per_s",
                 rate(cf.work, cf.seconds, 1e6), "Maccess/s"});
    m.push_back({"dataspec.conflict_squash_ratio",
                 conflict_spawned > 0.0
                     ? conflict_squashes / conflict_spawned
                     : 0.0,
                 "ratio"});
    m.push_back({"trace.wall_s", get("sweep.pass").seconds, "s"});
    return m;
}

} // namespace perfbench
