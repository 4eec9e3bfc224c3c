/**
 * @file
 * Trace-pipeline throughput benchmark: retired instructions per second
 * to produce the full experiment artifact set (Table-1 loop statistics,
 * Figure-4 LET/LIT hit ratios at 2/4/8/16 entries, and the speculation
 * event recording) on each of the three execution paths:
 *
 *   scalar  - the seed pipeline: step() reference interpreter with
 *             per-instruction observer dispatch, every listener (stats,
 *             8 hit meters, recorder) attached live and hearing every
 *             onInstr — the dispatch contract the seed harness had.
 *             Forwarding shims restore that contract, since event-only
 *             listener filtering is one of the batched path's
 *             optimizations.
 *   batched_soa - the runWorkload pipeline: run() delivering
 *             structure-of-arrays batches (hot pc/target/kind/taken
 *             planes only, since every rider reports
 *             BatchNeed::HotPlanes) through the token-threaded fill
 *             loop and the detector's prefetched control-index walk.
 *             Only stats and the recorder ride the trace; the 8 meters
 *             are derived afterwards by replaying the recorded
 *             loop-event stream (replay time is included).
 *   replay_seq - the derived-configuration stage of a record/replay
 *             sweep without interleaving: four detectors at different
 *             CLS sizes (stats + ideal-TPC each) re-run one after
 *             another over a prerecorded control-event trace, each pass
 *             its own hot-plane gap-free synthesis.
 *   replay_ilv - the same four derived configurations advanced
 *             round-robin in fixed-size chunks (interleaveReplay) so
 *             each stretch of the recorded trace is pulled through the
 *             cache once and consumed by all four detectors while
 *             still resident.
 *
 * Speedup ratios: batched_soa_vs_scalar, and
 * interleaved_vs_sequential_hot (replay_seq / replay_ilv — both rows on
 * the same hot-plane synthesis, so the ratio prices interleaving
 * alone).
 *
 * All paths must agree on the derived statistics and hit ratios (the
 * replay pair additionally on every per-config artifact); any
 * disagreement is fatal. Emits BENCH_throughput.json (--json overrides
 * the path) for the perf trajectory; the CI perf gate (tools/
 * bench_check) compares its speedup ratios against the committed
 * baseline.
 *
 * Flags: --benchmark <name> (default compress), --reps N (default 5,
 * best-of-N), --json <path>, plus the standard --scale/--max-instrs.
 */

#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "harness/runner.hh"
#include "loop/loop_detector.hh"
#include "loop/loop_stats.hh"
#include "speculation/event_record.hh"
#include "speculation/ideal_tpc.hh"
#include "tables/hit_ratio.hh"
#include "trace_io/replay_source.hh"
#include "tracegen/control_trace.hh"
#include "tracegen/trace_engine.hh"
#include "util/logging.hh"
#include "util/table_writer.hh"

using namespace loopspec;

namespace
{

struct PathResult
{
    double seconds = 0.0; //!< best-of-reps wall time
    uint64_t instrs = 0;
    LoopStatsReport stats;
    uint64_t meterHits = 0; //!< summed over all LET/LIT meters

    double
    instrsPerSec() const
    {
        return seconds > 0.0 ? static_cast<double>(instrs) / seconds : 0.0;
    }
};

/**
 * Restores the seed's listener dispatch contract for the scalar
 * baseline: every listener heard onInstr for every retired instruction
 * (consumesInstrs-based filtering did not exist).
 */
class SeedDispatchShim : public LoopListener
{
  public:
    explicit SeedDispatchShim(LoopListener *l) : inner(l) {}

    void onInstr(const DynInstr &d) override { inner->onInstr(d); }
    void
    onExecStart(const ExecStartEvent &ev) override
    {
        inner->onExecStart(ev);
    }
    void
    onIterStart(const IterEvent &ev) override
    {
        inner->onIterStart(ev);
    }
    void onIterEnd(const IterEvent &ev) override { inner->onIterEnd(ev); }
    void
    onExecEnd(const ExecEndEvent &ev) override
    {
        inner->onExecEnd(ev);
    }
    void
    onSingleIterExec(const SingleIterExecEvent &ev) override
    {
        inner->onSingleIterExec(ev);
    }
    void
    onTraceDone(uint64_t total) override
    {
        inner->onTraceDone(total);
    }

  private:
    LoopListener *inner;
};

/** The LET/LIT meter bank of Figure 4. */
struct MeterBank
{
    std::vector<std::unique_ptr<LetHitMeter>> lets;
    std::vector<std::unique_ptr<LitHitMeter>> lits;

    MeterBank()
    {
        for (size_t sz : hitRatioTableSizes()) {
            lets.push_back(std::make_unique<LetHitMeter>(sz));
            lits.push_back(std::make_unique<LitHitMeter>(sz));
        }
    }

    std::vector<LoopListener *>
    listeners()
    {
        std::vector<LoopListener *> out;
        for (auto &m : lets)
            out.push_back(m.get());
        for (auto &m : lits)
            out.push_back(m.get());
        return out;
    }

    uint64_t
    totalHits() const
    {
        uint64_t hits = 0;
        for (const auto &m : lets)
            hits += m->result().hits;
        for (const auto &m : lits)
            hits += m->result().hits;
        return hits;
    }
};

double
now()
{
    using clk = std::chrono::steady_clock;
    return std::chrono::duration<double>(clk::now().time_since_epoch())
        .count();
}

template <typename Fn>
PathResult
best(unsigned reps, Fn &&once)
{
    PathResult best_r;
    for (unsigned i = 0; i < reps; ++i) {
        PathResult r = once();
        if (i == 0 || r.seconds < best_r.seconds)
            best_r = r;
    }
    return best_r;
}

void
checkAgreement(const char *what, const PathResult &a, const PathResult &b)
{
    if (a.stats.totalInstrs != b.stats.totalInstrs ||
        a.stats.totalExecs != b.stats.totalExecs ||
        a.stats.totalIters != b.stats.totalIters ||
        a.stats.staticLoops != b.stats.staticLoops ||
        a.meterHits != b.meterHits) {
        fatal("%s path disagrees with scalar path "
              "(instrs %llu vs %llu, execs %llu vs %llu, "
              "meter hits %llu vs %llu)",
              what, static_cast<unsigned long long>(b.stats.totalInstrs),
              static_cast<unsigned long long>(a.stats.totalInstrs),
              static_cast<unsigned long long>(b.stats.totalExecs),
              static_cast<unsigned long long>(a.stats.totalExecs),
              static_cast<unsigned long long>(b.meterHits),
              static_cast<unsigned long long>(a.meterHits));
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::unique_ptr<CliArgs> args;
    RunOptions opts =
        parseRunOptions(argc, argv, {"benchmark", "reps", "json"}, &args);
    const std::string bench = args->getString("benchmark", "compress");
    const unsigned reps =
        static_cast<unsigned>(args->getUint("reps", 5));
    const std::string json_path =
        args->getString("json", "BENCH_throughput.json");

    Program prog = buildWorkload(bench, opts.scale);
    EngineConfig ecfg;
    ecfg.maxInstrs = opts.maxInstrs;

    // Scalar seed path: step() + per-instruction dispatch to the whole
    // live listener set.
    PathResult scalar = best(reps, [&] {
        PathResult r;
        TraceEngine engine(prog, ecfg);
        LoopDetector det({opts.clsEntries});
        LoopStats stats;
        LoopEventRecorder recorder;
        MeterBank meters;
        std::vector<std::unique_ptr<SeedDispatchShim>> shims;
        shims.push_back(std::make_unique<SeedDispatchShim>(&stats));
        for (auto *m : meters.listeners())
            shims.push_back(std::make_unique<SeedDispatchShim>(m));
        shims.push_back(std::make_unique<SeedDispatchShim>(&recorder));
        for (auto &s : shims)
            det.addListener(s.get());
        engine.addObserver(&det);
        DynInstr d;
        double t0 = now();
        while (engine.step(d)) {
        }
        r.seconds = now() - t0;
        r.instrs = engine.retired();
        r.stats = stats.report();
        r.meterHits = meters.totalHits();
        (void)recorder.take();
        return r;
    });

    // Batched fast path, exactly the runWorkload pipeline: predecoded
    // run() delivering hot-plane batches with stats + recorder live,
    // meters derived by loop-event replay (timed).
    PathResult batched_soa = best(reps, [&] {
        PathResult r;
        TraceEngine engine(prog, ecfg);
        LoopDetector det({opts.clsEntries});
        LoopStats stats;
        LoopEventRecorder recorder;
        det.addListener(&stats);
        det.addListener(&recorder);
        engine.addObserver(&det);
        MeterBank meters;
        double t0 = now();
        r.instrs = engine.run();
        LoopEventRecording rec = recorder.take();
        replayLoopEvents(rec, meters.listeners());
        r.seconds = now() - t0;
        r.stats = stats.report();
        r.meterHits = meters.totalHits();
        return r;
    });
    checkAgreement("batched_soa", batched_soa, scalar);

    // Replay pair: one recording pass (untimed), then the derived-
    // configuration stage of a sweep — four CLS sizes, each a detector
    // with stats + ideal-TPC — sequentially and interleaved. instrs is
    // the total work (4x the trace), so Minstr/s stays comparable.
    ControlTrace trace;
    {
        TraceEngine engine(prog, ecfg);
        ControlTraceRecorder rec;
        engine.addObserver(&rec);
        engine.run();
        trace = rec.take();
    }
    const std::vector<size_t> derivedCls = {2, 4, 8, 16};

    struct DerivedConfig
    {
        LoopDetector det;
        LoopStats stats;
        IdealTpcComputer ideal;
        explicit DerivedConfig(size_t cls) : det({cls})
        {
            det.addListener(&stats);
            det.addListener(&ideal);
        }
    };
    struct ReplayResult
    {
        double seconds = 0.0;
        uint64_t instrs = 0;
        std::vector<LoopStatsReport> stats;
        std::vector<uint64_t> idealCycles;

        double
        instrsPerSec() const
        {
            return seconds > 0.0
                       ? static_cast<double>(instrs) / seconds
                       : 0.0;
        }
    };
    const auto harvest = [&](ReplayResult &r,
                             std::vector<std::unique_ptr<DerivedConfig>>
                                 &configs) {
        for (auto &cfg : configs) {
            r.stats.push_back(cfg->stats.report());
            r.idealCycles.push_back(cfg->ideal.idealCycles());
        }
    };
    const auto best_replay = [&](auto &&once) {
        ReplayResult best_r;
        for (unsigned i = 0; i < reps; ++i) {
            ReplayResult r = once();
            if (i == 0 || r.seconds < best_r.seconds)
                best_r = r;
        }
        return best_r;
    };

    // Sequential row: one full hot-plane replay pass per derived
    // config, one after another.
    ReplayResult replay_seq = best_replay([&] {
        ReplayResult r;
        std::vector<std::unique_ptr<DerivedConfig>> configs;
        for (size_t cls : derivedCls)
            configs.push_back(std::make_unique<DerivedConfig>(cls));
        double t0 = now();
        for (auto &cfg : configs)
            r.instrs += replayControlTrace(trace, cfg->det);
        r.seconds = now() - t0;
        harvest(r, configs);
        return r;
    });
    ReplayResult replay_ilv = best_replay([&] {
        ReplayResult r;
        std::vector<std::unique_ptr<DerivedConfig>> configs;
        std::vector<std::unique_ptr<ControlTraceSource>> sources;
        std::vector<ReplaySource *> source_ptrs;
        for (size_t cls : derivedCls) {
            configs.push_back(std::make_unique<DerivedConfig>(cls));
            sources.push_back(std::make_unique<ControlTraceSource>(
                trace, configs.back()->det));
            source_ptrs.push_back(sources.back().get());
        }
        double t0 = now();
        std::string err = interleaveReplay(source_ptrs);
        if (!err.empty())
            fatal("%s", err.c_str());
        for (auto &src : sources)
            r.instrs += src->replayed();
        r.seconds = now() - t0;
        harvest(r, configs);
        return r;
    });
    for (size_t c = 0; c < derivedCls.size(); ++c) {
        const LoopStatsReport &a = replay_seq.stats[c];
        const LoopStatsReport &b = replay_ilv.stats[c];
        if (a.totalInstrs != b.totalInstrs ||
            a.totalExecs != b.totalExecs ||
            a.totalIters != b.totalIters ||
            a.staticLoops != b.staticLoops ||
            replay_seq.idealCycles[c] != replay_ilv.idealCycles[c]) {
            fatal("interleaved replay disagrees with sequential replay "
                  "at CLS size %zu",
                  derivedCls[c]);
        }
    }

    const double speedup_soa =
        scalar.seconds > 0.0 ? scalar.seconds / batched_soa.seconds
                             : 0.0;
    const double speedup_ilv =
        replay_ilv.seconds > 0.0
            ? replay_seq.seconds / replay_ilv.seconds
            : 0.0;

    TableWriter t({"path", "instrs", "seconds", "Minstr/s", "speedup"});
    struct Row
    {
        const char *name;
        uint64_t instrs;
        double seconds;
        double ips;
        double speedup;
    };
    const Row rows[] = {
        {"scalar", scalar.instrs, scalar.seconds, scalar.instrsPerSec(),
         1.0},
        {"batched_soa", batched_soa.instrs, batched_soa.seconds,
         batched_soa.instrsPerSec(), speedup_soa},
        {"replay_seq", replay_seq.instrs, replay_seq.seconds,
         replay_seq.instrsPerSec(), 1.0},
        {"replay_ilv", replay_ilv.instrs, replay_ilv.seconds,
         replay_ilv.instrsPerSec(), speedup_ilv},
    };
    const size_t num_rows = sizeof(rows) / sizeof(rows[0]);
    for (const Row &row : rows) {
        t.row();
        t.cell(std::string(row.name));
        t.cell(row.instrs);
        t.cell(row.seconds, 4);
        t.cell(row.ips / 1e6, 2);
        t.cell(row.speedup, 2);
    }
    std::cout << "Trace-pipeline throughput, workload " << bench
              << " (best of " << reps << "; replay rows run "
              << derivedCls.size()
              << " derived CLS configs, speedup vs replay_seq)\n";
    if (opts.csv)
        t.printCsv(std::cout);
    else
        t.print(std::cout);

    std::ofstream js(json_path);
    if (!js)
        fatal("cannot write %s", json_path.c_str());
    js << "{\n"
       << "  \"workload\": \"" << bench << "\",\n"
       << "  \"scale\": " << opts.scale.factor << ",\n"
       << "  \"reps\": " << reps << ",\n"
       << "  \"paths\": {\n";
    for (size_t i = 0; i < num_rows; ++i) {
        const Row &row = rows[i];
        js << "    \"" << row.name << "\": {\"instrs\": " << row.instrs
           << ", \"seconds\": " << row.seconds
           << ", \"instrs_per_sec\": " << row.ips << "}"
           << (i + 1 < num_rows ? "," : "") << "\n";
    }
    js << "  },\n"
       << "  \"speedup\": {\"batched_soa_vs_scalar\": " << speedup_soa
       << ", \"interleaved_vs_sequential_hot\": " << speedup_ilv
       << "}\n"
       << "}\n";
    std::cout << "wrote " << json_path << "\n";
    return 0;
}
