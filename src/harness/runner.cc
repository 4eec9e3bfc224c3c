#include "harness/runner.hh"

#include <fstream>
#include <iostream>

#include "loop/loop_detector.hh"
#include "speculation/ideal_tpc.hh"
#include "trace_io/stream_reader.hh"
#include "trace_io/trace_codec.hh"
#include "tracegen/trace_engine.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace loopspec
{

std::vector<std::string>
RunOptions::selected() const
{
    if (!benchmarks.empty())
        return benchmarks;
    if (!traceDir.empty()) {
        std::vector<std::string> names = traceDirWorkloads(traceDir);
        if (names.empty())
            fatal("no *%s files in trace directory %s",
                  kControlTraceExt, traceDir.c_str());
        return names;
    }
    return workloadNames();
}

RunOptions
parseRunOptions(int argc, char **argv,
                const std::vector<std::string> &extra_flags,
                std::unique_ptr<CliArgs> *args_out)
{
    std::vector<std::string> known = {"scale", "benchmarks", "cls",
                                      "max-instrs", "csv",
                                      "check-replay", "jobs",
                                      "trace-dir"};
    known.insert(known.end(), extra_flags.begin(), extra_flags.end());

    auto args = std::make_unique<CliArgs>(argc, argv, known);

    RunOptions opts;
    opts.scale.factor = args->getDouble("scale", 1.0);
    if (opts.scale.factor <= 0.0)
        fatal("--scale must be positive");
    opts.benchmarks = splitList(args->getString("benchmarks", ""));
    opts.clsEntries = args->getUint("cls", 16);
    opts.maxInstrs = args->getUint("max-instrs", 0);
    opts.csv = args->getBool("csv", false);
    opts.checkReplay = args->getBool("check-replay", false);
    opts.jobs = static_cast<unsigned>(args->getUint("jobs", 0));
    opts.traceDir = args->getString("trace-dir", "");
    if (args_out)
        *args_out = std::move(args);
    return opts;
}

SweepGrid
sweepGridFromOptions(const RunOptions &opts)
{
    SweepGrid grid;
    grid.workloads = opts.selected();
    grid.clsSizes = {opts.clsEntries};
    grid.scale = opts.scale;
    grid.maxInstrs = opts.maxInstrs;
    grid.checkReplay = opts.checkReplay;
    grid.traceDir = opts.traceDir;
    return grid;
}

void
writeSweepJsonFile(const std::string &path, const SweepResult &result,
                   unsigned jobs, double serial_seconds)
{
    if (path.empty())
        return;
    std::ofstream os(path);
    if (!os)
        fatal("cannot write %s", path.c_str());
    writeSweepJson(os, result, jobs, serial_seconds);
    std::cout << "wrote " << path << "\n";
}

const std::vector<size_t> &
hitRatioTableSizes()
{
    static const std::vector<size_t> sizes = {2, 4, 8, 16};
    return sizes;
}

namespace
{

/** Fan one replayed batch out to several observers (detector +
 *  predictor meters ride the same streaming pass, as they ride the
 *  same engine pass in process). */
class FanoutObserver : public TraceObserver
{
  public:
    void add(TraceObserver *obs) { targets.push_back(obs); }

    void
    onInstr(const DynInstr &instr) override
    {
        for (auto *o : targets)
            o->onInstr(instr);
    }

    void
    onInstrBatchCtrl(const DynInstr *instrs, size_t count,
                     const uint32_t *ctrl, size_t num_ctrl) override
    {
        for (auto *o : targets)
            o->onInstrBatchCtrl(instrs, count, ctrl, num_ctrl);
    }

    void
    onTraceEnd(uint64_t total_instrs) override
    {
        for (auto *o : targets)
            o->onTraceEnd(total_instrs);
    }

  private:
    std::vector<TraceObserver *> targets;
};

/** The listeners behind Table 1, Figure 4 and the full ideal TPC. */
struct Derived
{
    LoopStats stats;
    std::vector<std::unique_ptr<LetHitMeter>> lets;
    std::vector<std::unique_ptr<LitHitMeter>> lits;
    IdealTpcComputer ideal;

    /** @p flags' listeners, for a replay or a live pass. */
    std::vector<LoopListener *>
    listeners(const CollectFlags &flags)
    {
        std::vector<LoopListener *> out;
        if (flags.loopStats)
            out.push_back(&stats);
        if (flags.hitRatios) {
            for (size_t sz : hitRatioTableSizes()) {
                lets.push_back(std::make_unique<LetHitMeter>(sz));
                lits.push_back(std::make_unique<LitHitMeter>(sz));
                out.push_back(lets.back().get());
                out.push_back(lits.back().get());
            }
        }
        if (flags.ideal)
            out.push_back(&ideal);
        return out;
    }
};

/**
 * The one derive step, shared by both sources: Table 1, the Figure-4
 * meters and the ideal ∞-TU TPC over the whole trace and its first
 * half, all by windowed replay of the recording (replayLoopEvents).
 */
void
deriveFromRecording(const LoopEventRecording &recording,
                    const CollectFlags &flags, WorkloadArtifacts *out)
{
    Derived d;
    const std::vector<LoopListener *> listeners = d.listeners(flags);
    if (listeners.empty())
        return;
    replayLoopEvents(recording, listeners);
    if (flags.loopStats)
        out->loopStats = d.stats.report();
    for (size_t i = 0; i < d.lets.size(); ++i) {
        out->letResults.emplace_back(d.lets[i]->numEntries(),
                                     d.lets[i]->result());
        out->litResults.emplace_back(d.lits[i]->numEntries(),
                                     d.lits[i]->result());
    }
    if (flags.ideal) {
        out->idealTpc = d.ideal.tpc();
        IdealTpcComputer prefix;
        replayLoopEvents(recording, {&prefix},
                         idealPrefixWindow(recording.totalInstrs));
        out->idealTpcPrefix = prefix.tpc();
    }
}

bool
sameMeter(const HitRatioResult &a, const HitRatioResult &b)
{
    return a.accesses == b.accesses && a.hits == b.hits;
}

/**
 * --check-replay, shared by both sources. @p ctrace is the pass's
 * control trace (recorded in process, or the container's materialized
 * copy): a detector fed by it must re-record the pass's recording, and
 * predictor meters fed by it must end in the pass's table state. Every
 * derived artifact must equal a direct computation: Table 1, the meters
 * and the full ideal TPC equal the listeners in @p live that rode the
 * pass; the prefix equals one direct detection over its window.
 */
void
checkDerived(const std::string &name, const RunOptions &opts,
             const CollectFlags &flags, const ControlTrace &ctrace,
             const LoopEventRecording &recording, Derived &live,
             const WorkloadArtifacts &out)
{
    const char *what = name.c_str();
    LoopDetector det({opts.clsEntries});
    LoopEventRecorder rerecorder;
    det.addListener(&rerecorder);
    PredictorMeter meter(flags.predictors);
    FanoutObserver fan;
    fan.add(&det);
    fan.add(&meter);
    replayControlTrace(ctrace, fan, opts.maxInstrs);
    std::string diff = compareRecordings(rerecorder.take(), recording);
    if (!diff.empty())
        fatal("%s: pass diverges from its control trace: %s", what,
              diff.c_str());
    // The meters read only pc/kind/taken — fields the control trace
    // records exactly — so the final table state must match too.
    const std::vector<PredictorMeterResult> replayed = meter.results();
    for (size_t i = 0; i < replayed.size(); ++i) {
        const PredictorMeterResult &a = out.predictorStats[i];
        const PredictorMeterResult &b = replayed[i];
        if (a.lookups != b.lookups || a.hits != b.hits ||
            a.stateHash != b.stateHash)
            fatal("%s: predictor %s diverges from its control trace", what,
                  predictorName(a.config).c_str());
    }

    const LoopStatsReport &a = live.stats.report();
    const LoopStatsReport &b = out.loopStats;
    if (a.totalInstrs != b.totalInstrs || a.staticLoops != b.staticLoops ||
        a.totalExecs != b.totalExecs || a.totalIters != b.totalIters ||
        a.singleIterExecs != b.singleIterExecs ||
        a.itersPerExec != b.itersPerExec ||
        a.instrsPerIter != b.instrsPerIter ||
        a.avgNesting != b.avgNesting || a.maxNesting != b.maxNesting ||
        a.overflowDrops != b.overflowDrops ||
        a.loopCoverage != b.loopCoverage)
        fatal("%s: Table-1 statistics replay mismatch", what);
    for (size_t i = 0; i < out.letResults.size(); ++i) {
        if (!sameMeter(live.lets[i]->result(), out.letResults[i].second) ||
            !sameMeter(live.lits[i]->result(), out.litResults[i].second))
            fatal("%s: LET/LIT@%zu replay mismatch", what,
                  out.letResults[i].first);
    }
    if (!flags.ideal)
        return;
    if (live.ideal.tpc() != out.idealTpc)
        fatal("%s: ideal TPC replay mismatch: live %.17g vs replay %.17g",
              what, live.ideal.tpc(), out.idealTpc);

    const uint64_t window = idealPrefixWindow(recording.totalInstrs);
    LoopDetector prefix_det({opts.clsEntries});
    IdealTpcComputer direct, windowed;
    LoopEventRecorder direct_rec, windowed_rec;
    prefix_det.addListener(&direct);
    prefix_det.addListener(&direct_rec);
    replayControlTrace(ctrace, prefix_det, window);
    replayLoopEvents(recording, {&windowed, &windowed_rec}, window);
    diff = compareRecordings(direct_rec.take(), windowed_rec.take());
    if (!diff.empty() || direct.idealCycles() != windowed.idealCycles() ||
        direct.tpc() != out.idealTpcPrefix)
        fatal("%s: prefix replay diverges from direct detection over %llu "
              "instrs: %s (TPC %.17g vs %.17g)",
              what, static_cast<unsigned long long>(window), diff.c_str(),
              direct.tpc(), out.idealTpcPrefix);
}

} // namespace

std::string
recordAtClsSizes(const std::vector<size_t> &cls_sizes,
                 const std::function<std::unique_ptr<ReplaySource>(
                     TraceObserver &)> &make_source,
                 std::vector<LoopEventRecording> *recordings)
{
    struct Pass
    {
        LoopDetector det;
        LoopEventRecorder rec;
        explicit Pass(size_t cls) : det({cls}) { det.addListener(&rec); }
    };
    std::vector<std::unique_ptr<Pass>> passes;
    std::vector<std::unique_ptr<ReplaySource>> sources;
    std::vector<ReplaySource *> source_ptrs;
    for (size_t cls : cls_sizes) {
        passes.push_back(std::make_unique<Pass>(cls));
        sources.push_back(make_source(passes.back()->det));
        source_ptrs.push_back(sources.back().get());
    }
    std::string err = interleaveReplay(source_ptrs);
    if (!err.empty())
        return err;
    recordings->clear();
    for (auto &pass : passes)
        recordings->push_back(pass->rec.take());
    return "";
}

WorkloadArtifacts
runWorkload(const std::string &name, const RunOptions &opts,
            const CollectFlags &flags_in)
{
    WorkloadArtifacts out;
    out.name = name;

    CollectFlags flags = flags_in;
    if (flags.dataCorrectness) {
        flags.recording = true;
        flags.dataSpec = true;
    }
    const bool from_trace = !opts.traceDir.empty();
    if (from_trace && (flags.dataSpec || flags.memTrace)) {
        fatal("%s: data-speculation profiling reads operand values, "
              "which a control-trace replay (--trace-dir) cannot "
              "provide",
              name.c_str());
    }

    // --- Source: one pass materializes the recording and its riders --
    // The pass is the workload's execution, or an out-of-core streaming
    // replay of <traceDir>/<name>.lstrace (docs/TRACE_FORMAT.md).
    const bool need_recording = flags.recording || flags.loopStats ||
                                flags.hitRatios || flags.ideal ||
                                opts.checkReplay;
    const bool need_ctrace = flags.controlTrace || opts.checkReplay;

    LoopEventRecorder recorder;
    Derived live; // --check-replay's listeners riding the pass
    DataSpecConfig dcfg;
    dcfg.recordPerIteration = flags.dataCorrectness;
    DataSpecProfiler profiler(dcfg);
    PredictorMeter predictorMeter(flags.predictors);
    MemTraceRecorder memRecorder;
    ControlTraceRecorder ctraceRecorder;

    LoopDetector detector({opts.clsEntries});
    if (need_recording)
        detector.addListener(&recorder);
    if (opts.checkReplay) {
        for (LoopListener *l : live.listeners(flags))
            detector.addListener(l);
    }
    if (flags.dataSpec)
        detector.addListener(&profiler);
    std::vector<TraceObserver *> observers = {&detector};
    if (!flags.predictors.empty())
        observers.push_back(&predictorMeter);
    if (flags.memTrace)
        observers.push_back(&memRecorder);

    ControlTrace ctrace;
    if (from_trace) {
        FanoutObserver pass;
        for (TraceObserver *o : observers)
            pass.add(o);
        const std::string path =
            traceFilePath(opts.traceDir, name, kControlTraceExt);
        std::string err;
        std::unique_ptr<TraceFileStreamer> streamer =
            TraceFileStreamer::open(path, StreamConfig{}, &err);
        if (!streamer)
            fatal("%s", err.c_str());
        err = streamer->replayControl(pass, opts.maxInstrs);
        if (!err.empty())
            fatal("%s", err.c_str());
        out.totalInstrs = streamer->totalInstrs();
        if (opts.maxInstrs && opts.maxInstrs < out.totalInstrs)
            out.totalInstrs = opts.maxInstrs;
        if (need_ctrace)
            ctrace = readControlTraceFile(path);
    } else {
        if (need_ctrace)
            observers.push_back(&ctraceRecorder);
        Program prog = buildWorkload(name, opts.scale);
        EngineConfig ecfg;
        ecfg.maxInstrs = opts.maxInstrs;
        TraceEngine engine(prog, ecfg);
        for (TraceObserver *o : observers)
            engine.addObserver(o);
        out.totalInstrs = engine.run();
        if (need_ctrace)
            ctrace = ctraceRecorder.take();
    }

    LoopEventRecording recording;
    if (need_recording)
        recording = recorder.take();
    if (!flags.predictors.empty())
        out.predictorStats = predictorMeter.results();

    // --- Derive: one step, whichever source ran ---------------------
    deriveFromRecording(recording, flags, &out);
    if (opts.checkReplay)
        checkDerived(name, opts, flags, ctrace, recording, live, out);

    if (flags.recording)
        out.recording = std::move(recording);
    if (flags.dataSpec)
        out.dataSpec = profiler.report();
    if (flags.dataCorrectness)
        mergeDataCorrectness(out.recording, profiler);
    if (flags.memTrace)
        out.memTrace = memRecorder.take();
    if (flags.controlTrace)
        out.controlTrace = std::move(ctrace);
    return out;
}

std::vector<WorkloadArtifacts>
runWorkloads(const std::vector<std::string> &names, const RunOptions &opts,
             const CollectFlags &flags, unsigned num_threads)
{
    std::vector<WorkloadArtifacts> results(names.size());
    parallelFor(num_threads, names.size(), [&](uint64_t i) {
        results[i] = runWorkload(names[i], opts, flags);
    });
    return results;
}

std::string
exportWorkloadTrace(const std::string &name, const RunOptions &opts,
                    const std::string &dir, TraceEncoding enc)
{
    if (!opts.traceDir.empty())
        fatal("cannot export traces while replaying from --trace-dir");
    CollectFlags flags;
    flags.controlTrace = true;
    WorkloadArtifacts art = runWorkload(name, opts, flags);
    std::string path = traceFilePath(dir, name, kControlTraceExt);
    writeControlTraceFile(path, art.controlTrace, enc);
    return path;
}

} // namespace loopspec
