/**
 * @file
 * google-benchmark microbenchmarks for the hardware structures and the
 * simulation substrate: CLS search/push/pop, LoopTable lookup at the
 * paper's sizes, detector per-instruction overhead, trace-engine
 * throughput, and event-driven TU-simulator throughput.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "harness/runner.hh"
#include "loop/loop_detector.hh"
#include "speculation/event_record.hh"
#include "speculation/spec_sim.hh"
#include "tables/loop_table.hh"
#include "trace_io/replay_source.hh"
#include "tracegen/control_trace.hh"
#include "tracegen/trace_engine.hh"
#include "workloads/workload.hh"

using namespace loopspec;

namespace
{

/** CLS push/find/pop cycle at a given occupancy. */
void
BM_ClsSearch(benchmark::State &state)
{
    CurrentLoopStack cls(16);
    const size_t depth = static_cast<size_t>(state.range(0));
    for (size_t i = 0; i < depth; ++i)
        cls.push({static_cast<uint32_t>(0x1000 + 64 * i),
                  static_cast<uint32_t>(0x1040 + 64 * i), i + 1, 2});
    uint32_t probe = 0x1000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cls.find(probe));
        probe += 64;
        if (probe >= 0x1000 + 64 * depth)
            probe = 0x1000;
    }
}
BENCHMARK(BM_ClsSearch)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

/** LoopTable associative lookup at the paper's sizes. */
void
BM_LoopTableLookup(benchmark::State &state)
{
    struct Payload
    {
        uint64_t count = 0;
    };
    LoopTable<Payload> table(static_cast<size_t>(state.range(0)));
    for (int64_t i = 0; i < state.range(0); ++i)
        table.insert(static_cast<uint32_t>(0x2000 + 32 * i));
    uint32_t probe = 0x2000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(table.find(probe));
        table.touch(probe);
        probe += 32;
        if (probe >= 0x2000 + 32 * state.range(0))
            probe = 0x2000;
    }
}
BENCHMARK(BM_LoopTableLookup)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

/** Raw trace-engine throughput (instructions/second) on compress:
 *  batched fast path vs the scalar step() reference. */
void
BM_EngineThroughput(benchmark::State &state)
{
    WorkloadScale scale{0.05};
    uint64_t instrs = 0;
    for (auto _ : state) {
        Program p = buildCompress(scale);
        TraceEngine engine(p);
        instrs += engine.run();
    }
    state.counters["instr/s"] = benchmark::Counter(
        static_cast<double>(instrs), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EngineThroughput)->Unit(benchmark::kMillisecond);

void
BM_EngineThroughputScalar(benchmark::State &state)
{
    WorkloadScale scale{0.05};
    uint64_t instrs = 0;
    for (auto _ : state) {
        Program p = buildCompress(scale);
        TraceEngine engine(p);
        DynInstr d;
        while (engine.step(d)) {
        }
        instrs += engine.retired();
    }
    state.counters["instr/s"] = benchmark::Counter(
        static_cast<double>(instrs), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EngineThroughputScalar)->Unit(benchmark::kMillisecond);

/** Engine + detector + stats (the Table-1 pipeline) throughput:
 *  0 = SoA hot-plane batches (run), 1 = scalar (step) delivery. */
void
BM_DetectorThroughput(benchmark::State &state)
{
    WorkloadScale scale{0.05};
    uint64_t instrs = 0;
    const int mode = static_cast<int>(state.range(0));
    for (auto _ : state) {
        Program p = buildCompress(scale);
        TraceEngine engine(p);
        LoopDetector det({16});
        LoopStats stats;
        det.addListener(&stats);
        engine.addObserver(&det);
        if (mode == 1) {
            DynInstr d;
            while (engine.step(d)) {
            }
            instrs += engine.retired();
        } else {
            instrs += engine.run();
        }
    }
    state.counters["instr/s"] = benchmark::Counter(
        static_cast<double>(instrs), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DetectorThroughput)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

/** Detector re-run over a prerecorded control-event trace (the cost of
 *  one derived configuration in a record/replay sweep). */
void
BM_ControlReplayThroughput(benchmark::State &state)
{
    WorkloadScale scale{0.05};
    Program p = buildCompress(scale);
    TraceEngine engine(p);
    ControlTraceRecorder rec;
    engine.addObserver(&rec);
    engine.run();
    ControlTrace trace = rec.take();

    uint64_t instrs = 0;
    for (auto _ : state) {
        LoopDetector det({16});
        LoopStats stats;
        det.addListener(&stats);
        instrs += replayControlTrace(trace, det);
    }
    state.counters["instr/s"] = benchmark::Counter(
        static_cast<double>(instrs), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ControlReplayThroughput)->Unit(benchmark::kMillisecond);

/** Four derived CLS configurations over one recorded control trace:
 *  0 = sequential hot-plane passes, 1 = interleaved fixed-size chunks
 *  (round-robin through interleaveReplay, one cache pass per chunk). */
void
BM_MultiReplayThroughput(benchmark::State &state)
{
    WorkloadScale scale{0.05};
    Program p = buildCompress(scale);
    TraceEngine engine(p);
    ControlTraceRecorder rec;
    engine.addObserver(&rec);
    engine.run();
    ControlTrace trace = rec.take();

    const int mode = static_cast<int>(state.range(0));
    const size_t clsSizes[] = {2, 4, 8, 16};
    uint64_t instrs = 0;
    for (auto _ : state) {
        std::vector<std::unique_ptr<LoopDetector>> dets;
        std::vector<std::unique_ptr<LoopStats>> stats;
        for (size_t cls : clsSizes) {
            dets.push_back(std::make_unique<LoopDetector>(
                DetectorConfig{cls}));
            stats.push_back(std::make_unique<LoopStats>());
            dets.back()->addListener(stats.back().get());
        }
        if (mode == 1) {
            std::vector<std::unique_ptr<ControlTraceSource>> sources;
            std::vector<ReplaySource *> ptrs;
            for (auto &det : dets) {
                sources.push_back(
                    std::make_unique<ControlTraceSource>(trace, *det));
                ptrs.push_back(sources.back().get());
            }
            interleaveReplay(ptrs);
            for (auto &src : sources)
                instrs += src->replayed();
        } else {
            for (auto &det : dets)
                instrs += replayControlTrace(trace, *det);
        }
    }
    state.counters["instr/s"] = benchmark::Counter(
        static_cast<double>(instrs), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MultiReplayThroughput)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

/** Event-driven TU simulator throughput over a prebuilt recording. */
void
BM_SpecSimThroughput(benchmark::State &state)
{
    WorkloadScale scale{0.1};
    Program p = buildM88ksim(scale);
    TraceEngine engine(p);
    LoopDetector det({16});
    LoopEventRecorder rec;
    det.addListener(&rec);
    engine.addObserver(&det);
    engine.run();
    LoopEventRecording recording = rec.take();

    uint64_t events = 0;
    for (auto _ : state) {
        SpecConfig cfg{static_cast<unsigned>(state.range(0)),
                       SpecPolicy::Str, 0};
        ThreadSpecSimulator sim(recording, cfg);
        benchmark::DoNotOptimize(sim.run());
        events += recording.events.size();
    }
    state.counters["events/s"] = benchmark::Counter(
        static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SpecSimThroughput)->Arg(4)->Arg(16)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
