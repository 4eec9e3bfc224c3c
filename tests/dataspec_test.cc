/** @file Tests for the §4 data-speculation profiler: path profiling,
 *  live-in detection, stride prediction. */

#include <gtest/gtest.h>

#include "dataspec/data_profiler.hh"
#include "speculation/event_record.hh"
#include "tests/test_util.hh"

namespace loopspec
{
namespace
{

using namespace regs;

DataSpecReport
profileFor(const Program &prog, DataSpecConfig cfg = {})
{
    TraceEngine engine(prog);
    LoopDetector det({16});
    DataSpecProfiler prof(cfg);
    prof.attach(det);
    engine.addObserver(&det);
    engine.run();
    return prof.report();
}

TEST(DataSpec, UniformPathLoop)
{
    // Branch-free body: every iteration takes the same path.
    ProgramBuilder b("t", 64);
    b.beginFunction("main");
    b.li(r1, 0);
    b.li(r2, 50);
    b.countedLoop(r1, r2, [&](const LoopCtx &) { b.nop(); });
    b.halt();
    DataSpecReport r = profileFor(b.build());
    // Detected iterations: 49 (index 2..50). All but the last share a
    // path; the last (not-taken close) differs.
    EXPECT_EQ(r.itersEvaluated, 49u);
    EXPECT_EQ(r.modalIters, 48u);
    EXPECT_GT(r.samePathPct(), 95.0);
}

TEST(DataSpec, AlternatingPathsSplitTheCount)
{
    // Body branches on parity: two paths, modal share ~50%.
    ProgramBuilder b("t", 64);
    b.beginFunction("main");
    b.li(r1, 0);
    b.li(r2, 41);
    b.countedLoop(r1, r2, [&](const LoopCtx &) {
        b.andi(r3, r1, 1);
        b.ifElse([&](Label e) { b.bne(r3, r0, e); },
                 [&]() { b.nop(); }, [&]() { b.addi(r4, r4, 1); });
    });
    b.halt();
    DataSpecReport r = profileFor(b.build());
    EXPECT_LT(r.samePathPct(), 60.0);
    EXPECT_GT(r.samePathPct(), 40.0);
}

TEST(DataSpec, InductionRegisterIsPredictable)
{
    // The loop index is read (compare) before written within each
    // iteration? In do-while form idx is read by addi: live-in with
    // stride 1 -> predictable from the 3rd evaluated iteration on.
    ProgramBuilder b("t", 64);
    b.beginFunction("main");
    b.li(r1, 0);
    b.li(r2, 100);
    b.countedLoop(r1, r2, [&](const LoopCtx &) {
        b.add(r3, r1, r2); // reads idx and bound
    });
    b.halt();
    DataSpecReport r = profileFor(b.build());
    EXPECT_GT(r.lrPredPct(), 90.0);
    EXPECT_GT(r.allLrPct(), 90.0);
}

TEST(DataSpec, ChaoticRegisterIsNot)
{
    // x = x * x + c is not stride-predictable.
    ProgramBuilder b("t", 64);
    b.beginFunction("main");
    b.li(r4, 3);
    b.li(r1, 0);
    b.li(r2, 60);
    b.countedLoop(r1, r2, [&](const LoopCtx &) {
        b.mul(r4, r4, r4);
        b.addi(r4, r4, 1);
    });
    b.halt();
    DataSpecReport r = profileFor(b.build());
    // r4 (chaotic) and r1/r2 (predictable) mix; all-lr must fail almost
    // always because of r4.
    EXPECT_LT(r.allLrPct(), 10.0);
}

TEST(DataSpec, StridedLoadIsPredictableLiveIn)
{
    // a[i] streamed with linear contents: address stride 1, value
    // stride 5.
    ProgramBuilder b("t", 512);
    b.beginFunction("main");
    // init: a[i] = 5*i
    b.li(r1, 0);
    b.li(r2, 200);
    b.countedLoop(r1, r2, [&](const LoopCtx &) {
        b.muli(r3, r1, 5);
        b.st(r3, r1, 64);
    });
    // consume
    b.li(r1, 0);
    b.li(r2, 200);
    b.countedLoop(r1, r2, [&](const LoopCtx &) {
        b.ld(r4, r1, 64);
        b.add(r5, r5, r4);
    });
    b.halt();
    DataSpecReport r = profileFor(b.build());
    EXPECT_GT(r.lmPredPct(), 85.0);
    EXPECT_GT(r.allLmPct(), 85.0);
}

TEST(DataSpec, StoreBeforeLoadIsNotLiveIn)
{
    // The iteration writes a[i] then reads it back: not live-in, so no
    // memory instances are evaluated at all.
    ProgramBuilder b("t", 512);
    b.beginFunction("main");
    b.li(r1, 0);
    b.li(r2, 50);
    b.countedLoop(r1, r2, [&](const LoopCtx &) {
        b.st(r1, r1, 64);
        b.ld(r4, r1, 64);
    });
    b.halt();
    DataSpecReport r = profileFor(b.build());
    EXPECT_EQ(r.lmTotal, 0u);
}

TEST(DataSpec, LoopInvariantLoadIsStrideZero)
{
    ProgramBuilder b("t", 512);
    b.beginFunction("main");
    b.li(r3, 77);
    b.st(r3, r0, 10); // parameter cell
    b.li(r1, 0);
    b.li(r2, 80);
    b.countedLoop(r1, r2, [&](const LoopCtx &) {
        b.ld(r4, r0, 10);
        b.add(r5, r5, r4);
    });
    b.halt();
    DataSpecReport r = profileFor(b.build());
    EXPECT_GT(r.lmPredPct(), 90.0);
}

TEST(DataSpec, FootprintOverflowSkipsMemoryStats)
{
    // An iteration storing to more distinct addresses than the cap is
    // excluded from memory live-in accounting but keeps path stats.
    DataSpecConfig cfg;
    cfg.writtenSetCap = 8;
    ProgramBuilder b("t", 4096);
    b.beginFunction("main");
    b.li(r1, 0);
    b.li(r2, 10);
    b.countedLoop(r1, r2, [&](const LoopCtx &) {
        for (int k = 0; k < 12; ++k) { // 12 > cap stores
            b.li(r3, 100 + k);
            b.st(r1, r3, 0);
        }
        b.ld(r4, r0, 200); // would be live-in, but iteration overflows
    });
    b.halt();
    DataSpecReport r = profileFor(b.build(), cfg);
    EXPECT_EQ(r.lmIters, 0u);
    EXPECT_GT(r.itersEvaluated, 0u);
}

TEST(DataSpec, NestedLoopsTrackIndependently)
{
    // Outer live-ins and inner live-ins are evaluated per loop.
    ProgramBuilder b("t", 512);
    b.beginFunction("main");
    b.li(r1, 0);
    b.li(r2, 10);
    b.countedLoop(r1, r2, [&](const LoopCtx &) {
        b.li(r3, 0);
        b.li(r4, 10);
        b.countedLoop(r3, r4, [&](const LoopCtx &) {
            b.add(r5, r1, r3);
        });
    });
    b.halt();
    DataSpecReport r = profileFor(b.build());
    // Inner iterations dominate; most register live-ins predictable.
    EXPECT_GT(r.itersEvaluated, 80u);
    EXPECT_GT(r.lrPredPct(), 80.0);
}

TEST(DataSpec, PerIterationFlagsRecorded)
{
    // Predictable loop: after warm-up, iterations flag as all-correct.
    ProgramBuilder b("t", 512);
    b.beginFunction("main");
    b.li(r1, 0);
    b.li(r2, 40);
    b.countedLoop(r1, r2, [&](const LoopCtx &) {
        b.add(r3, r1, r2);
    });
    b.halt();
    DataSpecConfig cfg;
    cfg.recordPerIteration = true;
    TraceEngine engine(b.build());
    LoopDetector det({16});
    DataSpecProfiler prof(cfg);
    prof.attach(det);
    engine.addObserver(&det);
    engine.run();

    const auto &flags = prof.perIterationOk();
    ASSERT_EQ(flags.size(), 1u);
    const auto &v = flags.begin()->second;
    ASSERT_GE(v.size(), 30u);
    // Warm-up misses, then steady correctness.
    EXPECT_FALSE(v[0]);
    size_t correct = 0;
    for (bool f : v)
        correct += f;
    EXPECT_GT(correct, v.size() - 5);
}

TEST(DataSpec, PerIterationFlagsOffByDefault)
{
    ProgramBuilder b("t", 64);
    b.beginFunction("main");
    b.li(r1, 0);
    b.li(r2, 10);
    b.countedLoop(r1, r2, [&](const LoopCtx &) { b.nop(); });
    b.halt();
    TraceEngine engine(b.build());
    LoopDetector det({16});
    DataSpecProfiler prof;
    prof.attach(det);
    engine.addObserver(&det);
    engine.run();
    EXPECT_TRUE(prof.perIterationOk().empty());
}

TEST(DataSpec, MergeAnnotatesRecording)
{
    ProgramBuilder b("t", 512);
    b.beginFunction("main");
    b.li(r1, 0);
    b.li(r2, 25);
    b.countedLoop(r1, r2, [&](const LoopCtx &) { b.add(r3, r1, r2); });
    b.halt();
    Program p = b.build();

    TraceEngine engine(p);
    LoopDetector det({16});
    DataSpecConfig cfg;
    cfg.recordPerIteration = true;
    DataSpecProfiler prof(cfg);
    LoopEventRecorder rec;
    prof.attach(det);
    det.addListener(&rec);
    engine.addObserver(&det);
    engine.run();

    LoopEventRecording recording = rec.take();
    for (const auto &x : recording.execs)
        EXPECT_TRUE(x.iterDataOk.empty());
    mergeDataCorrectness(recording, prof);
    ASSERT_EQ(recording.execs.size(), 1u);
    EXPECT_FALSE(recording.execs[0].iterDataOk.empty());
}

TEST(DataSpec, ReportPercentagesAreConsistent)
{
    ProgramBuilder b("t", 512);
    b.beginFunction("main");
    b.li(r1, 0);
    b.li(r2, 30);
    b.countedLoop(r1, r2, [&](const LoopCtx &) {
        b.ld(r4, r1, 64);
        b.add(r5, r5, r4);
    });
    b.halt();
    DataSpecReport r = profileFor(b.build());
    EXPECT_LE(r.modalIters, r.itersEvaluated);
    EXPECT_LE(r.lrCorrect, r.lrTotal);
    EXPECT_LE(r.lmCorrect, r.lmTotal);
    EXPECT_LE(r.allDataIters, r.lmIters);
    EXPECT_LE(r.allLmIters, r.lmIters);
    EXPECT_LE(r.allLrIters, r.modalIters);
}

} // namespace
} // namespace loopspec
