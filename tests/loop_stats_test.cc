/** @file Unit tests for the Table-1 metrics (loopStatsFromRecording). */

#include <gtest/gtest.h>

#include "loop/loop_stats.hh"
#include "synth/count_reference.hh"
#include "tests/test_util.hh"

namespace loopspec
{
namespace
{

using namespace regs;

/** Run a program through detector + recorder; Table 1 from the
 *  recording. */
LoopStatsReport
statsFor(const Program &prog, size_t cls = 16)
{
    TraceEngine engine(prog);
    LoopDetector det({cls});
    test::RecordedStats stats;
    det.addListener(&stats);
    engine.addObserver(&det);
    engine.run();
    return stats.report();
}

/** Shared two-level-nest builder (tests/test_util.hh). */
Program
nestProgram(int64_t outer, int64_t inner)
{
    return test::nestedLoops(outer, inner, 1);
}

TEST(LoopStats, SimpleLoopCounts)
{
    ProgramBuilder b("t", 0);
    b.beginFunction("main");
    b.li(r1, 0);
    b.li(r2, 10);
    b.countedLoop(r1, r2, [&](const LoopCtx &) { b.nop(); });
    b.halt();
    LoopStatsReport r = statsFor(b.build());
    EXPECT_EQ(r.staticLoops, 1u);
    EXPECT_EQ(r.totalExecs, 1u);
    EXPECT_EQ(r.totalIters, 10u);
    EXPECT_DOUBLE_EQ(r.itersPerExec, 10.0);
    EXPECT_EQ(r.maxNesting, 1u);
    EXPECT_EQ(r.singleIterExecs, 0u);
}

TEST(LoopStats, NestedCounts)
{
    LoopStatsReport r = statsFor(nestProgram(4, 6));
    EXPECT_EQ(r.staticLoops, 2u);
    // 1 outer execution + 4 inner executions.
    EXPECT_EQ(r.totalExecs, 5u);
    EXPECT_EQ(r.totalIters, 4u + 4 * 6u);
    EXPECT_EQ(r.maxNesting, 2u);
    // Inner executions: the first at depth 1 (outer undetected), three
    // at depth 2; outer at depth 1 -> avg = (1+1+2+2+2)/5.
    EXPECT_NEAR(r.avgNesting, 8.0 / 5.0, 1e-9);
}

TEST(LoopStats, SingleIterationLoopsCounted)
{
    LoopStatsReport r = statsFor(nestProgram(5, 1));
    // The inner trip-1 loop yields 5 single-iteration executions.
    EXPECT_EQ(r.singleIterExecs, 5u);
    EXPECT_EQ(r.staticLoops, 2u);
    EXPECT_EQ(r.totalExecs, 6u);
    EXPECT_EQ(r.totalIters, 5u + 5u);
}

TEST(LoopStats, InstrPerIterApproximation)
{
    // A trip-N loop whose iteration is exactly K instructions: the span
    // correction (iters/(iters-1)) reconstructs N*K from the detected
    // (N-1 iteration) span.
    constexpr int64_t trips = 50;
    ProgramBuilder b("t", 0);
    b.beginFunction("main");
    b.li(r1, 0);
    b.li(r2, trips);
    b.countedLoop(r1, r2, [&](const LoopCtx &) {
        for (int i = 0; i < 6; ++i)
            b.nop();
    });
    b.halt();
    LoopStatsReport r = statsFor(b.build());
    // Iteration = 6 nops + addi + blt = 8 instructions.
    EXPECT_NEAR(r.instrsPerIter, 8.0, 0.01);
}

TEST(LoopStats, LoopCoverageFractions)
{
    // Half the program inside a loop, half straight-line.
    ProgramBuilder b("t", 0);
    b.beginFunction("main");
    b.li(r1, 0);
    b.li(r2, 100);
    b.countedLoop(r1, r2, [&](const LoopCtx &) {
        for (int i = 0; i < 8; ++i)
            b.nop();
    });
    for (int i = 0; i < 400; ++i)
        b.nop();
    b.halt();
    LoopStatsReport r = statsFor(b.build());
    EXPECT_GT(r.loopCoverage, 0.5);
    EXPECT_LT(r.loopCoverage, 0.8);
}

TEST(LoopStats, OverflowDropsTracked)
{
    // Deep nest on a tiny CLS loses outer entries.
    ProgramBuilder b("t", 0);
    b.beginFunction("main");
    std::function<void(int)> nest = [&](int level) {
        Reg idx{static_cast<uint8_t>(1 + 2 * level)};
        Reg bnd{static_cast<uint8_t>(2 + 2 * level)};
        b.li(idx, 0);
        b.li(bnd, 3);
        b.countedLoop(idx, bnd, [&](const LoopCtx &) {
            if (level < 3)
                nest(level + 1);
            else
                b.nop();
        });
    };
    nest(0);
    b.halt();
    LoopStatsReport shallow = statsFor(b.build(), 2);
    EXPECT_GT(shallow.overflowDrops, 0u);
}

TEST(LoopStats, TotalInstrsMatchesEngine)
{
    Program p = nestProgram(3, 3);
    TraceEngine engine(p);
    LoopDetector det({16});
    test::RecordedStats stats;
    det.addListener(&stats);
    engine.addObserver(&det);
    uint64_t n = engine.run();
    EXPECT_EQ(stats.report().totalInstrs, n);
}

TEST(LoopStats, EveryWindowEqualsPerInstructionReference)
{
    // loopStatsFromRecording credits instructions from event positions
    // (each event first credits up to pos + 1, the close-out sits at
    // the window); the reference counts them as they retire. Every
    // window of a small nest with a single-iteration inner loop must
    // agree, field for field.
    Program p = nestProgram(3, 1);
    Program q = nestProgram(2, 3);
    for (const Program *prog : {&p, &q}) {
        TraceEngine engine(*prog);
        LoopDetector det({16});
        LoopEventRecorder rec;
        det.addListener(&rec);
        engine.addObserver(&det);
        const uint64_t n = engine.run();
        const LoopEventRecording recording = rec.take();
        for (uint64_t w = 1; w <= n; ++w) {
            SCOPED_TRACE(w);
            EngineConfig cfg;
            cfg.maxInstrs = w;
            TraceEngine ref_engine(*prog, cfg);
            synth::CountingReference ref(16);
            ref_engine.addObserver(&ref);
            DynInstr d;
            while (ref_engine.step(d)) {
            }
            const LoopStatsReport a = loopStatsFromRecording(recording, w);
            const LoopStatsReport &b = ref.loopStats();
            ASSERT_EQ(a.totalInstrs, b.totalInstrs);
            ASSERT_EQ(a.totalExecs, b.totalExecs);
            ASSERT_EQ(a.totalIters, b.totalIters);
            ASSERT_EQ(a.singleIterExecs, b.singleIterExecs);
            ASSERT_EQ(a.staticLoops, b.staticLoops);
            ASSERT_EQ(a.instrsPerIter, b.instrsPerIter);
            ASSERT_EQ(a.avgNesting, b.avgNesting);
            ASSERT_EQ(a.loopCoverage, b.loopCoverage);
        }
    }
}

} // namespace
} // namespace loopspec
