/** @file Unit tests for the workload kernel toolkit: spill stack, LCG,
 *  array/ring initialisers, probes, chases, dispatch loops, recursion,
 *  nest emitters, loop farm. */

#include <gtest/gtest.h>

#include "loop/loop_stats.hh"
#include "tests/test_util.hh"
#include "workloads/kernels.hh"

namespace loopspec
{
namespace
{

using namespace regs;
using namespace kernels;

/** Standard test prologue: spill sp at 64, seeded LCG. */
void
prologue(ProgramBuilder &b, int64_t seed = 0x1234)
{
    b.beginFunction("main");
    b.li(spReg, 64);
    b.li(lcgReg, seed);
}

TEST(Kernels, PushPopRoundTrip)
{
    ProgramBuilder b("t", 256);
    prologue(b);
    b.li(r1, 11);
    b.li(r2, 22);
    emitPush(b, r1);
    emitPush(b, r2);
    b.li(r1, 0);
    b.li(r2, 0);
    emitPop(b, r2);
    emitPop(b, r1);
    b.halt();
    TraceEngine e(b.build());
    e.run();
    EXPECT_EQ(e.readReg(r1), 11);
    EXPECT_EQ(e.readReg(r2), 22);
    EXPECT_EQ(e.readReg(spReg), 64); // balanced
}

TEST(Kernels, LcgIsDeterministicAndNonNegative)
{
    auto run = [](int64_t seed) {
        ProgramBuilder b("t", 64);
        prologue(b, seed);
        emitLcgStep(b, r20);
        emitLcgStep(b, r21);
        b.halt();
        TraceEngine e(b.build());
        e.run();
        return std::make_pair(e.readReg(r20), e.readReg(r21));
    };
    auto [a1, a2] = run(7);
    auto [b1, b2] = run(7);
    auto [c1, c2] = run(8);
    EXPECT_EQ(a1, b1);
    EXPECT_EQ(a2, b2);
    EXPECT_TRUE(a1 != c1 || a2 != c2);
    EXPECT_GE(a1, 0);
    EXPECT_GE(a2, 0);
    EXPECT_NE(a1, a2);
}

TEST(Kernels, ArrayInitWritesLinearValues)
{
    ProgramBuilder b("t", 512);
    prologue(b);
    emitArrayInit(b, 100, 50, 0xffff, r1, r20, r2);
    b.halt();
    TraceEngine e(b.build());
    e.run();
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(e.readMem(100 + i), (5 * i) & 0xffff) << i;
}

TEST(Kernels, BigBlockEmitsExactCount)
{
    for (unsigned n : {0u, 1u, 4u, 17u}) {
        ProgramBuilder b("t", 0);
        b.beginFunction("main");
        size_t before = b.currentAddr();
        emitBigBlock(b, n, r20, r21);
        size_t emitted = (b.currentAddr() - before) / instrBytes;
        b.halt();
        EXPECT_EQ(emitted, n);
        (void)b.build();
    }
}

TEST(Kernels, HashProbeTerminatesAndInserts)
{
    // Probe a fully saturated table: the probe limit must stop the walk.
    ProgramBuilder b("t", 4096 + 256);
    prologue(b);
    // Fill all 256 slots with a non-zero value that can't match keys
    // (keys are odd via ori 1; use value 2).
    b.li(r1, 0);
    b.li(r2, 256);
    b.li(r3, 2);
    b.countedLoop(r1, r2, [&](const LoopCtx &) { b.st(r3, r1, 512); });
    for (int i = 0; i < 20; ++i)
        emitHashProbe(b, 512, 255);
    b.halt();
    TraceEngine e(b.build());
    uint64_t n = e.run();
    EXPECT_LT(n, 100000u); // bounded: no infinite probe walks
}

TEST(Kernels, RingInitBuildsChains)
{
    ProgramBuilder b("t", 1024);
    prologue(b);
    emitRingInit(b, 100, 60, 6);
    b.halt();
    TraceEngine e(b.build());
    e.run();
    for (int i = 0; i < 60; ++i) {
        if (i % 6 == 5)
            EXPECT_EQ(e.readMem(100 + i), -1) << i;
        else
            EXPECT_EQ(e.readMem(100 + i), i + 1) << i;
    }
}

TEST(Kernels, PointerChaseFollowsToSentinel)
{
    ProgramBuilder b("t", 1024);
    prologue(b);
    emitRingInit(b, 100, 30, 5);
    b.li(r10, 0); // start at a chain head: 5 hops to the sentinel
    emitPointerChase(b, 100, r10, 64, 2);
    b.mov(r15, r21); // step counter lives in r21
    b.halt();
    TraceEngine e(b.build());
    e.run();
    EXPECT_EQ(e.readReg(r15), 5);
}

TEST(Kernels, PointerChaseHonoursStepLimit)
{
    // A self-loop (next[0] = 0) would walk forever without the limit.
    ProgramBuilder b("t", 1024);
    prologue(b);
    b.st(r0, r0, 100); // next[0] = 0
    b.li(r10, 0);
    emitPointerChase(b, 100, r10, 12, 1);
    b.mov(r15, r21);
    b.halt();
    TraceEngine e(b.build());
    e.run();
    EXPECT_EQ(e.readReg(r15), 12);
}

TEST(Kernels, DispatchLoopExecutesBudget)
{
    ProgramBuilder b("t", 8192 + 1024);
    prologue(b);
    std::vector<DispatchHandler> handlers = {
        {4, false, false, 0}, {6, true, false, 0}, {5, false, true, 3}};
    emitDispatchLoop(b, handlers, 8192, 8192 + 64, 256, 40);
    b.halt();
    TraceEngine e(b.build());
    e.run();
    EXPECT_EQ(e.readReg(r2), 40); // bytecode budget consumed exactly
}

TEST(Kernels, DispatchLoopDetectedAsOneLoopWithManyClosers)
{
    ProgramBuilder b("t", 8192 + 1024);
    prologue(b);
    std::vector<DispatchHandler> handlers = {
        {4, false, false, 0}, {6, false, false, 0},
        {5, false, false, 0}, {3, false, false, 0}};
    emitDispatchLoop(b, handlers, 8192, 8192 + 64, 256, 300);
    b.halt();
    Program p = b.build();
    TraceEngine e(p);
    LoopDetector det({16});
    test::RecordedStats stats;
    det.addListener(&stats);
    e.addObserver(&det);
    e.run();
    const auto &r = stats.report();
    // Init loops (bytecode fill) + the dispatch loop; after the warm-up
    // splits (B grows handler by handler) the dominant execution covers
    // most of the 300 steps.
    EXPECT_GE(r.totalIters, 300u);
    EXPECT_LE(r.totalExecs, 16u); // warm-up splits are bounded by
                                  // handler count + init loops
}

TEST(Kernels, RecursiveTreeBalancesStack)
{
    ProgramBuilder b("t", 4096);
    prologue(b);
    b.li(r10, 5);
    b.call("walk");
    b.halt();
    emitRecursiveTree(b, "walk", "walk", 3, 6);
    TraceEngine e(b.build());
    e.run();
    EXPECT_EQ(e.readReg(spReg), 64); // spill stack balanced
    EXPECT_EQ(e.callDepth(), 0u);
}

TEST(Kernels, LoopFarmAddsExactStaticLoops)
{
    ProgramBuilder b("t", 64);
    prologue(b);
    emitLoopFarm(b, 23, 3, 2);
    b.halt();
    Program p = b.build();
    TraceEngine e(p);
    LoopDetector det({16});
    test::RecordedStats stats;
    det.addListener(&stats);
    e.addObserver(&det);
    e.run();
    EXPECT_EQ(stats.report().staticLoops, 23u);
    EXPECT_EQ(stats.report().totalExecs, 23u);
}

TEST(Kernels, NestEmittersProduceExpectedIterations)
{
    ProgramBuilder b("t", 1 << 12);
    prologue(b);
    emitRegularNest(b, {{3, 2, false}, {4, 2, true}}, 512, 1 << 9);
    b.halt();
    Program p = b.build();
    TraceEngine e(p);
    LoopDetector det({16});
    test::RecordedStats stats;
    det.addListener(&stats);
    e.addObserver(&det);
    e.run();
    // Outer 3 iterations, inner 3 executions x 4 iterations.
    EXPECT_EQ(stats.report().totalIters, 3u + 12u);
    EXPECT_EQ(stats.report().totalExecs, 4u);
}

TEST(Kernels, VarNestTripsWithinBounds)
{
    // lo=2 mask=3: every execution's trip in [2,5].
    ProgramBuilder b("t", 1 << 12);
    prologue(b);
    b.li(r9, 0);
    b.li(r19, 30);
    b.countedLoop(r9, r19, [&](const LoopCtx &) {
        emitVarNest(b, {{2, 3, 2, false}}, 512, 1 << 9);
    });
    b.halt();
    Program p = b.build();
    TraceEngine e(p);
    LoopDetector det({16});
    test::CaptureListener cap;
    det.addListener(&cap);
    e.addObserver(&det);
    e.run();
    // Collect Close-terminated executions; the single 30-iteration one
    // is the driver, everything else is the variable nest.
    size_t drivers = 0;
    for (const auto &it : cap.items) {
        if (it.kind != test::CaptureListener::Item::ExecEnd ||
            it.reason != ExecEndReason::Close)
            continue;
        if (it.iter == 30) {
            ++drivers;
            continue;
        }
        EXPECT_GE(it.iter, 2u);
        EXPECT_LE(it.iter, 5u);
    }
    EXPECT_EQ(drivers, 1u);
}

} // namespace
} // namespace loopspec
