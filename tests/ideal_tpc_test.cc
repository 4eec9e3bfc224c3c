/** @file Unit tests for the infinite-TU ideal TPC model (Figure 5),
 *  validated against closed-form durations on crafted programs. */

#include <gtest/gtest.h>

#include "speculation/ideal_tpc.hh"
#include "synth/count_reference.hh"
#include "tests/test_util.hh"

namespace loopspec
{
namespace
{

using namespace regs;

struct IdealRun
{
    uint64_t instrs;
    uint64_t cycles;
    double tpc;
};

IdealRun
idealFor(const Program &prog)
{
    TraceEngine engine(prog);
    LoopDetector det({16});
    IdealTpcComputer ideal;
    det.addListener(&ideal);
    engine.addObserver(&det);
    uint64_t n = engine.run();
    return {n, ideal.idealCycles(), ideal.tpc()};
}

using test::flatLoop;

TEST(IdealTpc, StraightLineHasNoParallelism)
{
    ProgramBuilder b("t", 0);
    b.beginFunction("main");
    for (int i = 0; i < 100; ++i)
        b.nop();
    b.halt();
    IdealRun r = idealFor(b.build());
    EXPECT_EQ(r.cycles, r.instrs);
    EXPECT_DOUBLE_EQ(r.tpc, 1.0);
}

TEST(IdealTpc, SingleLoopClosedForm)
{
    // Loop of N iterations, each L instructions. Detection at the end
    // of iteration 1; iterations 2..N run in parallel afterwards:
    //   dur = prologue + L (iter 1, serial) + L (max of the rest)
    //       + epilogue.
    constexpr int64_t trips = 20;
    constexpr uint64_t iter_len = 6; // 4 nops + addi + blt
    Program p = flatLoop(trips, 4);
    IdealRun r = idealFor(p);
    // prologue: li,li = 2; epilogue: halt = 1.
    EXPECT_EQ(r.cycles, 2 + iter_len + iter_len + 1);
    EXPECT_EQ(r.instrs, 2 + trips * iter_len + 1);
}

TEST(IdealTpc, TpcGrowsLinearlyWithTrips)
{
    IdealRun small = idealFor(flatLoop(10, 4));
    IdealRun big = idealFor(flatLoop(100, 4));
    EXPECT_GT(big.tpc, small.tpc * 5);
}

TEST(IdealTpc, NestedLoopsMultiplyParallelism)
{
    // outer x inner nest: the ideal machine overlaps outer iterations
    // AND within each, inner iterations: TPC ~ (trips_o*trips_i) /
    // (2 * (2 * iter_i)) modulo prologue terms.
    ProgramBuilder b("t", 0);
    b.beginFunction("main");
    b.li(r1, 0);
    b.li(r2, 16);
    b.countedLoop(r1, r2, [&](const LoopCtx &) {
        b.li(r3, 0);
        b.li(r4, 16);
        b.countedLoop(r3, r4, [&](const LoopCtx &) {
            for (int i = 0; i < 6; ++i)
                b.nop();
        });
    });
    b.halt();
    IdealRun flat = idealFor(flatLoop(16, 6));
    IdealRun nest = idealFor(b.build());
    // The nest has ~16x the work of the flat loop but should run in
    // roughly 2x the ideal time (one extra serial first-iteration).
    EXPECT_GT(nest.tpc, flat.tpc * 3);
}

TEST(IdealTpc, SingleIterationLoopsAddNothing)
{
    Program p1 = flatLoop(1, 10);
    IdealRun r = idealFor(p1);
    EXPECT_EQ(r.cycles, r.instrs); // fully serial
}

TEST(IdealTpc, CyclesNeverExceedInstrs)
{
    for (int64_t trips : {1, 2, 3, 7, 31}) {
        IdealRun r = idealFor(flatLoop(trips, 3));
        EXPECT_LE(r.cycles, r.instrs);
        EXPECT_GE(r.tpc, 1.0);
    }
}

TEST(IdealTpc, TruncatedTraceStillAccounted)
{
    ProgramBuilder b("t", 0);
    b.beginFunction("main");
    Label head = b.here();
    b.addi(r1, r1, 1);
    b.nop();
    b.nop();
    b.jmp(head);
    Program p = b.build();
    EngineConfig cfg;
    cfg.maxInstrs = 4000;
    TraceEngine engine(p, cfg);
    LoopDetector det({16});
    IdealTpcComputer ideal;
    det.addListener(&ideal);
    engine.addObserver(&det);
    engine.run();
    // One endless loop: iteration = 4 instrs; dur = iter1 + max(rest).
    EXPECT_EQ(ideal.idealCycles(), 8u);
    EXPECT_EQ(ideal.totalInstrs(), 4000u);
}

TEST(IdealTpc, LiveComputerCutInsideOpenLoopEqualsRecording)
{
    // A default-constructed IdealTpcComputer on a live detector whose
    // trace is cut inside an open loop nest must equal
    // idealFromRecording of the same pass — and the per-instruction
    // reference.
    Program p = test::nestedLoops(12, 9, 2);
    EngineConfig cfg;
    cfg.maxInstrs = 301;
    TraceEngine engine(p, cfg);
    LoopDetector det({16});
    IdealTpcComputer ideal;
    LoopEventRecorder rec;
    det.addListener(&ideal);
    det.addListener(&rec);
    engine.addObserver(&det);
    const uint64_t n = engine.run();
    ASSERT_EQ(n, 301u);
    const LoopEventRecording recording = rec.take();
    ASSERT_FALSE(recording.execs.empty());
    EXPECT_EQ(recording.execs.back().endReason, ExecEndReason::TraceEnd)
        << "the cut must fall inside an open loop";

    const IdealResult want = idealFromRecording(recording, n);
    EXPECT_EQ(ideal.totalInstrs(), want.instrs);
    EXPECT_EQ(ideal.idealCycles(), want.cycles);
    EXPECT_EQ(ideal.tpc(), want.tpc());

    TraceEngine ref_engine(p, cfg);
    synth::CountingReference ref(16);
    ref_engine.addObserver(&ref);
    DynInstr d;
    while (ref_engine.step(d)) {
    }
    EXPECT_EQ(ref.ideal().instrs, want.instrs);
    EXPECT_EQ(ref.ideal().cycles, want.cycles);
}

TEST(IdealTpc, EveryWindowEqualsPerInstructionReference)
{
    // idealFromRecording credits instructions from event positions; the
    // reference counts them as they retire. Every window of a small
    // nest — cuts before, inside and after every loop event — must
    // agree.
    Program p = test::nestedLoops(3, 4, 1);
    TraceEngine engine(p);
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
        TraceEngine ref_engine(p, cfg);
        synth::CountingReference ref(16);
        ref_engine.addObserver(&ref);
        DynInstr d;
        while (ref_engine.step(d)) {
        }
        const IdealResult got = idealFromRecording(recording, w);
        ASSERT_EQ(got.instrs, ref.ideal().instrs);
        ASSERT_EQ(got.cycles, ref.ideal().cycles);
    }
}

} // namespace
} // namespace loopspec
