/**
 * @file
 * Scenario tests for the LoopDetector: one test per rule of the paper's
 * §2.2 CLS update algorithm, using hand-built programs and golden event
 * sequences (see CaptureListener::summary for the notation).
 */

#include <gtest/gtest.h>

#include "tests/test_util.hh"

namespace loopspec
{
namespace
{

using namespace regs;
using test::CaptureListener;
using test::trace;

/** Counted loop of a given trip count, nothing else. */
Program
countedProgram(int64_t trip)
{
    ProgramBuilder b("t", 0);
    b.beginFunction("main");
    b.li(r1, 0);
    b.li(r2, trip);
    b.countedLoop(r1, r2, [&](const LoopCtx &) { b.nop(); });
    b.halt();
    return b.build();
}

TEST(Detector, SimpleCountedLoop)
{
    CaptureListener cap = trace(countedProgram(5));
    EXPECT_EQ(cap.summary(),
              "A+ A:i2 A:i3 A:i4 A:i5 A:e5(close)");
    EXPECT_TRUE(cap.traceDone);
}

TEST(Detector, TwoIterationLoop)
{
    CaptureListener cap = trace(countedProgram(2));
    EXPECT_EQ(cap.summary(), "A+ A:i2 A:e2(close)");
}

TEST(Detector, SingleIterationLoopIsInvisibleButCounted)
{
    // Trip 1: the backward branch executes exactly once, not taken.
    CaptureListener cap = trace(countedProgram(1));
    EXPECT_EQ(cap.summary(), "A1");
    EXPECT_EQ(cap.count(CaptureListener::Item::ExecStart), 0u);
}

TEST(Detector, WhileLoopExitsViaForwardBranch)
{
    // whileLoop closes with a backward jmp; the exit is the taken test
    // branch at the head, whose target lies outside [T,B].
    ProgramBuilder b("t", 0);
    b.beginFunction("main");
    b.li(r1, 0);
    b.li(r2, 4);
    b.whileLoop([&](Label exit) { b.bge(r1, r2, exit); },
                [&](const LoopCtx &) { b.addi(r1, r1, 1); });
    b.halt();
    CaptureListener cap = trace(b.build());
    // 4 body runs = 4 backward jmps: iterations 2..5; iteration 5 is
    // the final test that exits.
    EXPECT_EQ(cap.summary(),
              "A+ A:i2 A:i3 A:i4 A:i5 A:e5(exit)");
}

TEST(Detector, NestedLoopsFullSequence)
{
    ProgramBuilder b("t", 0);
    b.beginFunction("main");
    b.li(r1, 0);
    b.li(r2, 2); // outer trip 2
    b.countedLoop(r1, r2, [&](const LoopCtx &) {
        b.li(r3, 0);
        b.li(r4, 3); // inner trip 3
        b.countedLoop(r3, r4, [&](const LoopCtx &) { b.nop(); });
    });
    b.halt();
    CaptureListener cap = trace(b.build());
    // Label A = inner (detected first), B = outer. The first inner
    // execution happens before the outer is detected.
    EXPECT_EQ(cap.summary(),
              "A+ A:i2 A:i3 A:e3(close) "
              "B+ B:i2 "
              "A+ A:i2 A:i3 A:e3(close) "
              "B:e2(close)");
}

TEST(Detector, NestedDepthsReported)
{
    ProgramBuilder b("t", 0);
    b.beginFunction("main");
    b.li(r1, 0);
    b.li(r2, 3);
    b.countedLoop(r1, r2, [&](const LoopCtx &) {
        b.li(r3, 0);
        b.li(r4, 2);
        b.countedLoop(r3, r4, [&](const LoopCtx &) { b.nop(); });
    });
    b.halt();
    CaptureListener cap = trace(b.build());
    // Inner executions: first at depth 1 (outer undetected), later at
    // depth 2.
    std::vector<uint32_t> exec_depths;
    for (const auto &it : cap.items)
        if (it.kind == CaptureListener::Item::ExecStart)
            exec_depths.push_back(it.depth);
    // inner(d1), outer(d1), inner(d2), inner(d2)
    ASSERT_EQ(exec_depths.size(), 4u);
    EXPECT_EQ(exec_depths[0], 1u);
    EXPECT_EQ(exec_depths[1], 1u);
    EXPECT_EQ(exec_depths[2], 2u);
    EXPECT_EQ(exec_depths[3], 2u);
}

TEST(Detector, BreakExitsWithPartialIteration)
{
    ProgramBuilder b("t", 0);
    b.beginFunction("main");
    b.li(r1, 0);
    b.li(r2, 100);
    b.li(r3, 5);
    b.countedLoop(r1, r2, [&](const LoopCtx &ctx) {
        b.bge(r1, r3, ctx.exit); // break when r1 reaches 5
        b.nop();
    });
    b.halt();
    CaptureListener cap = trace(b.build());
    // Bodies 1..5 complete (r1=0..4); body 6 breaks immediately.
    EXPECT_EQ(cap.summary(),
              "A+ A:i2 A:i3 A:i4 A:i5 A:i6 A:e6(exit)");
}

TEST(Detector, ReturnInsideLoopBodyPopsIt)
{
    ProgramBuilder b("t", 0);
    b.beginFunction("main");
    b.call("f");
    b.halt();
    b.beginFunction("f");
    b.li(r1, 0);
    b.li(r2, 100);
    b.li(r3, 3);
    b.countedLoop(r1, r2, [&](const LoopCtx &) {
        // Return out of the loop when r1 == 3 (pc inside [T,B]).
        b.ifElse([&](Label e) { b.bne(r1, r3, e); }, [&]() { b.ret(); });
    });
    b.ret();
    CaptureListener cap = trace(b.build());
    EXPECT_EQ(cap.summary(), "A+ A:i2 A:i3 A:i4 A:e4(return)");
}

TEST(Detector, CallAndCalleeLoopAreTransparent)
{
    // A loop that calls a function with its own loop: the callee's ret
    // (outside the caller-loop body) must not pop the caller's loop.
    ProgramBuilder b("t", 0);
    b.beginFunction("main");
    b.li(r1, 0);
    b.li(r2, 3);
    b.countedLoop(r1, r2, [&](const LoopCtx &) { b.call("f"); });
    b.halt();
    b.beginFunction("f");
    b.li(r3, 0);
    b.li(r4, 2);
    b.countedLoop(r3, r4, [&](const LoopCtx &) { b.nop(); });
    b.ret();
    CaptureListener cap = trace(b.build());
    // Callee loop = A (detected first, during caller iteration 1).
    EXPECT_EQ(cap.summary(),
              "A+ A:i2 A:e2(close) "
              "B+ B:i2 "
              "A+ A:i2 A:e2(close) "
              "B:i3 "
              "A+ A:i2 A:e2(close) "
              "B:e3(close)");
}

TEST(Detector, GotoOutOfNestPopsAllCoveringLoops)
{
    // goto from the inner body straight past both loops: one taken jump
    // whose pc is inside both bodies and whose target is outside both.
    ProgramBuilder b("t", 0);
    b.beginFunction("main");
    Label out = b.newLabel();
    b.li(r1, 0);
    b.li(r2, 10);
    b.li(r5, 2); // thresholds: fire once both loops are detected
    b.countedLoop(r1, r2, [&](const LoopCtx &) {
        b.li(r3, 0);
        b.li(r4, 10);
        b.countedLoop(r3, r4, [&](const LoopCtx &) {
            // Bail out from deep inside, but only when r1 == 2 and
            // r3 == 2, i.e. after the inner loop has iterated (it is
            // undetectable during its first iteration).
            b.ifElse([&](Label e) { b.bne(r1, r5, e); }, [&]() {
                b.ifElse([&](Label e2) { b.bne(r3, r5, e2); },
                         [&]() { b.jmp(out); });
            });
            b.nop();
        });
    });
    b.bind(out);
    b.halt();
    CaptureListener cap = trace(b.build());
    // Both executions end at the same goto, innermost first, reason
    // exit.
    const auto &items = cap.items;
    std::vector<size_t> exits;
    for (size_t i = 0; i < items.size(); ++i)
        if (items[i].kind == CaptureListener::Item::ExecEnd &&
            items[i].reason == ExecEndReason::Exit)
            exits.push_back(i);
    ASSERT_EQ(exits.size(), 2u);
    EXPECT_EQ(items[exits[0]].pos, items[exits[1]].pos);
    // CLS order: inner (greater depth) ended first.
    EXPECT_GT(items[exits[0]].loop, items[exits[1]].loop);
}

TEST(Detector, ContinuePatternTwoClosingBranches)
{
    // head: i++; if (i & 1) goto head (X, backward)
    //       nop; if (i < 8) goto head (Y, backward)
    //       halt
    ProgramBuilder b("t", 0);
    b.beginFunction("main");
    b.li(r1, 0);
    b.li(r2, 8);
    Label head = b.here();
    b.addi(r1, r1, 1);    // head
    b.andi(r3, r1, 1);
    b.bne(r3, r0, head);  // X: taken when i odd (backward)
    b.nop();
    b.blt(r1, r2, head);  // Y: taken while i < 8 (backward)
    b.halt();
    CaptureListener cap = trace(b.build());
    // i=1: X taken -> push, B=X, iter2. i=2: X not taken, B<=pc ->
    // close(2 iters). Y taken -> new execution, B=Y. From then on X
    // not-taken never closes (B=Y>X); X taken closes iterations, and
    // the final not-taken Y closes the execution.
    ASSERT_GE(cap.items.size(), 4u);
    auto execs = cap.count(CaptureListener::Item::ExecStart);
    EXPECT_EQ(execs, 2u);
    // First exec: closed early with 2 iterations.
    const CaptureListener::Item *first_end = nullptr;
    for (const auto &it : cap.items) {
        if (it.kind == CaptureListener::Item::ExecEnd) {
            first_end = &it;
            break;
        }
    }
    ASSERT_NE(first_end, nullptr);
    EXPECT_EQ(first_end->iter, 2u);
    EXPECT_EQ(first_end->reason, ExecEndReason::Close);
    // Second exec: runs to i=8 and closes at Y.
    EXPECT_EQ(cap.items.back().kind, CaptureListener::Item::ExecEnd);
    EXPECT_EQ(cap.items.back().reason, ExecEndReason::Close);
    EXPECT_GE(cap.items.back().iter, 6u);
}

TEST(Detector, RecursionReclassifiesInnerLoops)
{
    // The paper's s()/T1/T2 scenario: alternating loops across recursive
    // activations. An iteration of the outer activation's loop closes
    // while the inner activation's loop is live: the inner pops with
    // reason outer-close.
    ProgramBuilder b("t", 4096);
    b.beginFunction("main");
    b.li(r29, 64); // spill sp
    b.li(r10, 3);  // depth
    b.call("s");
    b.halt();
    b.beginFunction("s");
    Label leaf = b.newLabel();
    b.beq(r10, r0, leaf);
    b.andi(r11, r10, 1);
    b.li(r14, 1);
    // Each arm is a distinct static loop (the paper's T1/T2). The
    // recursive call fires in the loop's *second* body, after the first
    // backward branch has pushed the loop onto the CLS — so the inner
    // activation finds the outer activation's loop live.
    auto arm = [&]() {
        b.li(r12, 0);
        b.li(r13, 3);
        b.countedLoop(r12, r13, [&](const LoopCtx &) {
            b.ifElse([&](Label e) { b.bne(r12, r14, e); }, [&]() {
                b.st(r10, r29, 0);
                b.st(r12, r29, 1);
                b.st(r13, r29, 2);
                b.st(r14, r29, 3);
                b.addi(r29, r29, 4);
                b.addi(r10, r10, -1);
                b.call("s");
                b.addi(r29, r29, -4);
                b.ld(r10, r29, 0);
                b.ld(r12, r29, 1);
                b.ld(r13, r29, 2);
                b.ld(r14, r29, 3);
            });
        });
    };
    b.ifElse([&](Label e) { b.beq(r11, r0, e); }, [&]() { arm(); },
             [&]() { arm(); });
    b.bind(leaf);
    b.ret();
    CaptureListener cap = trace(b.build());
    // Structural assertions: some executions must end with outer-close
    // (the reclassification), and the trace must drain.
    size_t outer_close = 0;
    for (const auto &it : cap.items)
        if (it.kind == CaptureListener::Item::ExecEnd &&
            it.reason == ExecEndReason::OuterClose)
            ++outer_close;
    EXPECT_GT(outer_close, 0u);
    EXPECT_TRUE(cap.traceDone);
}

TEST(Detector, OverflowDropsDeepestEntry)
{
    // 3-deep nest on a 2-entry CLS: pushing the innermost must drop the
    // outermost.
    ProgramBuilder b("t", 0);
    b.beginFunction("main");
    b.li(r1, 0);
    b.li(r2, 2);
    b.countedLoop(r1, r2, [&](const LoopCtx &) {
        b.li(r3, 0);
        b.li(r4, 2);
        b.countedLoop(r3, r4, [&](const LoopCtx &) {
            b.li(r5, 0);
            b.li(r6, 2);
            b.countedLoop(r5, r6, [&](const LoopCtx &) { b.nop(); });
        });
    });
    b.halt();
    CaptureListener cap = trace(b.build(), /*cls_entries=*/2);
    size_t overflows = 0;
    for (const auto &it : cap.items)
        if (it.kind == CaptureListener::Item::ExecEnd &&
            it.reason == ExecEndReason::Overflow)
            ++overflows;
    EXPECT_GT(overflows, 0u);
    EXPECT_TRUE(cap.traceDone);
}

TEST(Detector, NoOverflowWithSixteenEntries)
{
    ProgramBuilder b("t", 0);
    b.beginFunction("main");
    // 5-deep nest fits easily in 16 entries.
    std::function<void(int)> nest = [&](int level) {
        Reg idx{static_cast<uint8_t>(1 + 2 * level)};
        Reg bnd{static_cast<uint8_t>(2 + 2 * level)};
        b.li(idx, 0);
        b.li(bnd, 2);
        b.countedLoop(idx, bnd, [&](const LoopCtx &) {
            if (level < 4)
                nest(level + 1);
            else
                b.nop();
        });
    };
    nest(0);
    b.halt();
    CaptureListener cap = trace(b.build(), 16);
    for (const auto &it : cap.items) {
        if (it.kind == CaptureListener::Item::ExecEnd) {
            EXPECT_NE(it.reason, ExecEndReason::Overflow);
        }
    }
}

TEST(Detector, TruncatedTraceFlushesWithTraceEnd)
{
    ProgramBuilder b("t", 0);
    b.beginFunction("main");
    Label head = b.here();
    b.addi(r1, r1, 1);
    b.jmp(head);
    Program p = b.build();
    CaptureListener cap = trace(p, 16, /*max_instrs=*/101);
    ASSERT_FALSE(cap.items.empty());
    const auto &last = cap.items.back();
    EXPECT_EQ(last.kind, CaptureListener::Item::ExecEnd);
    EXPECT_EQ(last.reason, ExecEndReason::TraceEnd);
    EXPECT_TRUE(cap.traceDone);
    EXPECT_EQ(cap.totalInstrs, 101u);
}

TEST(Detector, DispatchLoopWithManyClosingJumps)
{
    // Interpreter shape: several handlers each ending in jmp head. The
    // loop must be detected once with iterations matching the executed
    // bytecode count, exiting through the head test.
    ProgramBuilder b("t", 64);
    b.beginFunction("main");
    b.li(r1, 0);
    b.li(r2, 6); // steps
    Label head = b.here();
    Label exit_l = b.newLabel();
    Label h0 = b.newLabel();
    Label h1 = b.newLabel();
    b.bge(r1, r2, exit_l);
    b.addi(r1, r1, 1);
    b.andi(r3, r1, 1);
    b.ifElse([&](Label e) { b.beq(r3, r0, e); },
             [&]() { b.jmp(h0); }, [&]() { b.jmp(h1); });
    b.bind(h0);
    b.nop();
    b.jmp(head); // closing jump #1
    b.bind(h1);
    b.nop();
    b.nop();
    b.jmp(head); // closing jump #2 (higher address: raises B)
    b.bind(exit_l);
    b.halt();
    CaptureListener cap = trace(b.build());
    // Warm-up split: the first execution is detected with B at handler
    // 0's closing jump; the first dispatch into handler 1 (beyond B)
    // looks like a loop exit, and handler 1's closing jump re-detects
    // the loop with B covering both handlers. This transient is
    // inherent to the paper's dynamic B growth.
    EXPECT_EQ(cap.count(CaptureListener::Item::ExecStart), 2u);
    const auto *first_end = &cap.items.front();
    for (const auto &it : cap.items) {
        if (it.kind == CaptureListener::Item::ExecEnd) {
            first_end = &it;
            break;
        }
    }
    EXPECT_EQ(first_end->reason, ExecEndReason::Exit);
    // The steady-state execution covers the remaining bodies and exits
    // through the head test.
    const auto &last = cap.items.back();
    EXPECT_EQ(last.kind, CaptureListener::Item::ExecEnd);
    EXPECT_EQ(last.reason, ExecEndReason::Exit);
    EXPECT_EQ(last.iter, 6u);
}

TEST(Detector, ClsExposedStateDrains)
{
    CaptureListener cap = trace(countedProgram(4));
    // After a full run the detector reports via traceDone and the stack
    // must have drained (checked indirectly: every ExecStart has a
    // matching ExecEnd).
    EXPECT_EQ(cap.count(CaptureListener::Item::ExecStart),
              cap.count(CaptureListener::Item::ExecEnd));
}

TEST(Detector, OverlappedLoopsFigure2)
{
    // The paper's Figure 2(c/d): loops T1 < T2 with B(T1) < B(T2) after
    // warm-up (neither body contains the other). A step counter r5
    // (incremented at T2) scripts the exact control schedule:
    //   T1: nop
    //   T2: r5++
    //   X:  if (r5 == 2) goto T1   // closes a T1 iteration
    //   G:  if (r5 == 5) goto W    // pc in T1 body, target beyond B(T1)
    //   Y:  if (r5 == 3) goto T2   // detects T2
    //   Z:  if (r5 <= 1) goto T1   // detects T1, B(T1) = Z
    //   W:  if (r5 == 4) goto T2   // raises B(T2) past Z: overlap
    //   V:  if (r5 <= 5) goto T2
    // At r5 == 5 the taken G exits T1 (its target W lies outside
    // [T1,Z]) while T2 is still live ABOVE it in the CLS — the
    // middle-removal case only overlapped loops can produce.
    ProgramBuilder b("t", 0);
    b.beginFunction("main");
    b.li(r6, 1);
    b.li(r7, 2);
    b.li(r8, 3);
    b.li(r9, 4);
    b.li(r10, 5);
    Label t1 = b.here();
    b.nop();
    Label t2 = b.here();
    b.addi(r5, r5, 1);
    b.beq(r5, r7, t1); // X
    Label w = b.newLabel();
    b.beq(r5, r10, w); // G
    b.beq(r5, r8, t2); // Y
    b.ble(r5, r6, t1); // Z
    b.bind(w);
    b.beq(r5, r9, t2); // W
    b.ble(r5, r10, t2); // V
    b.halt();
    CaptureListener cap = trace(b.build());
    // What the paper's rules actually do on overlapped code (a finding
    // this test freezes): a *stable* overlapped CLS state never forms.
    // Whenever control falls past a loop's current B, the not-taken
    // closing branch at B retires that loop before the other loop's B
    // can grow beyond it, so overlapped regions resolve into sequences
    // of short executions, re-detections, and phantom single-iteration
    // events for the sibling loop's not-taken closing branches. The
    // exact stream:
    EXPECT_EQ(cap.summary(),
              "A1 B1 A+ A:i2 A:i3 B+ B:i2 B:e2(close) A:e3(close) "
              "B+ B:i2 A1 B:e2(close) B+ B:i2 A1 A1 B:e2(close)");
    // Conservation still holds and the CLS drains.
    EXPECT_EQ(cap.count(CaptureListener::Item::ExecStart),
              cap.count(CaptureListener::Item::ExecEnd));
    EXPECT_TRUE(cap.traceDone);
}

TEST(Detector, FlushDisabledByDefault)
{
    CaptureListener cap = trace(countedProgram(50));
    for (const auto &it : cap.items) {
        if (it.kind == CaptureListener::Item::ExecEnd) {
            EXPECT_NE(it.reason, ExecEndReason::Flush);
        }
    }
}

TEST(Detector, IterEndPrecedesIterStartAtSamePos)
{
    CaptureListener cap = trace(countedProgram(3));
    // For every IterStart at position p with index k, there must be an
    // IterEnd at p with index k-1 (except index 2 whose predecessor is
    // the undetectable first iteration).
    for (size_t i = 0; i < cap.items.size(); ++i) {
        const auto &it = cap.items[i];
        if (it.kind == CaptureListener::Item::IterStart && it.iter > 2) {
            ASSERT_GT(i, 0u);
            const auto &prev = cap.items[i - 1];
            EXPECT_EQ(prev.kind, CaptureListener::Item::IterEnd);
            EXPECT_EQ(prev.iter, it.iter - 1);
            EXPECT_EQ(prev.pos, it.pos);
        }
    }
}

} // namespace
} // namespace loopspec
