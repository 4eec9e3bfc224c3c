/**
 * @file
 * Equivalence tests for the three trace-pipeline execution paths:
 * run() (predecoded + batched) vs step() (scalar reference) must produce
 * bit-identical DynInstr sequences, and the record/replay paths
 * (control-event trace, loop-event stream) must reproduce the Table-1
 * and Figure-4 artifacts of direct execution exactly.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "dataspec/data_profiler.hh"
#include "dataspec/mem_trace.hh"
#include "harness/runner.hh"
#include "loop/loop_detector.hh"
#include "loop/loop_stats.hh"
#include "program/builder.hh"
#include "speculation/event_record.hh"
#include "speculation/ideal_tpc.hh"
#include "synth/diff_checker.hh"
#include "tables/hit_ratio.hh"
#include "tests/test_util.hh"
#include "trace_io/container.hh"
#include "trace_io/stream_reader.hh"
#include "trace_io/trace_codec.hh"
#include "tracegen/control_trace.hh"
#include "tracegen/trace_engine.hh"
#include "workloads/workload.hh"

namespace loopspec
{
namespace
{

using namespace regs;

constexpr double kScale = 0.02;
const char *const kWorkloads[] = {"compress", "li"};

/** Collects every DynInstr via either delivery path. */
class Collector : public TraceObserver
{
  public:
    std::vector<DynInstr> all;
    void onInstr(const DynInstr &d) override { all.push_back(d); }
};

void
expectSameInstr(const DynInstr &a, const DynInstr &b, size_t i)
{
    EXPECT_EQ(a.seq, b.seq) << "instr " << i;
    EXPECT_EQ(a.pc, b.pc) << "instr " << i;
    EXPECT_EQ(a.target, b.target) << "instr " << i;
    EXPECT_EQ(a.op, b.op) << "instr " << i;
    EXPECT_EQ(a.kind, b.kind) << "instr " << i;
    EXPECT_EQ(a.taken, b.taken) << "instr " << i;
    EXPECT_EQ(a.numSrc, b.numSrc) << "instr " << i;
    EXPECT_EQ(a.srcReg[0], b.srcReg[0]) << "instr " << i;
    EXPECT_EQ(a.srcReg[1], b.srcReg[1]) << "instr " << i;
    EXPECT_EQ(a.srcVal[0], b.srcVal[0]) << "instr " << i;
    EXPECT_EQ(a.srcVal[1], b.srcVal[1]) << "instr " << i;
    EXPECT_EQ(a.hasDst, b.hasDst) << "instr " << i;
    EXPECT_EQ(a.dstReg, b.dstReg) << "instr " << i;
    EXPECT_EQ(a.dstVal, b.dstVal) << "instr " << i;
    EXPECT_EQ(a.isLoad, b.isLoad) << "instr " << i;
    EXPECT_EQ(a.isStore, b.isStore) << "instr " << i;
    EXPECT_EQ(a.memAddr, b.memAddr) << "instr " << i;
    EXPECT_EQ(a.memVal, b.memVal) << "instr " << i;
}

void
expectSameStream(const Program &prog, uint64_t max_instrs = 0)
{
    EngineConfig cfg;
    cfg.maxInstrs = max_instrs;

    Collector scalar;
    TraceEngine se(prog, cfg);
    se.addObserver(&scalar);
    DynInstr d;
    while (se.step(d)) {
    }

    Collector batched;
    TraceEngine be(prog, cfg);
    be.addObserver(&batched);
    be.run();

    ASSERT_EQ(scalar.all.size(), batched.all.size());
    for (size_t i = 0; i < scalar.all.size(); ++i) {
        expectSameInstr(scalar.all[i], batched.all[i], i);
        if (::testing::Test::HasFailure())
            break; // one mismatch is enough detail
    }
}

TEST(RunVsStep, AllOpcodeShapesProduceIdenticalRecords)
{
    // Exercises every operand/record shape: ALU reg and imm forms,
    // loads/stores, taken/not-taken branches, direct and indirect
    // jumps/calls, returns, recursion.
    ProgramBuilder b("t", 256);
    b.beginFunction("main");
    b.li(r1, 7);
    b.li(r2, 3);
    b.add(r3, r1, r2);
    b.sub(r4, r1, r2);
    b.mul(r5, r1, r2);
    b.div(r6, r1, r2);
    b.rem(r7, r1, r2);
    b.and_(r8, r1, r2);
    b.or_(r9, r1, r2);
    b.xor_(r10, r1, r2);
    b.shl(r11, r1, r2);
    b.shr(r12, r1, r2);
    b.slt(r13, r1, r2);
    b.sle(r14, r1, r2);
    b.seq(r15, r1, r2);
    b.sne(r16, r1, r2);
    b.addi(r17, r1, -2);
    b.muli(r18, r1, 5);
    b.andi(r19, r1, 6);
    b.ori(r20, r1, 8);
    b.xori(r21, r1, 15);
    b.shli(r22, r1, 2);
    b.shri(r23, r1, 1);
    b.mov(r24, r1);
    b.st(r5, r2, 4);
    b.ld(r25, r2, 4);
    Label skip = b.newLabel();
    b.blt(r2, r1, skip); // taken
    b.li(r26, 111);
    b.bind(skip);
    b.bgt(r2, r1, skip); // not taken
    b.call("leaf");
    b.liFunc(r27, "leaf");
    b.callInd(r27);
    Label over = b.newLabel();
    b.liLabel(r28, over);
    b.jmpInd(r28);
    b.li(r29, 222); // skipped
    b.bind(over);
    // A loop so backward control flow appears too.
    b.li(r1, 0);
    b.li(r2, 5);
    b.countedLoop(r1, r2, [&](const LoopCtx &) { b.nop(); });
    b.halt();
    b.beginFunction("leaf");
    b.addi(r30, r30, 1);
    b.ret();
    expectSameStream(b.build());
}

TEST(RunVsStep, WorkloadStreamsAreIdentical)
{
    for (const char *name : kWorkloads) {
        SCOPED_TRACE(name);
        expectSameStream(buildWorkload(name, {kScale}));
    }
}

TEST(RunVsStep, FuelTruncationMatches)
{
    Program p = buildWorkload("compress", {kScale});
    expectSameStream(p, 777);
}

TEST(RunVsStep, MixedSteppingAndRunning)
{
    // step() a prefix, run() the rest: the combined stream must equal a
    // pure-scalar trace (shared architectural state across both paths).
    Program p = buildWorkload("li", {kScale});

    Collector scalar;
    TraceEngine se(p);
    se.addObserver(&scalar);
    DynInstr d;
    while (se.step(d)) {
    }

    Collector mixed;
    TraceEngine me(p);
    me.addObserver(&mixed);
    for (int i = 0; i < 1000 && me.step(d); ++i) {
    }
    me.run();

    ASSERT_EQ(scalar.all.size(), mixed.all.size());
    for (size_t i = 0; i < scalar.all.size(); ++i) {
        expectSameInstr(scalar.all[i], mixed.all[i], i);
        if (::testing::Test::HasFailure())
            break;
    }
}

// ------------------------------------------------------------------
// SoA batch delivery (tracegen/dyn_instr.hh): the hot planes, the
// control index, and materialized records must all be
// bit-identical to the step() reference — at the default batch size,
// at odd batch sizes that misalign every batch boundary, and under
// mid-stream fuel truncation.

/** Hot-plane consumer: collects the planes positionally and checks the
 *  producer honoured the HotPlanes contract (no cold planes). */
class HotPlaneCollector : public TraceObserver
{
  public:
    struct Hot
    {
        uint64_t seq;
        uint32_t pc;
        uint32_t target;
        CtrlKind kind;
        bool taken;
    };
    std::vector<Hot> all;
    size_t batches = 0;
    bool sawColdPlanes = false;
    bool ctrlIndexExact = true;

    void
    onInstr(const DynInstr &d) override
    {
        all.push_back({d.seq, d.pc, d.target, d.kind, d.taken});
    }

    void
    onInstrBatchSoA(const SoaBatch &b) override
    {
        ++batches;
        sawColdPlanes = sawColdPlanes || b.hasColdPlanes();
        size_t c = 0;
        for (size_t i = 0; i < b.count; ++i) {
            const bool is_ctrl =
                static_cast<CtrlKind>(b.kind[i]) != CtrlKind::None;
            const bool indexed =
                c < b.numCtrl && b.ctrl[c] == static_cast<uint32_t>(i);
            if (is_ctrl != indexed)
                ctrlIndexExact = false;
            c += indexed;
            all.push_back({b.seqBase + i, b.pc[i], b.target[i],
                           static_cast<CtrlKind>(b.kind[i]),
                           b.taken[i] != 0});
        }
        if (c != b.numCtrl)
            ctrlIndexExact = false;
    }

    BatchNeed batchNeed() const override { return BatchNeed::HotPlanes; }
};

/** FullRecords consumer that rebuilds every record itself via
 *  SoaBatch::materialize() instead of the per-record default. */
class MaterializingCollector : public TraceObserver
{
  public:
    std::vector<DynInstr> all;
    bool sawColdPlanes = true;

    void onInstr(const DynInstr &d) override { all.push_back(d); }

    void
    onInstrBatchSoA(const SoaBatch &b) override
    {
        sawColdPlanes = sawColdPlanes && b.hasColdPlanes();
        for (size_t i = 0; i < b.count; ++i)
            all.push_back(b.materialize(i));
    }
};

void
expectSoaMatchesScalar(const Program &prog, size_t batch_instrs,
                       uint64_t max_instrs = 0)
{
    EngineConfig cfg;
    cfg.maxInstrs = max_instrs;
    cfg.batchInstrs = batch_instrs;

    Collector scalar;
    TraceEngine se(prog, cfg);
    se.addObserver(&scalar);
    DynInstr d;
    while (se.step(d)) {
    }

    HotPlaneCollector hot;
    TraceEngine he(prog, cfg);
    he.addObserver(&hot);
    he.run();
    EXPECT_FALSE(hot.sawColdPlanes)
        << "hot-only consumer must not trigger cold-plane fills";
    EXPECT_TRUE(hot.ctrlIndexExact)
        << "ctrl index must list exactly the kind != None positions";
    ASSERT_EQ(scalar.all.size(), hot.all.size());
    for (size_t i = 0; i < scalar.all.size(); ++i) {
        const DynInstr &a = scalar.all[i];
        const HotPlaneCollector::Hot &b = hot.all[i];
        ASSERT_TRUE(a.seq == b.seq && a.pc == b.pc &&
                    a.target == b.target && a.kind == b.kind &&
                    a.taken == b.taken)
            << "hot planes diverge from scalar at instr " << i;
    }

    MaterializingCollector full;
    TraceEngine fe(prog, cfg);
    fe.addObserver(&full);
    fe.run();
    EXPECT_TRUE(full.sawColdPlanes)
        << "FullRecords consumer must receive cold planes";
    ASSERT_EQ(scalar.all.size(), full.all.size());
    for (size_t i = 0; i < scalar.all.size(); ++i) {
        expectSameInstr(scalar.all[i], full.all[i], i);
        if (::testing::Test::HasFailure())
            break;
    }
}

TEST(SoaDelivery, HotAndMaterializedStreamsMatchScalar)
{
    for (const char *name : kWorkloads) {
        SCOPED_TRACE(name);
        expectSoaMatchesScalar(buildWorkload(name, {kScale}), 4096);
    }
}

TEST(SoaDelivery, OddBatchSizesMatchScalar)
{
    Program p = buildWorkload("compress", {kScale});
    for (size_t batch : {1u, 3u, 31u, 1000u}) {
        SCOPED_TRACE(batch);
        expectSoaMatchesScalar(p, batch);
    }
}

TEST(SoaDelivery, MidStreamTruncationMatchesScalar)
{
    Program p = buildWorkload("li", {kScale});
    // Cuts chosen to land mid-batch for both batch sizes.
    expectSoaMatchesScalar(p, 4096, 777);
    expectSoaMatchesScalar(p, 37, 1000);
}

TEST(SoaDelivery, MixedNeedObserversEachSeeTheirContract)
{
    // A hot-plane consumer and a FullRecords consumer on one engine:
    // the producer must upgrade the fill to cold planes for the second
    // without perturbing what the first sees.
    Program p = buildWorkload("compress", {kScale});

    Collector scalar;
    TraceEngine se(p);
    se.addObserver(&scalar);
    DynInstr d;
    while (se.step(d)) {
    }

    HotPlaneCollector hot;
    MaterializingCollector full;
    TraceEngine e(p);
    e.addObserver(&hot);
    e.addObserver(&full);
    e.run();
    // The shared delivery carries cold planes (the FullRecords consumer
    // forces them), so the hot consumer legitimately sees them too.
    ASSERT_EQ(scalar.all.size(), hot.all.size());
    ASSERT_EQ(scalar.all.size(), full.all.size());
    for (size_t i = 0; i < scalar.all.size(); ++i) {
        const HotPlaneCollector::Hot &h = hot.all[i];
        ASSERT_TRUE(scalar.all[i].seq == h.seq &&
                    scalar.all[i].pc == h.pc &&
                    scalar.all[i].target == h.target &&
                    scalar.all[i].kind == h.kind &&
                    scalar.all[i].taken == h.taken)
            << "instr " << i;
        expectSameInstr(scalar.all[i], full.all[i], i);
        if (::testing::Test::HasFailure())
            break;
    }
}

/** Full pipeline artifacts for one configuration. */
struct Artifacts
{
    LoopStatsReport stats;
    std::vector<std::pair<uint64_t, uint64_t>> meters; //!< accesses, hits
    double idealTpc = 0.0;
};

Artifacts
collect(const Program &prog, size_t cls, uint64_t max_instrs, bool scalar,
        size_t batch_instrs = 4096)
{
    EngineConfig cfg;
    cfg.maxInstrs = max_instrs;
    cfg.batchInstrs = batch_instrs;
    TraceEngine engine(prog, cfg);
    LoopDetector det({cls});
    LoopStats stats;
    IdealTpcComputer ideal;
    std::vector<std::unique_ptr<LetHitMeter>> lets;
    std::vector<std::unique_ptr<LitHitMeter>> lits;
    det.addListener(&stats);
    det.addListener(&ideal);
    for (size_t sz : hitRatioTableSizes()) {
        lets.push_back(std::make_unique<LetHitMeter>(sz));
        lits.push_back(std::make_unique<LitHitMeter>(sz));
        det.addListener(lets.back().get());
        det.addListener(lits.back().get());
    }
    engine.addObserver(&det);
    if (scalar) {
        DynInstr d;
        while (engine.step(d)) {
        }
    } else {
        engine.run();
    }
    Artifacts out;
    out.stats = stats.report();
    out.idealTpc = ideal.tpc();
    for (size_t i = 0; i < lets.size(); ++i) {
        out.meters.emplace_back(lets[i]->result().accesses,
                                lets[i]->result().hits);
        out.meters.emplace_back(lits[i]->result().accesses,
                                lits[i]->result().hits);
    }
    return out;
}

void
expectSameArtifacts(const Artifacts &a, const Artifacts &b)
{
    EXPECT_EQ(a.stats.totalInstrs, b.stats.totalInstrs);
    EXPECT_EQ(a.stats.staticLoops, b.stats.staticLoops);
    EXPECT_EQ(a.stats.totalExecs, b.stats.totalExecs);
    EXPECT_EQ(a.stats.totalIters, b.stats.totalIters);
    EXPECT_EQ(a.stats.singleIterExecs, b.stats.singleIterExecs);
    EXPECT_EQ(a.stats.overflowDrops, b.stats.overflowDrops);
    EXPECT_EQ(a.stats.maxNesting, b.stats.maxNesting);
    // Doubles compare exactly: both sides run the identical FP
    // operations in the identical order.
    EXPECT_EQ(a.stats.itersPerExec, b.stats.itersPerExec);
    EXPECT_EQ(a.stats.instrsPerIter, b.stats.instrsPerIter);
    EXPECT_EQ(a.stats.avgNesting, b.stats.avgNesting);
    EXPECT_EQ(a.stats.loopCoverage, b.stats.loopCoverage);
    EXPECT_EQ(a.idealTpc, b.idealTpc);
    EXPECT_EQ(a.meters, b.meters);
}

TEST(BatchVsScalar, PipelineArtifactsIdentical)
{
    for (const char *name : kWorkloads) {
        SCOPED_TRACE(name);
        Program p = buildWorkload(name, {kScale});
        expectSameArtifacts(collect(p, 16, 0, true),
                            collect(p, 16, 0, false));
    }
}

TEST(BatchVsScalar, ArtifactsIdenticalAcrossLayoutsAtEveryClsSize)
{
    // Scalar step() and hot-plane run() at the default and an odd batch
    // size must agree on every Table-1/Figure-4 artifact at CLS 4/8/16 —
    // the detector consumes per-record calls, and batches whose
    // boundaries fall at different positions.
    for (const char *name : kWorkloads) {
        SCOPED_TRACE(name);
        Program p = buildWorkload(name, {kScale});
        for (size_t cls : {4u, 8u, 16u}) {
            SCOPED_TRACE(cls);
            Artifacts ref = collect(p, cls, 0, true);
            expectSameArtifacts(collect(p, cls, 0, false), ref);
            expectSameArtifacts(collect(p, cls, 0, false, 999), ref);
        }
    }
}

/** Record a control trace + loop-event recording in one batched pass. */
std::pair<ControlTrace, LoopEventRecording>
recordOnce(const Program &prog, size_t cls, uint64_t max_instrs = 0)
{
    EngineConfig cfg;
    cfg.maxInstrs = max_instrs;
    TraceEngine engine(prog, cfg);
    LoopDetector det({cls});
    LoopEventRecorder rec;
    det.addListener(&rec);
    ControlTraceRecorder ctr;
    engine.addObserver(&det);
    engine.addObserver(&ctr);
    engine.run();
    return {ctr.take(), rec.take()};
}

// ------------------------------------------------------------------
// The detector's one batch walk hops along the control index over the
// hot planes; a record-reading listener (DataSpecProfiler) additionally
// gets spans of a per-batch materialized copy. Either way the events,
// and what the record reader computes, must equal scalar delivery.

struct DetectorRun
{
    synth::EventLog log;
    DataSpecReport dataSpec;
    BatchNeed need = BatchNeed::HotPlanes;
};

DetectorRun
detectOnce(const Program &prog, bool scalar, size_t batch_instrs,
           bool profile)
{
    EngineConfig cfg;
    cfg.batchInstrs = batch_instrs;
    TraceEngine engine(prog, cfg);
    LoopDetector det({16});
    DataSpecProfiler profiler;
    DetectorRun out;
    det.addListener(&out.log);
    if (profile)
        det.addListener(&profiler);
    out.need = det.batchNeed();
    engine.addObserver(&det);
    if (scalar) {
        DynInstr d;
        while (engine.step(d)) {
        }
    } else {
        engine.run();
    }
    if (profile)
        out.dataSpec = profiler.report();
    return out;
}

void
expectSameDataSpec(const DataSpecReport &a, const DataSpecReport &b)
{
    EXPECT_EQ(a.itersEvaluated, b.itersEvaluated);
    EXPECT_EQ(a.modalIters, b.modalIters);
    EXPECT_EQ(a.lrTotal, b.lrTotal);
    EXPECT_EQ(a.lrCorrect, b.lrCorrect);
    EXPECT_EQ(a.lmTotal, b.lmTotal);
    EXPECT_EQ(a.lmCorrect, b.lmCorrect);
    EXPECT_EQ(a.lmIters, b.lmIters);
    EXPECT_EQ(a.allLrIters, b.allLrIters);
    EXPECT_EQ(a.allLmIters, b.allLmIters);
    EXPECT_EQ(a.allDataIters, b.allDataIters);
}

TEST(DetectorBatchWalk, EventsMatchScalarWithAndWithoutRecordReader)
{
    for (const char *name : kWorkloads) {
        SCOPED_TRACE(name);
        Program p = buildWorkload(name, {kScale});
        for (bool profile : {false, true}) {
            SCOPED_TRACE(profile ? "with DataSpecProfiler" : "hot only");
            const DetectorRun ref = detectOnce(p, true, 4096, profile);
            EXPECT_EQ(ref.need, profile ? BatchNeed::FullRecords
                                        : BatchNeed::HotPlanes);
            ASSERT_TRUE(ref.log.done);
            ASSERT_FALSE(ref.log.events.empty());
            if (profile) {
                ASSERT_GT(ref.dataSpec.lrTotal, 0u);
            }
            for (size_t batch : {1u, 999u, 4096u}) {
                SCOPED_TRACE(batch);
                const DetectorRun got = detectOnce(p, false, batch, profile);
                EXPECT_EQ(got.log.totalInstrs, ref.log.totalInstrs);
                ASSERT_EQ(got.log.events.size(), ref.log.events.size());
                for (size_t i = 0; i < ref.log.events.size(); ++i) {
                    ASSERT_EQ(got.log.events[i], ref.log.events[i])
                        << "event " << i << ": "
                        << synth::describeEvent(got.log.events[i])
                        << " vs "
                        << synth::describeEvent(ref.log.events[i]);
                }
                expectSameDataSpec(got.dataSpec, ref.dataSpec);
            }
        }
    }
}

TEST(MemTraceRecorder, BatchedPlanesMatchScalarRecords)
{
    for (const char *name : kWorkloads) {
        SCOPED_TRACE(name);
        Program p = buildWorkload(name, {kScale});
        MemTraceRecorder scalar_rec;
        {
            TraceEngine engine(p);
            engine.addObserver(&scalar_rec);
            DynInstr d;
            while (engine.step(d)) {
            }
        }
        const MemAccessTrace ref = scalar_rec.take();
        ASSERT_FALSE(ref.accesses.empty());
        for (size_t batch : {999u, 4096u}) {
            SCOPED_TRACE(batch);
            EngineConfig cfg;
            cfg.batchInstrs = batch;
            TraceEngine engine(p, cfg);
            MemTraceRecorder rec;
            engine.addObserver(&rec);
            engine.run();
            const MemAccessTrace got = rec.take();
            EXPECT_EQ(got.accesses.size(), ref.accesses.size());
            EXPECT_EQ(got.stateHash(), ref.stateHash());
        }
    }
}

TEST(ControlReplayDeathTest, FullRecordsObserverIsRejected)
{
    // A control trace carries no operand values, so an observer that
    // asks for full records has nothing to be handed.
    Program p = buildWorkload("compress", {kScale});
    const ControlTrace trace = recordOnce(p, 16).first;
    Collector needs_records;
    EXPECT_DEATH(replayControlTrace(trace, needs_records),
                 "BatchNeed::HotPlanes");
}

TEST(ControlReplay, Table1ArtifactsMatchDirectAtEveryClsSize)
{
    for (const char *name : kWorkloads) {
        SCOPED_TRACE(name);
        Program p = buildWorkload(name, {kScale});
        auto [trace, rec] = recordOnce(p, 16);
        for (size_t cls : {4u, 8u, 12u, 16u}) {
            SCOPED_TRACE(cls);
            Artifacts direct = collect(p, cls, 0, true);
            LoopDetector det({cls});
            LoopStats stats;
            IdealTpcComputer ideal;
            det.addListener(&stats);
            det.addListener(&ideal);
            uint64_t n = replayControlTrace(trace, det);
            EXPECT_EQ(n, direct.stats.totalInstrs);
            Artifacts replayed;
            replayed.stats = stats.report();
            replayed.idealTpc = ideal.tpc();
            replayed.meters = direct.meters; // not replayed here
            expectSameArtifacts(replayed, direct);
        }
    }
}

TEST(ControlReplay, PrefixTruncationMatchesDirectTruncatedRun)
{
    Program p = buildWorkload("compress", {kScale});
    auto [trace, rec] = recordOnce(p, 16);
    uint64_t half = trace.totalInstrs / 2;

    Artifacts direct = collect(p, 16, half, true);
    LoopDetector det({16});
    LoopStats stats;
    IdealTpcComputer ideal;
    det.addListener(&stats);
    det.addListener(&ideal);
    uint64_t n = replayControlTrace(trace, det, half);
    EXPECT_EQ(n, half);
    EXPECT_EQ(stats.report().totalInstrs, direct.stats.totalInstrs);
    EXPECT_EQ(stats.report().totalExecs, direct.stats.totalExecs);
    EXPECT_EQ(stats.report().totalIters, direct.stats.totalIters);
    EXPECT_EQ(ideal.tpc(), direct.idealTpc);
}

/** Artifacts + re-recording of a windowed loop-event replay. */
std::pair<Artifacts, LoopEventRecording>
replayWindow(const LoopEventRecording &rec, uint64_t window)
{
    LoopStats stats;
    IdealTpcComputer ideal;
    LoopEventRecorder rerecorder;
    std::vector<std::unique_ptr<LetHitMeter>> lets;
    std::vector<std::unique_ptr<LitHitMeter>> lits;
    std::vector<LoopListener *> listeners = {&stats, &ideal, &rerecorder};
    for (size_t sz : hitRatioTableSizes()) {
        lets.push_back(std::make_unique<LetHitMeter>(sz));
        lits.push_back(std::make_unique<LitHitMeter>(sz));
        listeners.push_back(lets.back().get());
        listeners.push_back(lits.back().get());
    }
    replayLoopEvents(rec, listeners, window);
    Artifacts out;
    out.stats = stats.report();
    out.idealTpc = ideal.tpc();
    for (size_t i = 0; i < lets.size(); ++i) {
        out.meters.emplace_back(lets[i]->result().accesses,
                                lets[i]->result().hits);
        out.meters.emplace_back(lits[i]->result().accesses,
                                lits[i]->result().hits);
    }
    return {out, rerecorder.take()};
}

TEST(WindowedReplay, MatchesDirectDetectionOverEveryWindow)
{
    // The detector is causal: a recording cut at W, with the trace-end
    // close-out rebuilt from the loops open there, is the detection of
    // the first W instructions — Table 1, the ideal TPC, the meters and
    // the re-recording alike. Windows: the whole trace, Figure 5's half,
    // an odd cut, and both ends.
    for (const char *name : {"compress", "li", "synth.nest",
                             "synth.irregular", "synth.calls"}) {
        SCOPED_TRACE(name);
        Program p = buildWorkload(name, {kScale});
        for (size_t cls : {2u, 4u, 16u}) {
            SCOPED_TRACE(cls);
            const LoopEventRecording rec = recordOnce(p, cls).second;
            const uint64_t n = rec.totalInstrs;
            ASSERT_GT(n, 2u);
            for (uint64_t w : {n, n / 2, n / 3 + 7, uint64_t{1}, n - 1}) {
                SCOPED_TRACE(w);
                auto [got, rerecorded] = replayWindow(rec, w);
                expectSameArtifacts(got, collect(p, cls, w, false));
                EXPECT_EQ(compareRecordings(recordOnce(p, cls, w).second,
                                            rerecorded),
                          "");
            }
        }
    }
}

TEST(WindowedReplayDeathTest, RecordReadingListenerIsRejected)
{
    // Replay synthesizes spans as counts only; a listener that reads
    // the instruction records has nothing to read.
    Program p = buildWorkload("compress", {kScale});
    const LoopEventRecording rec = recordOnce(p, 16).second;
    test::CaptureListener reads_records;
    EXPECT_DEATH(replayLoopEvents(rec, {&reads_records}),
                 "no instruction records");
}

TEST(ControlReplay, SaveLoadRoundTrip)
{
    Program p = buildWorkload("li", {kScale});
    auto [trace, rec] = recordOnce(p, 16);
    std::stringstream ss;
    trace.save(ss);
    ControlTrace back = ControlTrace::load(ss);
    EXPECT_EQ(back.totalInstrs, trace.totalInstrs);
    ASSERT_EQ(back.transfers.size(), trace.transfers.size());
    for (size_t i = 0; i < trace.transfers.size(); ++i) {
        EXPECT_EQ(back.transfers[i].seq, trace.transfers[i].seq);
        EXPECT_EQ(back.transfers[i].pc, trace.transfers[i].pc);
        EXPECT_EQ(back.transfers[i].target, trace.transfers[i].target);
        EXPECT_EQ(back.transfers[i].kind, trace.transfers[i].kind);
        EXPECT_EQ(back.transfers[i].taken, trace.transfers[i].taken);
    }
}

TEST(LoopEventReplay, MeterResultsMatchLiveMeters)
{
    for (const char *name : kWorkloads) {
        SCOPED_TRACE(name);
        Program p = buildWorkload(name, {kScale});
        Artifacts direct = collect(p, 16, 0, true);
        auto [trace, rec] = recordOnce(p, 16);

        std::vector<std::unique_ptr<LetHitMeter>> lets;
        std::vector<std::unique_ptr<LitHitMeter>> lits;
        std::vector<LoopListener *> meters;
        for (size_t sz : hitRatioTableSizes()) {
            lets.push_back(std::make_unique<LetHitMeter>(sz));
            lits.push_back(std::make_unique<LitHitMeter>(sz));
            meters.push_back(lets.back().get());
            meters.push_back(lits.back().get());
        }
        replayLoopEvents(rec, meters);
        std::vector<std::pair<uint64_t, uint64_t>> replayed;
        for (size_t i = 0; i < lets.size(); ++i) {
            replayed.emplace_back(lets[i]->result().accesses,
                                  lets[i]->result().hits);
            replayed.emplace_back(lits[i]->result().accesses,
                                  lits[i]->result().hits);
        }
        EXPECT_EQ(replayed, direct.meters);
    }
}

TEST(LoopEventReplay, NestAwareMetersMatchLiveRun)
{
    // The ablation-D configuration: replacement-policy variants replayed
    // from the recording must equal a live pass.
    Program p = buildWorkload("compress", {kScale});
    auto [trace, rec] = recordOnce(p, 16);

    TraceEngine engine(p);
    LoopDetector det({16});
    LetHitMeter liveLet(4, TableReplacement::NestAware);
    LitHitMeter liveLit(4, TableReplacement::NestAware);
    det.addListener(&liveLet);
    det.addListener(&liveLit);
    engine.addObserver(&det);
    engine.run();

    LetHitMeter repLet(4, TableReplacement::NestAware);
    LitHitMeter repLit(4, TableReplacement::NestAware);
    replayLoopEvents(rec, {&repLet, &repLit});
    EXPECT_EQ(repLet.result().accesses, liveLet.result().accesses);
    EXPECT_EQ(repLet.result().hits, liveLet.result().hits);
    EXPECT_EQ(repLit.result().accesses, liveLit.result().accesses);
    EXPECT_EQ(repLit.result().hits, liveLit.result().hits);
}

TEST(LoopEventReplay, RecordingRoundTripPreservesLoopEvents)
{
    Program p = buildWorkload("compress", {kScale});
    auto [trace, rec] = recordOnce(p, 16);
    ASSERT_FALSE(rec.loopEvents.empty());
    std::stringstream ss;
    rec.save(ss);
    LoopEventRecording back = LoopEventRecording::load(ss);
    ASSERT_EQ(back.loopEvents.size(), rec.loopEvents.size());
    for (size_t i = 0; i < rec.loopEvents.size(); ++i) {
        EXPECT_EQ(back.loopEvents[i].pos, rec.loopEvents[i].pos);
        EXPECT_EQ(back.loopEvents[i].execId, rec.loopEvents[i].execId);
        EXPECT_EQ(back.loopEvents[i].loop, rec.loopEvents[i].loop);
        EXPECT_EQ(back.loopEvents[i].aux, rec.loopEvents[i].aux);
        EXPECT_EQ(back.loopEvents[i].depth, rec.loopEvents[i].depth);
        EXPECT_EQ(static_cast<int>(back.loopEvents[i].kind),
                  static_cast<int>(rec.loopEvents[i].kind));
    }
    ASSERT_EQ(back.execs.size(), rec.execs.size());
    for (size_t i = 0; i < rec.execs.size(); ++i) {
        EXPECT_EQ(back.execs[i].branchAddr, rec.execs[i].branchAddr);
        EXPECT_EQ(back.execs[i].parentExecId, rec.execs[i].parentExecId);
    }
}

// ------------------------------------------------------------------
// Out-of-core streaming replay (src/trace_io/, docs/TRACE_FORMAT.md):
// the bounded-buffer TraceFileStreamer must be bit-identical to both
// the mmap-decode path and the in-memory replay — same loop-event
// stream, not merely the same aggregates — at every CLS size, under
// either encoding, and under mid-stream prefix cuts.

/** Replay @p feed into a fresh detector; return the loop-event
 *  recording it produces (the bit-exact comparison artifact). */
template <typename Fn>
LoopEventRecording
recordReplay(size_t cls, Fn &&feed)
{
    LoopDetector det({cls});
    LoopEventRecorder rec;
    det.addListener(&rec);
    feed(det);
    return rec.take();
}

TEST(StreamingReplay, MatchesInMemoryAndMmapAtEveryClsSize)
{
    for (const char *name : kWorkloads) {
        SCOPED_TRACE(name);
        Program p = buildWorkload(name, {kScale});
        auto [trace, rec] = recordOnce(p, 16);
        test::ScratchDir scratch;

        for (TraceEncoding enc :
             {TraceEncoding::Raw, TraceEncoding::Varint}) {
            SCOPED_TRACE(enc == TraceEncoding::Raw ? "raw" : "varint");
            std::string path = traceFilePath(
                scratch.path(), std::string("stream_eq_") + name +
                    (enc == TraceEncoding::Raw ? "_raw" : "_vz"),
                kControlTraceExt);
            writeControlTraceFile(path, trace, enc);

            for (size_t cls : {4u, 8u, 16u}) {
                SCOPED_TRACE(cls);
                LoopEventRecording mem =
                    recordReplay(cls, [&](LoopDetector &det) {
                        replayControlTrace(trace, det);
                    });

                // mmap: CRC-validated map + whole-image decode.
                std::string err;
                auto map = MappedTraceFile::open(path, &err);
                ASSERT_TRUE(map) << err;
                ControlTrace mapped;
                err = decodeControlTrace(map->bytes(),
                                         map->fileBytes(), &mapped);
                ASSERT_TRUE(err.empty()) << err;
                LoopEventRecording via_map =
                    recordReplay(cls, [&](LoopDetector &det) {
                        replayControlTrace(mapped, det);
                    });
                EXPECT_EQ(compareRecordings(mem, via_map), "");

                // streaming: tiny chunks force every record shape to
                // straddle a chunk boundary somewhere in the file.
                StreamConfig scfg;
                scfg.chunkBytes = 512;
                auto streamer =
                    TraceFileStreamer::open(path, scfg, &err);
                ASSERT_TRUE(streamer) << err;
                LoopEventRecording via_stream =
                    recordReplay(cls, [&](LoopDetector &det) {
                        std::string rerr = streamer->replayControl(det);
                        ASSERT_TRUE(rerr.empty()) << rerr;
                    });
                EXPECT_EQ(compareRecordings(mem, via_stream), "");
                // The buffer bound is chunk + replay-batch overhead,
                // independent of trace length (the out-of-core
                // guarantee; the format suite asserts it against a
                // multi-megabyte trace too).
                EXPECT_LT(streamer->peakBufferBytes(), 512u * 1024);
            }
        }
    }
}

TEST(StreamingReplay, MidStreamPrefixCutsMatchTruncatedInMemoryReplay)
{
    Program p = buildWorkload("compress", {kScale});
    auto [trace, rec] = recordOnce(p, 16);
    test::ScratchDir scratch;
    std::string path =
        traceFilePath(scratch.path(), "stream_eq_prefix", kControlTraceExt);
    writeControlTraceFile(path, trace, TraceEncoding::Varint);

    std::string err;
    auto streamer = TraceFileStreamer::open(path, {}, &err);
    ASSERT_TRUE(streamer) << err;
    ASSERT_EQ(streamer->totalInstrs(), trace.totalInstrs);

    // One streamer serves several prefix replays: each call re-streams
    // the file from the start (that is how the sweep engine derives its
    // Figure-5 half-trace rerun in --trace-dir mode).
    const uint64_t cuts[] = {trace.totalInstrs / 3,
                             trace.totalInstrs / 2,
                             2 * trace.totalInstrs / 3 + 1, 12345};
    for (uint64_t cut : cuts) {
        SCOPED_TRACE(cut);
        for (size_t cls : {4u, 8u, 16u}) {
            SCOPED_TRACE(cls);
            LoopEventRecording mem =
                recordReplay(cls, [&](LoopDetector &det) {
                    replayControlTrace(trace, det, cut);
                });
            LoopEventRecording via_stream =
                recordReplay(cls, [&](LoopDetector &det) {
                    std::string rerr =
                        streamer->replayControl(det, cut);
                    ASSERT_TRUE(rerr.empty()) << rerr;
                });
            EXPECT_EQ(compareRecordings(mem, via_stream), "");
        }
    }
}

TEST(StreamingReplay, EventStreamMatchesInMemoryLoopEventReplay)
{
    Program p = buildWorkload("li", {kScale});
    auto [trace, rec] = recordOnce(p, 8);
    ASSERT_FALSE(rec.loopEvents.empty());
    test::ScratchDir scratch;

    for (TraceEncoding enc :
         {TraceEncoding::Raw, TraceEncoding::Varint}) {
        SCOPED_TRACE(enc == TraceEncoding::Raw ? "raw" : "varint");
        std::string path = traceFilePath(
            scratch.path(),
            enc == TraceEncoding::Raw ? "stream_eq_rec_raw"
                                      : "stream_eq_rec_vz",
            kRecordingExt);
        writeRecordingFile(path, rec, enc);

        // In-memory reference: meters + a re-recording.
        LetHitMeter memLet(4);
        LitHitMeter memLit(4);
        LoopEventRecorder memRec;
        replayLoopEvents(rec, {&memLet, &memLit, &memRec});

        std::string err;
        StreamConfig scfg;
        scfg.chunkBytes = 256;
        auto streamer = TraceFileStreamer::open(path, scfg, &err);
        ASSERT_TRUE(streamer) << err;
        LetHitMeter strLet(4);
        LitHitMeter strLit(4);
        LoopEventRecorder strRec;
        err = streamer->replayEvents({&strLet, &strLit, &strRec});
        ASSERT_TRUE(err.empty()) << err;

        EXPECT_EQ(compareRecordings(memRec.take(), strRec.take()), "");
        EXPECT_EQ(strLet.result().accesses, memLet.result().accesses);
        EXPECT_EQ(strLet.result().hits, memLet.result().hits);
        EXPECT_EQ(strLit.result().accesses, memLit.result().accesses);
        EXPECT_EQ(strLit.result().hits, memLit.result().hits);
    }
}

TEST(RunWorkloadReplay, CrossCheckModePassesOnTwoWorkloads)
{
    // runWorkload's --check-replay mode fatals on any divergence between
    // replay-derived artifacts and direct execution; surviving it IS the
    // equivalence assertion, covering the Figure-4 meter sweep and the
    // Figure-5 prefix rerun end to end.
    RunOptions opts;
    opts.scale.factor = kScale;
    opts.checkReplay = true;
    CollectFlags flags;
    flags.loopStats = true;
    flags.hitRatios = true;
    flags.ideal = true;
    for (const char *name : kWorkloads) {
        SCOPED_TRACE(name);
        WorkloadArtifacts a = runWorkload(name, opts, flags);
        EXPECT_GT(a.totalInstrs, 0u);
        EXPECT_GT(a.idealTpc, 0.0);
        EXPECT_GT(a.idealTpcPrefix, 0.0);
        EXPECT_EQ(a.letResults.size(), hitRatioTableSizes().size());
    }
}

} // namespace
} // namespace loopspec
