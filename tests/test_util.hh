/**
 * @file
 * Shared test helpers: the test-suite RNG seed base, an event-capturing
 * LoopListener with a compact textual rendering (for golden-sequence
 * assertions), Table 1 of a detector pass (RecordedStats), one-call program tracing, and the loop-program builders
 * (flat counted loop, two-level nest) that half the suites need, and
 * ScratchDir, the per-test directory for files a test writes.
 */

#ifndef LOOPSPEC_TESTS_TEST_UTIL_HH
#define LOOPSPEC_TESTS_TEST_UTIL_HH

#include <unistd.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "loop/loop_detector.hh"
#include "loop/loop_stats.hh"
#include "program/builder.hh"
#include "speculation/event_record.hh"
#include "tracegen/trace_engine.hh"
#include "util/logging.hh"

namespace loopspec
{
namespace test
{

/**
 * The single seed constant every randomized test fixture derives its
 * seeds from (via testSeed): grep for kTestSeed to find — and re-run
 * with a different base — every seeded fixture in the suite. Never seed
 * a test RNG with an ad-hoc literal.
 */
constexpr uint64_t kTestSeed = 0x5eed10095ULL;

/** Seed of fixture instance @p n, derived from kTestSeed. */
constexpr uint64_t
testSeed(uint64_t n)
{
    return kTestSeed + n;
}

/**
 * A private directory for the files one test writes, removed with
 * everything in it when the helper goes out of scope. The name joins the
 * process id with the running test's suite and name, so concurrent ctest
 * processes (or two build trees testing at once) never share a path the
 * way they would inside the bare ::testing::TempDir().
 */
class ScratchDir
{
  public:
    ScratchDir()
    {
        const ::testing::TestInfo *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        std::string name = "loopspec_" + std::to_string(::getpid());
        if (info) {
            name += std::string("_") + info->test_suite_name() + "_" +
                    info->name();
        }
        for (char &c : name) {
            if (c == '/')
                c = '_';
        }
        dir = std::filesystem::path(::testing::TempDir()) / name;
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
    }

    ~ScratchDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
    }

    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    /** The directory, without a trailing separator. */
    std::string path() const { return dir.string(); }

    /** @p file inside the directory. */
    std::string file(const std::string &name) const
    {
        return (dir / name).string();
    }

  private:
    std::filesystem::path dir;
};

/** Flat counted loop: @p trips iterations of (@p nops + 2) instrs. */
inline Program
flatLoop(int64_t trips, int nops)
{
    ProgramBuilder b("t", 0);
    b.beginFunction("main");
    b.li(regs::r1, 0);
    b.li(regs::r2, trips);
    b.countedLoop(regs::r1, regs::r2, [&](const LoopCtx &) {
        for (int i = 0; i < nops; ++i)
            b.nop();
    });
    b.halt();
    return b.build();
}

/** Outer loop re-executing a constant-trip inner loop of @p nops body
 *  instructions per iteration. */
inline Program
nestedLoops(int64_t outer, int64_t inner, int nops = 1)
{
    ProgramBuilder b("t", 0);
    b.beginFunction("main");
    b.li(regs::r1, 0);
    b.li(regs::r2, outer);
    b.countedLoop(regs::r1, regs::r2, [&](const LoopCtx &) {
        b.li(regs::r3, 0);
        b.li(regs::r4, inner);
        b.countedLoop(regs::r3, regs::r4, [&](const LoopCtx &) {
            for (int i = 0; i < nops; ++i)
                b.nop();
        });
    });
    b.halt();
    return b.build();
}

/**
 * Table 1 of one detector pass, by way of its recording: attach to a
 * detector like any listener, run the pass, then read report()
 * (loopStatsFromRecording over the whole pass).
 */
class RecordedStats : public LoopEventRecorder
{
  public:
    const LoopStatsReport &
    report()
    {
        if (!reported) {
            const LoopEventRecording rec = take();
            stats = loopStatsFromRecording(rec, rec.totalInstrs);
            reported = true;
        }
        return stats;
    }

  private:
    LoopStatsReport stats;
    bool reported = false;
};

/** Captures the full loop-event stream. */
class CaptureListener : public LoopListener
{
  public:
    struct Item
    {
        enum Kind
        {
            ExecStart,
            IterStart,
            IterEnd,
            ExecEnd,
            SingleIter
        } kind;
        uint32_t loop = 0;
        uint64_t execId = 0;
        uint32_t iter = 0; //!< iterIndex or iterCount for ExecEnd
        uint32_t depth = 0;
        ExecEndReason reason = ExecEndReason::Close;
        uint64_t pos = 0;
    };

    std::vector<Item> items;
    uint64_t totalInstrs = 0;
    bool traceDone = false;

    void
    onExecStart(const ExecStartEvent &ev) override
    {
        items.push_back({Item::ExecStart, ev.loop, ev.execId, 0,
                         ev.depth, ExecEndReason::Close, ev.pos});
    }

    void
    onIterStart(const IterEvent &ev) override
    {
        items.push_back({Item::IterStart, ev.loop, ev.execId,
                         ev.iterIndex, ev.depth, ExecEndReason::Close,
                         ev.pos});
    }

    void
    onIterEnd(const IterEvent &ev) override
    {
        items.push_back({Item::IterEnd, ev.loop, ev.execId, ev.iterIndex,
                         ev.depth, ExecEndReason::Close, ev.pos});
    }

    void
    onExecEnd(const ExecEndEvent &ev) override
    {
        items.push_back({Item::ExecEnd, ev.loop, ev.execId, ev.iterCount,
                         0, ev.reason, ev.pos});
    }

    void
    onSingleIterExec(const SingleIterExecEvent &ev) override
    {
        items.push_back({Item::SingleIter, ev.loop, 0, 1, ev.depth,
                         ExecEndReason::Close, ev.pos});
    }

    void
    onTraceDone(uint64_t total) override
    {
        traceDone = true;
        totalInstrs = total;
    }

    /**
     * Compact rendering, one token per event, loops labelled by their
     * order of first appearance (A, B, C, ...):
     *   "A+ A:i2 A:e3(close) B1" etc., where
     *   X+        execution of loop X starts
     *   X:iN      iteration N of X starts
     *   X:eN(r)   execution of X ends after N iterations, reason r
     *   X1        single-iteration execution of X
     * IterEnd events are omitted (implied by IterStart/ExecEnd).
     */
    std::string
    summary() const
    {
        std::vector<uint32_t> order;
        auto label = [&](uint32_t loop) -> std::string {
            for (size_t i = 0; i < order.size(); ++i) {
                if (order[i] == loop)
                    return std::string(1, char('A' + i));
            }
            order.push_back(loop);
            return std::string(1, char('A' + order.size() - 1));
        };
        std::ostringstream os;
        bool first = true;
        for (const auto &it : items) {
            if (it.kind == Item::IterEnd)
                continue;
            if (!first)
                os << " ";
            first = false;
            switch (it.kind) {
              case Item::ExecStart:
                os << label(it.loop) << "+";
                break;
              case Item::IterStart:
                os << label(it.loop) << ":i" << it.iter;
                break;
              case Item::ExecEnd:
                os << label(it.loop) << ":e" << it.iter << "("
                   << execEndReasonName(it.reason) << ")";
                break;
              case Item::SingleIter:
                os << label(it.loop) << "1";
                break;
              default:
                break;
            }
        }
        return os.str();
    }

    /** Count of items of a kind (optionally for one loop address). */
    size_t
    count(Item::Kind kind, uint32_t loop = 0) const
    {
        size_t n = 0;
        for (const auto &it : items)
            if (it.kind == kind && (loop == 0 || it.loop == loop))
                ++n;
        return n;
    }
};

/** Trace a program through a detector, capturing events. */
inline CaptureListener
trace(const Program &prog, size_t cls_entries = 16,
      uint64_t max_instrs = 0)
{
    CaptureListener cap;
    EngineConfig ecfg;
    ecfg.maxInstrs = max_instrs;
    TraceEngine engine(prog, ecfg);
    LoopDetector det({cls_entries});
    det.addListener(&cap);
    engine.addObserver(&det);
    engine.run();
    return cap;
}

} // namespace test
} // namespace loopspec

#endif // LOOPSPEC_TESTS_TEST_UTIL_HH
