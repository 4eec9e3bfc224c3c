/**
 * @file
 * Property tests for the stride-prediction substrate: SatCounter against
 * a clamped-integer reference model under randomized update sequences,
 * IterCountPredictor's saturation, reset/eviction and
 * prediction-after-mispredict behaviour (§3.1.2's two-bit confidence),
 * the TAGE run-length predictor against an independent std::map
 * reference model (tag match, useful-counter aging, allocation), and
 * the tournament chooser's bounded convergence between hand-built
 * components.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "isa/instr.hh"
#include "predict/branch_predictor.hh"
#include "predict/sat_counter.hh"
#include "predict/tage.hh"
#include "predict/tournament.hh"
#include "tables/iter_predictor.hh"
#include "tests/test_util.hh"
#include "util/rng.hh"

namespace loopspec
{
namespace
{

// --- SatCounter ---------------------------------------------------------

template <unsigned Bits>
void
randomizedCounterMatchesClampModel(uint64_t seed)
{
    Rng rng(seed);
    SatCounter<Bits> c;
    int model = 0;
    constexpr int kMax = (1 << Bits) - 1;
    for (int step = 0; step < 500; ++step) {
        switch (rng.below(8)) {
          case 0:
            c.reset();
            model = 0;
            break;
          case 1:
          case 2:
          case 3:
            c.up();
            model = std::min(model + 1, kMax);
            break;
          default:
            c.down();
            model = std::max(model - 1, 0);
            break;
        }
        ASSERT_EQ(c.value(), model) << "step " << step;
        ASSERT_EQ(c.confident(), model >= (1 << (Bits - 1)))
            << "step " << step;
        ASSERT_EQ(c.saturated(), model == kMax) << "step " << step;
    }
}

TEST(SatCounterProperty, RandomizedSequencesMatchClampModel)
{
    for (uint64_t i = 0; i < 20; ++i) {
        SCOPED_TRACE(i);
        randomizedCounterMatchesClampModel<1>(test::testSeed(i));
        randomizedCounterMatchesClampModel<2>(test::testSeed(100 + i));
        randomizedCounterMatchesClampModel<3>(test::testSeed(200 + i));
        randomizedCounterMatchesClampModel<8>(test::testSeed(300 + i));
    }
}

TEST(SatCounterProperty, SaturatesAtBothRails)
{
    TwoBitCounter c;
    for (int i = 0; i < 10; ++i)
        c.down(); // already at the bottom rail
    EXPECT_EQ(c.value(), 0u);
    for (int i = 0; i < 10; ++i)
        c.up(); // pegs at the top rail
    EXPECT_EQ(c.value(), TwoBitCounter::maxValue);
    EXPECT_TRUE(c.saturated());
    c.up();
    EXPECT_EQ(c.value(), TwoBitCounter::maxValue); // stays pegged
}

TEST(SatCounterProperty, ResetDropsAllConfidence)
{
    Rng rng(test::testSeed(400));
    for (int trial = 0; trial < 50; ++trial) {
        TwoBitCounter c;
        for (uint64_t n = rng.below(20); n > 0; --n)
            c.up();
        c.reset();
        EXPECT_EQ(c.value(), 0u);
        EXPECT_FALSE(c.confident());
    }
}

TEST(SatCounterProperty, ConstructorClampsToMax)
{
    SatCounter<2> c(200);
    EXPECT_EQ(c.value(), SatCounter<2>::maxValue);
}

// --- IterCountPredictor -------------------------------------------------

TEST(IterPredictorProperty, UnknownUntilFirstCompletion)
{
    IterCountPredictor p;
    EXPECT_EQ(p.predict(0x1000).kind, TripPredictionKind::Unknown);
    p.recordExecution(0x1000, 7);
    TripPrediction t = p.predict(0x1000);
    EXPECT_EQ(t.kind, TripPredictionKind::LastCount);
    EXPECT_EQ(t.count, 7);
    // Other loops stay unknown.
    EXPECT_EQ(p.predict(0x2000).kind, TripPredictionKind::Unknown);
}

TEST(IterPredictorProperty, RandomArithmeticSequencesConverge)
{
    // Any loop whose trip counts follow last + stride becomes a
    // confident Stride prediction after four completions, and then
    // predicts exactly.
    Rng rng(test::testSeed(500));
    for (int trial = 0; trial < 40; ++trial) {
        IterCountPredictor p;
        uint32_t loop = 0x1000 + 4 * static_cast<uint32_t>(trial);
        int64_t start = 2 + static_cast<int64_t>(rng.below(50));
        int64_t stride = static_cast<int64_t>(rng.below(5));
        int64_t count = start;
        for (int n = 0; n < 4; ++n) {
            p.recordExecution(loop, static_cast<uint64_t>(count));
            count += stride;
        }
        TripPrediction t = p.predict(loop);
        ASSERT_EQ(t.kind, TripPredictionKind::Stride) << "trial " << trial;
        // predict = last recorded + stride == the next count.
        ASSERT_EQ(t.count, count) << "trial " << trial;
    }
}

TEST(IterPredictorProperty, StridePredictionClampsToOneIteration)
{
    // Shrinking sequence 9,6,3: predicted 3 + (-3) = 0 clamps to 1 (a
    // detected execution always has at least one iteration).
    IterCountPredictor p;
    for (int64_t c : {9, 6, 3, 0})
        p.recordExecution(7, static_cast<uint64_t>(c >= 0 ? c : 0));
    TripPrediction t = p.predict(7);
    EXPECT_EQ(t.kind, TripPredictionKind::Stride);
    EXPECT_GE(t.count, 1);
}

TEST(IterPredictorProperty, MispredictDegradesThenRecovers)
{
    // Saturate confidence on stride 2, then break the pattern once: the
    // §3.1.2 counter decays one notch (still confident, new stride
    // adopted), and a second consecutive break with a different stride
    // drops it below the confidence threshold -> LastCount.
    IterCountPredictor p;
    uint64_t count = 10;
    for (int n = 0; n < 8; ++n, count += 2)
        p.recordExecution(1, count);
    ASSERT_EQ(p.predict(1).kind, TripPredictionKind::Stride);

    uint64_t last = count - 2;
    p.recordExecution(1, last + 7); // stride breaks: 2 -> 7
    TripPrediction t = p.predict(1);
    EXPECT_EQ(t.kind, TripPredictionKind::Stride); // 3 -> 2, confident
    EXPECT_EQ(t.count, static_cast<int64_t>(last + 7 + 7));

    p.recordExecution(1, last + 7 + 3); // breaks again: 7 -> 3
    t = p.predict(1);
    EXPECT_EQ(t.kind, TripPredictionKind::LastCount); // 2 -> 1
    EXPECT_EQ(t.count, static_cast<int64_t>(last + 7 + 3));

    // Re-confirming the new stride rebuilds confidence.
    p.recordExecution(1, last + 7 + 6);
    p.recordExecution(1, last + 7 + 9);
    t = p.predict(1);
    EXPECT_EQ(t.kind, TripPredictionKind::Stride);
    EXPECT_EQ(t.count, static_cast<int64_t>(last + 7 + 12));
}

TEST(IterPredictorProperty, RandomizedPredictionsNeverRegress)
{
    // Whatever the update sequence, predictions obey the kind ladder:
    // Unknown only before the first completion; count >= 1 whenever a
    // Stride prediction is made; LastCount always echoes the last
    // recorded execution.
    Rng rng(test::testSeed(600));
    for (int trial = 0; trial < 30; ++trial) {
        IterCountPredictor p;
        uint32_t loop = 1 + static_cast<uint32_t>(trial);
        uint64_t last = 0;
        bool any = false;
        for (int n = 0; n < 200; ++n) {
            if (rng.chance(0.7)) {
                last = 1 + rng.below(30);
                p.recordExecution(loop, last);
                any = true;
            }
            TripPrediction t = p.predict(loop);
            if (!any) {
                ASSERT_EQ(t.kind, TripPredictionKind::Unknown);
                continue;
            }
            ASSERT_NE(t.kind, TripPredictionKind::Unknown);
            ASSERT_GE(t.count, 1);
            if (t.kind == TripPredictionKind::LastCount) {
                ASSERT_EQ(t.count, static_cast<int64_t>(last));
            }
        }
    }
}

TEST(IterPredictorProperty, BoundedModeMatchesUnboundedUnderCapacity)
{
    // With at most N distinct loops, a finite-LET predictor behaves
    // exactly like the unbounded one under any interleaving.
    Rng rng(test::testSeed(700));
    for (int trial = 0; trial < 20; ++trial) {
        IterCountPredictor unbounded;
        IterCountPredictor bounded(4);
        for (int n = 0; n < 300; ++n) {
            uint32_t loop = 1 + static_cast<uint32_t>(rng.below(4));
            if (rng.chance(0.6)) {
                uint64_t iters = 1 + rng.below(20);
                unbounded.recordExecution(loop, iters);
                bounded.recordExecution(loop, iters);
            }
            TripPrediction a = unbounded.predict(loop);
            TripPrediction b = bounded.predict(loop);
            ASSERT_EQ(static_cast<int>(a.kind), static_cast<int>(b.kind));
            ASSERT_EQ(a.count, b.count);
        }
        EXPECT_LE(bounded.trackedLoops(), 4u);
    }
}

TEST(IterPredictorProperty, EvictionForgetsHistory)
{
    // 2-entry LET warmed on loops 1 and 2; recording loops 3 then 4
    // evicts them LRU-first. The evicted loop must predict Unknown, and
    // re-recording starts from scratch (LastCount, no stride memory).
    // Loop 2's counts are irregular, so it stays at LastCount.
    IterCountPredictor p(2);
    const uint64_t loop2_counts[] = {5, 9, 6, 13};
    for (int n = 0; n < 4; ++n) {
        p.recordExecution(1, 10 + 2 * static_cast<uint64_t>(n));
        p.recordExecution(2, loop2_counts[n]);
    }
    ASSERT_EQ(p.predict(1).kind, TripPredictionKind::Stride);
    p.recordExecution(3, 9); // evicts loop 1 (LRU)
    EXPECT_EQ(p.predict(1).kind, TripPredictionKind::Unknown);
    EXPECT_EQ(p.predict(2).kind, TripPredictionKind::LastCount);
    p.recordExecution(4, 9); // evicts loop 2
    EXPECT_EQ(p.predict(2).kind, TripPredictionKind::Unknown);
    EXPECT_LE(p.trackedLoops(), 2u);

    p.recordExecution(1, 18); // would be the next stride value
    TripPrediction t = p.predict(1);
    EXPECT_EQ(t.kind, TripPredictionKind::LastCount); // history gone
    EXPECT_EQ(t.count, 18);
}

// --- TAGE run-length predictor vs std::map reference model ---------------
// Independent reimplementation of the tag-match, useful-counter aging
// and allocation policy over sparse std::map storage (so an
// out-of-bounds or wrong-slot write in the production arrays cannot be
// mirrored here). Only the public hash helpers (historyLengths,
// tableIndex, tableTag) are shared; everything else — including the
// stateHash fold — is plain-integer code.

struct RefTage
{
    struct Tagged
    {
        int valid = 0;
        uint32_t tag = 0;
        uint32_t len = 0;
        int ctr = 0;
        int u = 0;
    };

    struct Base
    {
        int valid = 0;
        uint32_t len = 0;
        uint32_t cur = 0;
        uint64_t hist = 0;
    };

    std::vector<unsigned> histLens;
    uint32_t mask;
    std::map<uint32_t, Base> base;
    std::map<std::pair<unsigned, uint32_t>, Tagged> tagged;

    explicit RefTage(const PredictorConfig &c)
        : histLens(TageRunLengthPredictor::historyLengths(c)),
          mask((1u << c.tableBits) - 1)
    {
    }

    uint32_t baseIndex(uint32_t pc) const { return (pc >> 2) & mask; }

    Base
    baseAt(uint32_t bi) const
    {
        auto it = base.find(bi);
        return it == base.end() ? Base() : it->second;
    }

    Tagged
    taggedAt(unsigned t, uint32_t idx) const
    {
        auto it = tagged.find({t, idx});
        return it == tagged.end() ? Tagged() : it->second;
    }

    struct Match
    {
        int provider = -1;
        uint32_t providerSlot = 0;
        long long providerLen = -1;
        long long altLen = -1;
        long long finalLen = -1;
    };

    Match
    match(uint32_t pc) const
    {
        uint32_t bi = baseIndex(pc);
        Base b = baseAt(bi);
        Match m;
        for (int t = static_cast<int>(histLens.size()) - 1; t >= 0;
             --t) {
            uint32_t idx = TageRunLengthPredictor::tableIndex(
                               pc, b.hist, histLens[t], t) &
                           mask;
            Tagged e = taggedAt(t, idx);
            if (e.valid &&
                e.tag == TageRunLengthPredictor::tableTag(
                             pc, b.hist, histLens[t], t)) {
                if (m.provider < 0) {
                    m.provider = t;
                    m.providerSlot = idx;
                    m.providerLen = e.len;
                } else {
                    m.altLen = e.len;
                    break;
                }
            }
        }
        if (m.altLen < 0 && b.valid)
            m.altLen = b.len;
        if (m.provider < 0)
            m.finalLen = m.altLen;
        else if (taggedAt(m.provider, m.providerSlot).ctr < 2 &&
                 m.altLen >= 0)
            m.finalLen = m.altLen;
        else
            m.finalLen = m.providerLen;
        return m;
    }

    unsigned
    run(uint32_t pc, unsigned max_n) const
    {
        Match m = match(pc);
        if (m.finalLen < 0)
            return max_n;
        long long predicted = m.finalLen;
        long long cur = baseAt(baseIndex(pc)).cur;
        if (cur > 0 && predicted <= cur) {
            if (predicted < 1)
                predicted = 1;
            while (predicted <= cur)
                predicted *= 2;
        }
        long long rem = predicted - cur;
        if (rem <= 0)
            return 0;
        return rem < (long long)max_n ? (unsigned)rem : max_n;
    }

    bool predict(uint32_t pc) const { return run(pc, 1) > 0; }

    void
    update(uint32_t pc, bool taken)
    {
        uint32_t bi = baseIndex(pc);
        Base &b = base[bi];
        if (taken) {
            ++b.cur;
            return;
        }

        uint32_t len = b.cur;
        Match m = match(pc);

        if (m.provider >= 0) {
            Tagged &e = tagged[{unsigned(m.provider), m.providerSlot}];
            if (m.altLen >= 0 && m.providerLen != m.altLen) {
                if (m.providerLen == (long long)len)
                    e.u = std::min(e.u + 1, 3);
                else if (m.altLen == (long long)len)
                    e.u = std::max(e.u - 1, 0);
            }
            if (e.len == len)
                e.ctr = std::min(e.ctr + 1, 3);
            else if (e.ctr > 0)
                --e.ctr;
            else
                e.len = len;
        }

        if (m.finalLen != (long long)len) {
            bool allocated = false;
            for (unsigned t = m.provider + 1; t < histLens.size();
                 ++t) {
                uint32_t idx = TageRunLengthPredictor::tableIndex(
                                   pc, b.hist, histLens[t], t) &
                               mask;
                Tagged &e = tagged[{t, idx}];
                if (!e.valid || e.u == 0) {
                    e.valid = 1;
                    e.tag = TageRunLengthPredictor::tableTag(
                        pc, b.hist, histLens[t], t);
                    e.len = len;
                    e.ctr = 1;
                    e.u = 0;
                    allocated = true;
                    break;
                }
            }
            if (!allocated) {
                for (unsigned t = m.provider + 1; t < histLens.size();
                     ++t) {
                    uint32_t idx = TageRunLengthPredictor::tableIndex(
                                       pc, b.hist, histLens[t], t) &
                                   mask;
                    Tagged &e = tagged[{t, idx}];
                    e.u = std::max(e.u - 1, 0);
                }
            }
        }

        b.valid = 1;
        b.len = len;
        b.hist = (b.hist << 8) | std::min<uint32_t>(len, 255);
        b.cur = 0;
    }

    /** Plain FNV-1a over the documented fold order (tage.hh). */
    uint64_t
    stateHash() const
    {
        uint64_t h = 1469598103934665603ULL;
        auto add = [&h](uint64_t v) {
            for (int i = 0; i < 8; ++i) {
                h ^= (v >> (8 * i)) & 0xff;
                h *= 1099511628211ULL;
            }
        };
        for (uint32_t i = 0; i <= mask; ++i) {
            Base b = baseAt(i);
            add(b.valid);
            add(b.len);
            add(b.cur);
            add(b.hist);
        }
        for (unsigned t = 0; t < histLens.size(); ++t) {
            for (uint32_t i = 0; i <= mask; ++i) {
                Tagged e = taggedAt(t, i);
                add(e.valid);
                add(e.tag);
                add(e.len);
                add(e.ctr);
                add(e.u);
            }
        }
        return h;
    }
};

TEST(TageProperty, MatchesMapReferenceModelOnRandomRunStreams)
{
    // Small config (3 tables of 32 slots, history depths 1..4) so the
    // streams actually alias tags and fight over slots. Prediction and
    // stateHash must agree after every single update.
    for (uint64_t trial = 0; trial < 6; ++trial) {
        SCOPED_TRACE(trial);
        PredictorConfig c = parsePredictorSpec("tage:3/1-4/5");
        TageRunLengthPredictor pred(c);
        RefTage ref(c);
        Rng rng(test::testSeed(8000 + trial));

        std::vector<uint32_t> pcs;
        for (int i = 0; i < 12; ++i)
            pcs.push_back(codeBase +
                          static_cast<uint32_t>(rng.below(256)) *
                              instrBytes);

        for (int run = 0; run < 400; ++run) {
            uint32_t pc = pcs[rng.below(pcs.size())];
            unsigned len = static_cast<unsigned>(rng.below(8));
            for (unsigned j = 0; j < len + 1; ++j) {
                bool taken = j < len;
                ASSERT_EQ(pred.predict(pc), ref.predict(pc))
                    << "run " << run << " step " << j;
                ASSERT_EQ(pred.predictRun(pc, 16), ref.run(pc, 16))
                    << "run " << run << " step " << j;
                pred.update(pc, taken);
                ref.update(pc, taken);
                ASSERT_EQ(pred.stateHash(), ref.stateHash())
                    << "run " << run << " step " << j;
            }
        }
    }
}

TEST(TageProperty, ResetMatchesPristineReferenceModel)
{
    PredictorConfig c = parsePredictorSpec("tage:3/1-4/5");
    TageRunLengthPredictor pred(c);
    uint64_t pristine = pred.stateHash();
    EXPECT_EQ(pristine, RefTage(c).stateHash());

    Rng rng(test::testSeed(8100));
    for (int i = 0; i < 500; ++i)
        pred.update(codeBase +
                        static_cast<uint32_t>(rng.below(64)) *
                            instrBytes,
                    rng.chance(0.7));
    EXPECT_NE(pred.stateHash(), pristine);
    pred.reset();
    EXPECT_EQ(pred.stateHash(), pristine);
}

// --- Tournament chooser convergence ---------------------------------------

/** Hand-built component: a fixed answer, immune to training. */
class ConstPredictor : public BranchPredictor
{
  public:
    explicit ConstPredictor(bool d) : dir(d) {}

    bool predict(uint32_t) const override { return dir; }

    unsigned
    predictRun(uint32_t, unsigned max_n) const override
    {
        return dir ? max_n : 0;
    }

    void update(uint32_t, bool) override {}
    void reset() override {}
    uint64_t stateHash() const override { return dir ? 2 : 1; }

  private:
    bool dir;
};

TEST(TournamentProperty, ConvergesToOracleWithinTwoUpdates)
{
    // Component A is hard-wired wrong (always not-taken on an
    // all-taken stream), B is the oracle. The two-bit chooser powers
    // on favouring A and must hand over after exactly two
    // disagreement-trained updates — the counter's distance from 0 to
    // the confident half.
    PredictorConfig c = parsePredictorSpec("tournament:let+let");
    TournamentPredictor pred(c, std::make_unique<ConstPredictor>(false),
                             std::make_unique<ConstPredictor>(true));
    const uint32_t pc = codeBase;
    EXPECT_FALSE(pred.predict(pc)); // power-on: component A
    pred.update(pc, true);
    EXPECT_FALSE(pred.predict(pc)); // one vote is not confidence
    pred.update(pc, true);
    EXPECT_TRUE(pred.predict(pc)); // handover
    EXPECT_EQ(pred.predictRun(pc, 16), 16u); // B answers the chain too
}

TEST(TournamentProperty, SaturatedChooserStopsMoving)
{
    // Once the chooser rails at 3, further oracle wins change nothing:
    // the stateHash is a fixed point.
    PredictorConfig c = parsePredictorSpec("tournament:let+let");
    TournamentPredictor pred(c, std::make_unique<ConstPredictor>(false),
                             std::make_unique<ConstPredictor>(true));
    const uint32_t pc = codeBase;
    for (int i = 0; i < 10; ++i)
        pred.update(pc, true);
    uint64_t railed = pred.stateHash();
    for (int i = 0; i < 100; ++i)
        pred.update(pc, true);
    EXPECT_EQ(pred.stateHash(), railed);
    EXPECT_TRUE(pred.predict(pc));

    // The rail is two-sided: when A starts winning, the handover back
    // needs exactly the two notches from 3 down to 1.
    pred.update(pc, false);
    EXPECT_TRUE(pred.predict(pc)); // 3 -> 2: still B
    pred.update(pc, false);
    EXPECT_FALSE(pred.predict(pc)); // 2 -> 1: A again
}

TEST(TournamentProperty, AgreementNeverTrainsTheChooser)
{
    // Both components wrong (or both right) must leave the chooser
    // untouched: only disagreement carries information.
    PredictorConfig c = parsePredictorSpec("tournament:let+let");
    TournamentPredictor pred(c, std::make_unique<ConstPredictor>(true),
                             std::make_unique<ConstPredictor>(true));
    uint64_t pristine = pred.stateHash();
    const uint32_t pc = codeBase;
    for (int i = 0; i < 50; ++i)
        pred.update(pc, i % 2 == 0); // alternate right/wrong together
    EXPECT_EQ(pred.stateHash(), pristine);
}

TEST(TournamentProperty, ChooserSlotsAreIndependentAndResettable)
{
    PredictorConfig c = parsePredictorSpec("tournament:let+let");
    TournamentPredictor pred(c, std::make_unique<ConstPredictor>(false),
                             std::make_unique<ConstPredictor>(true));
    uint64_t pristine = pred.stateHash();
    const uint32_t pc_a = codeBase;
    const uint32_t pc_b = codeBase + instrBytes;
    for (int i = 0; i < 4; ++i)
        pred.update(pc_a, true); // converge pc_a's slot to B
    EXPECT_TRUE(pred.predict(pc_a));
    EXPECT_FALSE(pred.predict(pc_b)); // untrained slot still favours A
    EXPECT_NE(pred.stateHash(), pristine);
    pred.reset();
    EXPECT_FALSE(pred.predict(pc_a));
    EXPECT_EQ(pred.stateHash(), pristine);
}

} // namespace
} // namespace loopspec
