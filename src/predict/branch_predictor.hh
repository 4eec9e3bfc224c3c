/**
 * @file
 * Conventional branch-predictor baselines (docs/PREDICTORS.md): the
 * schemes the paper's dynamic loop detection competes against. Every
 * predictor consumes the same retired conditional-branch stream the
 * LoopDetector consumes (PC + taken-ness, in retire order) and answers
 * two questions:
 *
 *  - predict(pc): will the next retired occurrence of this branch be
 *    taken? (the accuracy question the PredictorMeter measures);
 *  - predictRun(pc, max_n): how many *consecutive* taken outcomes do
 *    you predict, chaining speculatively? (the spawn-point question the
 *    ThreadSpecSimulator's PRED policy asks at each loop-iteration
 *    start — the predictor-based analogue of the LET trip prediction).
 *
 * Implementations: BimodalPredictor (bimodal.hh), GsharePredictor
 * (gshare.hh), LocalHistoryPredictor (local.hh), StrideRunPredictor
 * (stride_run.hh), TournamentPredictor (tournament.hh),
 * TageRunLengthPredictor (tage.hh). All are deterministic pure
 * functions of their update stream, so sweep cells that own one stay
 * bit-identical across any --jobs value.
 */

#ifndef LOOPSPEC_PREDICT_BRANCH_PREDICTOR_HH
#define LOOPSPEC_PREDICT_BRANCH_PREDICTOR_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace loopspec
{

/** The implemented prediction schemes. */
enum class PredictorKind : uint8_t
{
    Bimodal,    //!< per-PC two-bit counters, no history
    Gshare,     //!< global history XOR PC into one counter table
    Local,      //!< two-level: per-PC history into a shared pattern table
    StrideRun,  //!< LET-style last+stride run lengths on the branch stream
    Tournament, //!< per-PC chooser arbitrating two component schemes
    Tage,       //!< tagged geometric run-length-history tables
};

/**
 * One predictor configuration, as written on a sweep grid's
 * `predictors=` axis:
 *
 *   bimodal[:T]      T = log2 counter-table entries       (default 12)
 *   gshare[:H[/T]]   H = global-history bits, T = log2 table entries
 *                    (default 12; T defaults to H)
 *   local[:H/L]      H = per-branch history bits (pattern table has
 *                    2^H counters), L = log2 history-table entries
 *                    (default 10/10)
 *   let[:T]          T = log2 stride-table entries        (default 10)
 *   tage[:N/a-b[/T]] N tagged tables, run-length history depths
 *                    geometrically spaced in [a, b] completed runs,
 *                    T = log2 entries per table     (default 4/2-8/10)
 *   tournament:<a>+<b>
 *                    chooser over two component specs (any of the
 *                    above; tournaments don't nest); chooser table is
 *                    2^12 two-bit counters
 */
struct PredictorConfig
{
    PredictorKind kind = PredictorKind::Bimodal;
    unsigned tableBits = 12;   //!< log2 of the counter-table entries
    unsigned historyBits = 12; //!< history width (gshare/local)
    unsigned l1Bits = 10;      //!< log2 history-table entries (local)
    unsigned tageTables = 4;   //!< tagged tables (tage)
    unsigned tageMinHist = 2;  //!< shortest history, completed runs (tage)
    unsigned tageMaxHist = 8;  //!< longest history, completed runs (tage)
    //! the two component configurations (tournament; empty otherwise)
    std::vector<PredictorConfig> components;

    bool
    operator==(const PredictorConfig &o) const
    {
        return kind == o.kind && tableBits == o.tableBits &&
               historyBits == o.historyBits && l1Bits == o.l1Bits &&
               tageTables == o.tageTables &&
               tageMinHist == o.tageMinHist &&
               tageMaxHist == o.tageMaxHist && components == o.components;
    }
    bool operator!=(const PredictorConfig &o) const
    {
        return !(*this == o);
    }
};

/** Canonical spec string ("bimodal:12", "gshare:12", "gshare:10/14",
 *  "local:10/10") — parsePredictorSpec(predictorName(c)) == c. */
std::string predictorName(const PredictorConfig &config);

/** Parse a `predictors=` axis entry (see PredictorConfig); fatal() on
 *  malformed specs or bit widths outside [1, 20]. */
PredictorConfig parsePredictorSpec(const std::string &text);

/** Non-fatal parsePredictorSpec for untrusted input (the sweep
 *  service): "" on success with *out set, else the diagnostic
 *  parsePredictorSpec would have died with. */
std::string tryParsePredictorSpec(const std::string &text,
                                  PredictorConfig *out);

/**
 * Interface every scheme implements. update() is called once per
 * retired conditional branch, in retire order — the exact stream the
 * CLS algorithm observes, so predictor and loop-detection accuracy are
 * measured against identical information.
 */
class BranchPredictor
{
  public:
    virtual ~BranchPredictor() = default;

    /** Predicted direction of the next occurrence of @p pc. */
    virtual bool predict(uint32_t pc) const = 0;

    /**
     * Chained spawn-point prediction: the number of consecutive future
     * taken outcomes of @p pc the predictor commits to, capped at
     * @p max_n. History-based schemes thread a speculative history copy
     * through the chain (each predicted-taken outcome is shifted in
     * before the next lookup); the base implementation is the
     * history-less all-or-nothing answer a bimodal table gives.
     */
    virtual unsigned
    predictRun(uint32_t pc, unsigned max_n) const
    {
        return predict(pc) ? max_n : 0;
    }

    /** Retire one conditional branch: train tables, advance history. */
    virtual void update(uint32_t pc, bool taken) = 0;

    /** Forget everything (back to the power-on state). */
    virtual void reset() = 0;

    /**
     * FNV-1a digest of the complete architectural state (every counter
     * and history register). Two predictors fed the same update stream
     * must hash identically — the fuzz harness's predictor-state
     * invariant (docs/TESTING.md) compares scalar- against batch-fed
     * instances through this.
     */
    virtual uint64_t stateHash() const = 0;
};

/** Build a predictor from its configuration. */
std::unique_ptr<BranchPredictor> makePredictor(const PredictorConfig &c);

namespace predict_detail
{

/** FNV-1a, the shared stateHash accumulator. */
inline uint64_t
fnv1aInit()
{
    return 1469598103934665603ULL;
}

inline void
fnv1aAdd(uint64_t &h, uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 1099511628211ULL;
    }
}

/** Counter-table index of a PC: instructions are instrBytes apart, so
 *  drop the always-zero low bits before masking/XORing. */
inline uint32_t
pcIndexBits(uint32_t pc)
{
    return pc >> 2;
}

/**
 * Shared remaining-run arithmetic for run-length schemes (stride_run,
 * tage): given a predicted total run length @p predicted (consecutive
 * taken outcomes before the closing not-taken) and @p cur taken
 * outcomes already observed in the current run, how many more takens do
 * we commit to, capped at @p max_n? Mirrors the STR policy's doubling
 * recovery in ThreadSpecSimulator::spawnCount: once a live run outgrows
 * its prediction, assume it runs at least as far again rather than
 * predicting an exit we already know is wrong.
 */
inline unsigned
runRemaining(int64_t predicted, uint64_t cur, unsigned max_n)
{
    if (cur > 0 && predicted <= static_cast<int64_t>(cur)) {
        if (predicted < 1)
            predicted = 1;
        while (predicted <= static_cast<int64_t>(cur))
            predicted *= 2;
    }
    int64_t rem = predicted - static_cast<int64_t>(cur);
    if (rem <= 0)
        return 0;
    return rem < static_cast<int64_t>(max_n) ? static_cast<unsigned>(rem)
                                             : max_n;
}

} // namespace predict_detail

} // namespace loopspec

#endif // LOOPSPEC_PREDICT_BRANCH_PREDICTOR_HH
