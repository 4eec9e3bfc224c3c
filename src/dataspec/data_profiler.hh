/**
 * @file
 * §4 data-speculation statistics: per-loop iteration paths, live-in
 * registers and live-in memory locations, and their predictability with
 * last-value + stride predictors (Figure 8).
 *
 * Definitions (docs/DESIGN.md §5.13-§5.14):
 *  - the *path* of an iteration is the hash of the control transfers it
 *    retires (callee control flow included);
 *  - a *live-in register* is read before written within the iteration;
 *    its live-in value is the value seen at that first read;
 *  - a *live-in memory location* is an address loaded before stored
 *    within the iteration, keyed by the static load PC (first dynamic
 *    instance per iteration); prediction must get both the address
 *    (last address + stride) and the value (last value + stride) right.
 *
 * Only detected iterations (index >= 2) are observable, and statistics
 * follow the paper's methodology: predictability is reported over the
 * iterations of each loop's most frequent path. Tables are unbounded
 * ("assuming LIT and LET have enough capacity", §4).
 */

#ifndef LOOPSPEC_DATASPEC_DATA_PROFILER_HH
#define LOOPSPEC_DATASPEC_DATA_PROFILER_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "isa/instr.hh"
#include "loop/loop_detector.hh"
#include "predict/live_in.hh"

namespace loopspec
{

/** Profiler knobs (footprint caps keep outer-loop iterations bounded). */
struct DataSpecConfig
{
    /** Max distinct stored-to addresses tracked per live iteration;
     *  beyond this the iteration is excluded from memory live-in stats
     *  (path and register stats are kept). */
    size_t writtenSetCap = 4096;

    /** Max distinct live-in load PCs recorded per iteration. */
    size_t maxLoadPcs = 512;

    /** Max distinct paths profiled per loop (further paths lump into an
     *  overflow bucket that can never become the modal path). */
    size_t maxPathsPerLoop = 512;

    /**
     * Record a per-iteration all-live-ins-predicted flag, keyed by
     * (execId, iteration index), for consumption by the data-dependent
     * thread-speculation model (ThreadSpecSimulator's Profiled data
     * mode). One bit per detected iteration.
     */
    bool recordPerIteration = false;
};

/** Figure-8 aggregate for one program. */
struct DataSpecReport
{
    uint64_t itersEvaluated = 0; //!< detected iterations profiled
    uint64_t modalIters = 0;     //!< iterations on their loop's top path

    // Over modal-path iterations only:
    uint64_t lrTotal = 0;   //!< live-in register instances
    uint64_t lrCorrect = 0;
    uint64_t lmTotal = 0;   //!< live-in memory instances (non-overflow)
    uint64_t lmCorrect = 0;
    uint64_t lmIters = 0;   //!< modal iterations with memory evaluated
    uint64_t allLrIters = 0;
    uint64_t allLmIters = 0;
    uint64_t allDataIters = 0;

    double samePathPct() const;
    double lrPredPct() const;
    double lmPredPct() const;
    double allLrPct() const;
    double allLmPct() const;
    double allDataPct() const;
};

/**
 * The profiler. attach() makes it both a listener of a LoopDetector (the
 * iteration boundaries) and the detector's instruction consumer (the
 * operands, read straight from the cold planes on the batch path); the
 * report is available after onTraceDone. The bases are private so it
 * cannot be attached as a listener alone, which would starve it of
 * instructions.
 */
class DataSpecProfiler : private LoopListener, private InstrConsumer
{
  public:
    explicit DataSpecProfiler(DataSpecConfig config = {});

    /** Attach to @p detector as listener and instruction consumer. */
    void attach(LoopDetector &detector);

    void onInstr(const DynInstr &instr) override;
    void onSpan(const SoaBatch &batch, size_t begin, size_t count) override;
    void onExecStart(const ExecStartEvent &ev) override;
    void onIterStart(const IterEvent &ev) override;
    void onIterEnd(const IterEvent &ev) override;
    void onExecEnd(const ExecEndEvent &ev) override;
    void onTraceDone(uint64_t total_instrs) override;

    /** Valid after onTraceDone. */
    const DataSpecReport &report() const { return result; }

    /**
     * Per-execution, per-iteration "all live-in values predicted" flags
     * (iterations 2..n at indices 0..n-2). Populated only when
     * DataSpecConfig::recordPerIteration is set. One-step-ahead
     * predictability: the value a stride predictor loaded from the LIT
     * at the iteration's start would have produced.
     */
    const std::unordered_map<uint64_t, std::vector<bool>> &
    perIterationOk() const
    {
        return perIter;
    }

    /**
     * Registers-only variant of perIterationOk(): the flag ignores
     * memory live-ins (and the footprint-overflow exclusion), saying
     * only whether every live-in *register* of the iteration was stride
     * predictable. This is what a spawned thread's live-in register
     * predictor (DataMode::Full) gets right or wrong — memory
     * dependences are judged separately by the conflict profiler.
     */
    const std::unordered_map<uint64_t, std::vector<bool>> &
    perIterationLiveInOk() const
    {
        return perIterLiveIn;
    }

  private:
    struct PathAgg
    {
        uint64_t iters = 0;
        uint64_t lrTotal = 0;
        uint64_t lrCorrect = 0;
        uint64_t allLrIters = 0;
        uint64_t lmTotal = 0;
        uint64_t lmCorrect = 0;
        uint64_t lmIters = 0;
        uint64_t allLmIters = 0;
        uint64_t allDataIters = 0;
    };

    struct LoopProfile
    {
        // One shared live-in state machine (predict/live_in.hh) backs
        // the profiler, the simulator's data modes and the property
        // tests; the Figure-8 numbers are bit-identical to the
        // historical inline predictors.
        std::array<LiveInPredictor, numRegs> regs{};
        std::unordered_map<uint32_t, LiveInMemPredictor> mems;
        std::unordered_map<uint64_t, PathAgg> paths;
        uint64_t pathOverflowIters = 0;
    };

    struct Frame
    {
        uint64_t execId = 0;
        uint32_t loop = 0;
        uint64_t pathHash = 0;
        uint32_t readFirstMask = 0;
        uint32_t writtenMask = 0;
        std::array<int64_t, numRegs> firstVal{};
        std::unordered_map<uint32_t, std::pair<uint64_t, int64_t>> loads;
        std::unordered_set<uint64_t> written;
        bool memOverflow = false;

        void resetIteration();
    };

    /** The per-instruction body both deliveries share: @p stat carries
     *  the static fields (the record itself, or the batch's template),
     *  the rest are the dynamic fields it reads. */
    void profileInstr(const DynInstr &stat, bool taken, uint32_t target,
                      int64_t src_val0, int64_t src_val1,
                      uint64_t mem_addr, int64_t mem_val);

    /** Finalize the frame's current iteration: evaluate + update. */
    void evaluateIteration(Frame &frame, uint32_t iter_index);

    int findFrame(uint64_t exec_id) const;

    DataSpecConfig cfg;
    std::vector<Frame> frames;
    std::unordered_map<uint32_t, LoopProfile> loops;
    std::unordered_map<uint64_t, std::vector<bool>> perIter;
    std::unordered_map<uint64_t, std::vector<bool>> perIterLiveIn;
    DataSpecReport result;
    bool done = false;
};

} // namespace loopspec

#endif // LOOPSPEC_DATASPEC_DATA_PROFILER_HH
