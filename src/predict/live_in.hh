/**
 * @file
 * Live-in value predictors for spawned iterations (docs/DATASPEC.md).
 *
 * A thread spawned for iteration j must guess the values its iteration
 * reads before writing — registers and memory locations alike. The
 * hardware the paper's §4 sketches keeps a last-value + stride entry per
 * live-in; these two classes are that entry, factored out of the
 * DataSpecProfiler so the profiler, the property tests and the
 * ThreadSpecSimulator's data modes all share one state machine.
 *
 * State machine (both predictors): 0 = empty, 1 = have last value,
 * 2 = have last value + stride. A prediction is only offered (and only
 * counted correct) in state 2, and equals last + stride (wrapping, like
 * every stride computation here). Observing a
 * value always updates: state 1 derives the stride and promotes to 2;
 * state 0 just records the value. This is deliberately bit-identical to
 * the profiler's historical inline predictors — the Figure-8 numbers
 * must not move.
 */

#ifndef LOOPSPEC_PREDICT_LIVE_IN_HH
#define LOOPSPEC_PREDICT_LIVE_IN_HH

#include <cstdint>

namespace loopspec
{

/** Two's-complement wrapping a + b. Live-in values are arbitrary 64-bit
 *  patterns, so stride arithmetic must wrap rather than overflow (signed
 *  overflow is undefined). */
inline int64_t
wrapAdd(int64_t a, int64_t b)
{
    return static_cast<int64_t>(static_cast<uint64_t>(a) +
                                static_cast<uint64_t>(b));
}

/** Two's-complement wrapping a - b (see wrapAdd). */
inline int64_t
wrapSub(int64_t a, int64_t b)
{
    return static_cast<int64_t>(static_cast<uint64_t>(a) -
                                static_cast<uint64_t>(b));
}

/** Last-value + stride predictor over one live-in register. */
class LiveInPredictor
{
  public:
    /** True iff the predictor would have produced exactly @p v. */
    bool
    predictCorrect(int64_t v) const
    {
        return st == 2 && wrapAdd(last, stride) == v;
    }

    /** True once a prediction is offered (two observations seen). */
    bool hasPrediction() const { return st == 2; }

    /** The value a spawned iteration would be handed (state 2 only). */
    int64_t predicted() const { return wrapAdd(last, stride); }

    /** Train on the live-in value an iteration actually read. */
    void
    observe(int64_t v)
    {
        if (st >= 1) {
            stride = wrapSub(v, last);
            st = 2;
        } else {
            st = 1;
        }
        last = v;
    }

    void
    reset()
    {
        last = 0;
        stride = 0;
        st = 0;
    }

    /** Mix the full predictor state into an FNV-1a style hash — the
     *  property tests compare this against a reference model after
     *  every update. */
    uint64_t
    stateHash() const
    {
        uint64_t h = 0xcbf29ce484222325ull;
        h = (h ^ static_cast<uint64_t>(last)) * 0x100000001b3ull;
        h = (h ^ static_cast<uint64_t>(stride)) * 0x100000001b3ull;
        h = (h ^ st) * 0x100000001b3ull;
        return h;
    }

    uint8_t state() const { return st; }
    int64_t lastValue() const { return last; }
    int64_t strideValue() const { return stride; }

  private:
    int64_t last = 0;
    int64_t stride = 0;
    uint8_t st = 0;
};

/**
 * Last-value + stride predictor over one live-in memory location (keyed
 * by static load PC): both the address and the loaded value must be
 * predicted, each with its own stride.
 */
class LiveInMemPredictor
{
  public:
    bool
    predictCorrect(uint64_t addr, int64_t val) const
    {
        return st == 2 &&
               lastAddr + static_cast<uint64_t>(addrStride) == addr &&
               wrapAdd(lastVal, valStride) == val;
    }

    bool hasPrediction() const { return st == 2; }

    void
    observe(uint64_t addr, int64_t val)
    {
        if (st >= 1) {
            addrStride = static_cast<int64_t>(addr - lastAddr);
            valStride = wrapSub(val, lastVal);
            st = 2;
        } else {
            st = 1;
        }
        lastAddr = addr;
        lastVal = val;
    }

    void
    reset()
    {
        lastAddr = 0;
        addrStride = 0;
        lastVal = 0;
        valStride = 0;
        st = 0;
    }

    uint64_t
    stateHash() const
    {
        uint64_t h = 0xcbf29ce484222325ull;
        h = (h ^ lastAddr) * 0x100000001b3ull;
        h = (h ^ static_cast<uint64_t>(addrStride)) * 0x100000001b3ull;
        h = (h ^ static_cast<uint64_t>(lastVal)) * 0x100000001b3ull;
        h = (h ^ static_cast<uint64_t>(valStride)) * 0x100000001b3ull;
        h = (h ^ st) * 0x100000001b3ull;
        return h;
    }

    uint8_t state() const { return st; }

  private:
    uint64_t lastAddr = 0;
    int64_t addrStride = 0;
    int64_t lastVal = 0;
    int64_t valStride = 0;
    uint8_t st = 0;
};

} // namespace loopspec

#endif // LOOPSPEC_PREDICT_LIVE_IN_HH
