#include "dataspec/data_profiler.hh"

#include <algorithm>

#include "util/logging.hh"

namespace loopspec
{

namespace
{

/** FNV-1a style mixing of one control event into a path hash. */
uint64_t
mixPath(uint64_t hash, uint32_t pc, bool taken, uint32_t target)
{
    uint64_t v = (static_cast<uint64_t>(pc) << 2) |
                 (taken ? 2u : 0u);
    v ^= static_cast<uint64_t>(target) << 33;
    hash ^= v;
    hash *= 0x100000001b3ull;
    return hash;
}

double
pct(uint64_t num, uint64_t den)
{
    return den ? 100.0 * static_cast<double>(num) /
                     static_cast<double>(den)
               : 0.0;
}

} // namespace

double DataSpecReport::samePathPct() const
{
    return pct(modalIters, itersEvaluated);
}

double DataSpecReport::lrPredPct() const { return pct(lrCorrect, lrTotal); }
double DataSpecReport::lmPredPct() const { return pct(lmCorrect, lmTotal); }
double DataSpecReport::allLrPct() const
{
    return pct(allLrIters, modalIters);
}
double DataSpecReport::allLmPct() const { return pct(allLmIters, lmIters); }
double DataSpecReport::allDataPct() const
{
    return pct(allDataIters, lmIters);
}

void
DataSpecProfiler::Frame::resetIteration()
{
    pathHash = 0xcbf29ce484222325ull;
    readFirstMask = 0;
    writtenMask = 0;
    loads.clear();
    written.clear();
    memOverflow = false;
}

DataSpecProfiler::DataSpecProfiler(DataSpecConfig config) : cfg(config)
{
}

int
DataSpecProfiler::findFrame(uint64_t exec_id) const
{
    for (size_t i = frames.size(); i-- > 0;) {
        if (frames[i].execId == exec_id)
            return static_cast<int>(i);
    }
    return -1;
}

void
DataSpecProfiler::attach(LoopDetector &detector)
{
    detector.addListener(this);
    detector.setInstrConsumer(this);
}

void
DataSpecProfiler::onInstr(const DynInstr &d)
{
    if (frames.empty())
        return;
    profileInstr(d, d.taken, d.target, d.srcVal[0], d.srcVal[1],
                 d.memAddr, d.memVal);
}

void
DataSpecProfiler::onSpan(const SoaBatch &b, size_t begin, size_t count)
{
    // The frame stack is constant across a span; hoist the no-live-loop
    // check (most of a trace retires outside any detected execution).
    if (frames.empty())
        return;
    for (size_t i = begin; i < begin + count; ++i) {
        profileInstr(b.templates[b.sidx[i]], b.taken[i] != 0, b.target[i],
                     b.srcVal0[i], b.srcVal1[i], b.memAddr[i],
                     b.memVal[i]);
    }
}

void
DataSpecProfiler::profileInstr(const DynInstr &stat, bool taken,
                               uint32_t target, int64_t src_val0,
                               int64_t src_val1, uint64_t mem_addr,
                               int64_t mem_val)
{
    const int64_t src_val[2] = {src_val0, src_val1};
    for (auto &f : frames) {
        // Control flow shapes the iteration's path.
        if (stat.kind != CtrlKind::None) {
            f.pathHash =
                mixPath(f.pathHash, stat.pc, taken, taken ? target : 0);
        }

        // Register reads before writes are live-ins; capture the value
        // at the first read. r0 is architecturally zero and excluded.
        for (unsigned s = 0; s < stat.numSrc; ++s) {
            uint8_t r = stat.srcReg[s];
            if (r == 0)
                continue;
            uint32_t bit = 1u << r;
            if ((f.writtenMask & bit) || (f.readFirstMask & bit))
                continue;
            f.readFirstMask |= bit;
            f.firstVal[r] = src_val[s];
        }
        if (stat.hasDst && stat.dstReg != 0)
            f.writtenMask |= 1u << stat.dstReg;

        // Memory: loads from addresses not stored earlier this iteration
        // are live-in locations, keyed by static load PC.
        if (stat.isLoad) {
            if (!f.memOverflow && !f.written.count(mem_addr) &&
                f.loads.size() < cfg.maxLoadPcs) {
                f.loads.emplace(stat.pc, std::make_pair(mem_addr, mem_val));
            }
        } else if (stat.isStore) {
            if (!f.memOverflow) {
                f.written.insert(mem_addr);
                if (f.written.size() > cfg.writtenSetCap)
                    f.memOverflow = true;
            }
        }
    }
}

void
DataSpecProfiler::onExecStart(const ExecStartEvent &ev)
{
    frames.emplace_back();
    Frame &f = frames.back();
    f.execId = ev.execId;
    f.loop = ev.loop;
    f.resetIteration();
}

void
DataSpecProfiler::onIterStart(const IterEvent &ev)
{
    (void)ev; // onIterEnd already reset the frame for the new iteration
}

void
DataSpecProfiler::evaluateIteration(Frame &f, uint32_t iter_index)
{
    LoopProfile &lp = loops[f.loop];

    // Path accounting: the modal path is chosen among at most
    // maxPathsPerLoop distinct paths; the long tail lumps into an
    // overflow count that never wins.
    PathAgg *agg = nullptr;
    auto pit = lp.paths.find(f.pathHash);
    if (pit != lp.paths.end()) {
        agg = &pit->second;
    } else if (lp.paths.size() < cfg.maxPathsPerLoop) {
        agg = &lp.paths[f.pathHash];
    } else {
        ++lp.pathOverflowIters;
    }
    if (agg)
        ++agg->iters;

    // Live-in registers.
    bool all_lr = true;
    for (unsigned r = 1; r < numRegs; ++r) {
        if (!(f.readFirstMask & (1u << r)))
            continue;
        LiveInPredictor &rp = lp.regs[r];
        bool correct = rp.predictCorrect(f.firstVal[r]);
        if (agg) {
            ++agg->lrTotal;
            if (correct)
                ++agg->lrCorrect;
        }
        if (!correct)
            all_lr = false;
        rp.observe(f.firstVal[r]);
    }

    // Live-in memory locations (skipped entirely on footprint overflow).
    bool all_lm = true;
    bool lm_evaluated = !f.memOverflow;
    if (lm_evaluated) {
        for (const auto &[load_pc, av] : f.loads) {
            const auto &[addr, val] = av;
            LiveInMemPredictor &mp = lp.mems[load_pc];
            bool correct = mp.predictCorrect(addr, val);
            if (agg) {
                ++agg->lmTotal;
                if (correct)
                    ++agg->lmCorrect;
            }
            if (!correct)
                all_lm = false;
            mp.observe(addr, val);
        }
    }

    if (agg) {
        if (all_lr)
            ++agg->allLrIters;
        if (lm_evaluated) {
            ++agg->lmIters;
            if (all_lm)
                ++agg->allLmIters;
            if (all_lr && all_lm)
                ++agg->allDataIters;
        }
    }

    if (cfg.recordPerIteration && iter_index >= 2) {
        size_t idx = iter_index - 2;
        std::vector<bool> &flags = perIter[f.execId];
        if (flags.size() <= idx)
            flags.resize(idx + 1, false);
        flags[idx] = all_lr && lm_evaluated && all_lm;

        std::vector<bool> &reg_flags = perIterLiveIn[f.execId];
        if (reg_flags.size() <= idx)
            reg_flags.resize(idx + 1, false);
        reg_flags[idx] = all_lr;
    }

    f.resetIteration();
}

void
DataSpecProfiler::onIterEnd(const IterEvent &ev)
{
    int idx = findFrame(ev.execId);
    LOOPSPEC_ASSERT(idx >= 0, "IterEnd for unknown frame");
    evaluateIteration(frames[static_cast<size_t>(idx)], ev.iterIndex);
}

void
DataSpecProfiler::onExecEnd(const ExecEndEvent &ev)
{
    int idx = findFrame(ev.execId);
    LOOPSPEC_ASSERT(idx >= 0, "ExecEnd for unknown frame");
    // IterEnd already evaluated the final iteration (overflow drops lose
    // their partial iteration, which the real hardware also never sees).
    frames.erase(frames.begin() + idx);
}

void
DataSpecProfiler::onTraceDone(uint64_t total_instrs)
{
    (void)total_instrs;
    LOOPSPEC_ASSERT(!done, "onTraceDone twice");
    LOOPSPEC_ASSERT(frames.empty(), "frames must drain at trace end");
    done = true;

    for (const auto &[loop, lp] : loops) {
        (void)loop;
        uint64_t loop_iters = lp.pathOverflowIters;
        const PathAgg *modal = nullptr;
        for (const auto &[hash, agg] : lp.paths) {
            (void)hash;
            loop_iters += agg.iters;
            if (!modal || agg.iters > modal->iters)
                modal = &agg;
        }
        result.itersEvaluated += loop_iters;
        if (!modal)
            continue;
        result.modalIters += modal->iters;
        result.lrTotal += modal->lrTotal;
        result.lrCorrect += modal->lrCorrect;
        result.lmTotal += modal->lmTotal;
        result.lmCorrect += modal->lmCorrect;
        result.lmIters += modal->lmIters;
        result.allLrIters += modal->allLrIters;
        result.allLmIters += modal->allLmIters;
        result.allDataIters += modal->allDataIters;
    }
}

} // namespace loopspec
