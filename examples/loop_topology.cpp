/**
 * @file
 * Loop topology inspector: the per-loop view of a workload — the top
 * loops by dynamic instruction span with their address ranges, execution
 * and trip statistics, termination reasons and speculation suitability
 * (constant trip counts are what the STR predictor thrives on). Every
 * figure comes from the workload's loop-event recording: its ExecRecords
 * and its single-iteration events.
 *
 *   $ ./examples/loop_topology --benchmarks compress --top 12
 */

#include <algorithm>
#include <iostream>
#include <map>
#include <memory>
#include <vector>

#include "harness/runner.hh"
#include "util/table_writer.hh"

using namespace loopspec;

namespace
{

/** Profile of a single static loop (identified by target address T). */
struct LoopRow
{
    uint32_t loop = 0;       //!< T
    uint32_t branchAddr = 0; //!< highest detecting-branch address seen
    uint64_t execs = 0;      //!< detected executions
    uint64_t singleIterExecs = 0;
    uint64_t iters = 0;      //!< iterations incl. the undetected firsts
    uint32_t minTrip = 0;    //!< over detected executions
    uint32_t maxTrip = 0;
    uint64_t instrSpan = 0;  //!< instructions from detection to end
    uint32_t maxDepth = 0;   //!< deepest CLS position observed
    uint64_t endsByClose = 0;
    uint64_t endsByExit = 0;
    uint64_t endsByOther = 0; //!< return/outer/overflow/trace-end
};

/** Per-loop rows of @p rec, largest instruction span first. */
std::vector<LoopRow>
loopRows(const LoopEventRecording &rec)
{
    std::map<uint32_t, LoopRow> table;
    for (const ExecRecord &x : rec.execs) {
        LoopRow &r = table[x.loop];
        r.loop = x.loop;
        r.branchAddr = std::max(r.branchAddr, x.branchAddr);
        r.maxDepth = std::max(r.maxDepth, x.depth);
        r.minTrip = r.execs ? std::min(r.minTrip, x.iterCount)
                            : x.iterCount;
        r.maxTrip = std::max(r.maxTrip, x.iterCount);
        ++r.execs;
        r.iters += x.iterCount;
        // Detection is the start of iteration 2 (§2.2).
        r.instrSpan += x.endBoundary - x.iterBoundaries.front();
        if (x.endReason == ExecEndReason::Close)
            ++r.endsByClose;
        else if (x.endReason == ExecEndReason::Exit)
            ++r.endsByExit;
        else
            ++r.endsByOther;
    }
    for (const LoopEventRec &e : rec.loopEvents) {
        if (e.kind != LoopEventKind::SingleIter)
            continue;
        LoopRow &r = table[e.loop];
        r.loop = e.loop;
        r.branchAddr = std::max(r.branchAddr, e.aux);
        r.maxDepth = std::max(r.maxDepth, e.depth);
        ++r.singleIterExecs;
        ++r.iters;
    }
    std::vector<LoopRow> out;
    for (const auto &[loop, r] : table)
        out.push_back(r);
    std::stable_sort(out.begin(), out.end(),
                     [](const LoopRow &a, const LoopRow &b) {
                         return a.instrSpan > b.instrSpan;
                     });
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    std::unique_ptr<CliArgs> args;
    RunOptions opts = parseRunOptions(argc, argv, {"top"}, &args);
    size_t top = args->getUint("top", 10);

    CollectFlags flags;
    flags.recording = true;
    for (const auto &name : opts.selected()) {
        const WorkloadArtifacts art = runWorkload(name, opts, flags);
        const std::vector<LoopRow> ranked = loopRows(art.recording);
        std::cout << name << ": " << ranked.size()
                  << " loops observed, " << art.totalInstrs
                  << " instructions\n";

        TableWriter t({"T", "B", "execs", "1-iter", "iters",
                       "iter/exec", "trip range", "span%", "depth",
                       "ends(close/exit/other)"});
        size_t shown = 0;
        for (const LoopRow &r : ranked) {
            if (shown++ >= top)
                break;
            const uint64_t execs = r.execs + r.singleIterExecs;
            t.row();
            t.cell(strprintf("0x%x", r.loop));
            t.cell(strprintf("0x%x", r.branchAddr));
            t.cell(r.execs);
            t.cell(r.singleIterExecs);
            t.cell(r.iters);
            t.cell(static_cast<double>(r.iters) /
                       static_cast<double>(execs),
                   2);
            t.cell(r.execs && r.minTrip == r.maxTrip
                       ? strprintf("const %u", r.minTrip)
                       : strprintf("%u..%u", r.minTrip, r.maxTrip));
            t.cell(100.0 * static_cast<double>(r.instrSpan) /
                       static_cast<double>(art.totalInstrs),
                   1);
            t.cell(static_cast<uint64_t>(r.maxDepth));
            t.cell(strprintf("%llu/%llu/%llu",
                             (unsigned long long)r.endsByClose,
                             (unsigned long long)r.endsByExit,
                             (unsigned long long)r.endsByOther));
        }
        if (opts.csv)
            t.printCsv(std::cout);
        else
            t.print(std::cout);
        std::cout << "\n";
    }
    return 0;
}
