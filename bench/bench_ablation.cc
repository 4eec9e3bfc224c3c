/**
 * @file
 * Ablation study for the design points docs/DESIGN.md calls out:
 *   (a) CLS depth — overflow losses and detection quality vs capacity
 *       (the paper asserts 16 entries suffice for SPEC95);
 *   (b) STR(i) nest limit — TPC and hit ratio as i sweeps 1..6 and
 *       beyond (STR == i -> infinity);
 *   (c) TU scaling beyond the paper's 16 contexts;
 *   (d) LRU vs the §2.3.2 nest-aware LET/LIT replacement (the paper
 *       found the difference negligible).
 * Run on a subset by default (deep-nesting and squash-sensitive
 * programs); --benchmarks overrides.
 *
 * Each workload is functionally executed ONCE; every ablation point is
 * derived by replay: the CLS-capacity sweep re-runs the detector over
 * the recorded control-event trace, the replacement-policy comparison
 * replays the recorded loop-event stream into fresh meters, and the
 * speculation sweeps reuse the event recording.
 */

#include <iostream>
#include <map>

#include "harness/runner.hh"
#include "loop/loop_detector.hh"
#include "loop/loop_stats.hh"
#include "speculation/spec_sim.hh"
#include "tables/hit_ratio.hh"
#include "util/table_writer.hh"

using namespace loopspec;

namespace
{

/** Detector re-run over the recorded control stream at @p cls_entries. */
LoopStatsReport
clsSweepPoint(const ControlTrace &trace, size_t cls_entries)
{
    LoopDetector det({cls_entries});
    LoopEventRecorder rec;
    det.addListener(&rec);
    const uint64_t n = replayControlTrace(trace, det);
    return loopStatsFromRecording(rec.take(), n);
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions opts = parseRunOptions(argc, argv, {});
    if (opts.benchmarks.empty())
        opts.benchmarks = {"go", "fpppp", "perl", "mgrid", "compress"};

    // One functional pass per workload; all ablation points below are
    // replay-derived.
    std::map<std::string, WorkloadArtifacts> arts;
    for (const auto &name : opts.benchmarks) {
        CollectFlags f;
        f.recording = true;
        f.controlTrace = true;
        arts.emplace(name, runWorkload(name, opts, f));
    }

    // (a) CLS capacity sweep, replayed per size.
    std::cout << "Ablation A: CLS capacity (overflow drops / detected "
                 "executions)\n";
    TableWriter a({"bench", "cls=4", "cls=8", "cls=12", "cls=16"});
    for (const auto &name : opts.benchmarks) {
        const auto &art = arts.at(name);
        a.row();
        a.cell(name);
        for (size_t cls : {4u, 8u, 12u, 16u}) {
            LoopStatsReport r = clsSweepPoint(art.controlTrace, cls);
            a.cell(strprintf("%llu/%llu",
                             static_cast<unsigned long long>(
                                 r.overflowDrops),
                             static_cast<unsigned long long>(
                                 r.totalExecs)));
        }
    }
    a.print(std::cout);

    // (b) STR(i) nest-limit sweep at 4 TUs.
    std::cout << "\nAblation B: STR(i) nest limit, 4 TUs "
                 "(TPC / hit%)\n";
    TableWriter bt({"bench", "i=1", "i=2", "i=3", "i=4", "i=6", "STR"});
    for (const auto &name : opts.benchmarks) {
        const auto &art = arts.at(name);
        bt.row();
        bt.cell(name);
        for (unsigned i : {1u, 2u, 3u, 4u, 6u}) {
            SpecConfig cfg{4, SpecPolicy::StrI, i};
            SpecStats s = ThreadSpecSimulator(art.recording, cfg).run();
            bt.cell(strprintf("%.2f/%.0f", s.tpc(),
                              100.0 * s.hitRatio()));
        }
        SpecConfig cfg{4, SpecPolicy::Str, 0};
        SpecStats s = ThreadSpecSimulator(art.recording, cfg).run();
        bt.cell(strprintf("%.2f/%.0f", s.tpc(), 100.0 * s.hitRatio()));
    }
    bt.print(std::cout);

    // (d) LRU vs the §2.3.2 nest-aware replacement: the paper evaluated
    // this variant and found "the improvement on the hit ratio is
    // negligible with respect to the LRU algorithm". The meters consume
    // loop events only, so they run off the recorded stream.
    std::cout << "\nAblation D: LET/LIT replacement policy "
                 "(hit% LRU vs nest-aware, 4 entries)\n";
    TableWriter dt({"bench", "LET lru", "LET nest", "LIT lru",
                    "LIT nest"});
    for (const auto &name : opts.benchmarks) {
        const auto &art = arts.at(name);
        LetHitMeter let_lru(4, TableReplacement::Lru);
        LetHitMeter let_nest(4, TableReplacement::NestAware);
        LitHitMeter lit_lru(4, TableReplacement::Lru);
        LitHitMeter lit_nest(4, TableReplacement::NestAware);
        replayLoopEvents(art.recording,
                         {&let_lru, &let_nest, &lit_lru, &lit_nest});
        dt.row();
        dt.cell(name);
        dt.cell(100.0 * let_lru.result().ratio(), 2);
        dt.cell(100.0 * let_nest.result().ratio(), 2);
        dt.cell(100.0 * lit_lru.result().ratio(), 2);
        dt.cell(100.0 * lit_nest.result().ratio(), 2);
    }
    dt.print(std::cout);

    // (e) Finite LET capacity behind the STR predictor: connects the
    // Figure-4 LET hit ratios to delivered TPC.
    std::cout << "\nAblation E: STR TPC vs LET capacity, 4 TUs\n";
    TableWriter et({"bench", "LET=4", "LET=8", "LET=16", "unbounded"});
    for (const auto &name : opts.benchmarks) {
        const auto &art = arts.at(name);
        et.row();
        et.cell(name);
        for (size_t let : {4u, 8u, 16u, 0u}) {
            SpecConfig cfg{4, SpecPolicy::Str, 3, DataMode::None, let};
            SpecStats s = ThreadSpecSimulator(art.recording, cfg).run();
            et.cell(s.tpc(), 2);
        }
    }
    et.print(std::cout);

    // (c) TU scaling beyond the paper.
    std::cout << "\nAblation C: STR TPC scaling to 64 TUs\n";
    TableWriter ct({"bench", "4", "16", "32", "64"});
    for (const auto &name : opts.benchmarks) {
        const auto &art = arts.at(name);
        ct.row();
        ct.cell(name);
        for (unsigned tu : {4u, 16u, 32u, 64u}) {
            SpecConfig cfg{tu, SpecPolicy::Str, 0};
            SpecStats s = ThreadSpecSimulator(art.recording, cfg).run();
            ct.cell(s.tpc(), 2);
        }
    }
    ct.print(std::cout);
    return 0;
}
