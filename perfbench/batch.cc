/**
 * @file
 * The batch workloads — paper, dataspec and replay. Each is one grid over
 * the 18 Table-1 workloads, run as runSpecSweep(grid, width) passes. The
 * seed only orders the workload axis, which decides which functional
 * passes straggle: it seeds a fresh order for every pass, so a run's
 * median averages over many orders instead of riding on one. The traced
 * run alternates those passes with composedSweep() passes.
 */

#include <cmath>
#include <filesystem>
#include <map>
#include <random>

#include "bench/paper_ref.hh"
#include "common.hh"
#include "digest.hh"
#include "harness/runner.hh"
#include "pipeline.hh"
#include "speculation/sweep.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"
#include "workloads/workload.hh"

using namespace loopspec;

namespace perfbench
{

namespace
{

/** Grid axes of each batch workload (see perfbench/catalogue.json). */
const std::map<std::string, std::string> kGridSpecs = {
    {"paper", "paper"},
    {"dataspec",
     "policies=str,str3;tus=4,8;dataspec=none,live,mem,all;datacost=20"},
    {"replay", "cls=16,2,4,8,32;ideal=1;predictors=tournament:let+local;"
               "tus=4"},
};

/** Timed passes a run makes at the least, however short --seconds is. */
constexpr size_t kMinPasses = 3;

/** Set-up repetitions whose median is setup_s. */
constexpr int kSetupReps = 5;

/** Back-to-back program builds averaged into one in-process set-up
 *  sample: one build of the 18 programs takes about a millisecond, too
 *  short to time alone against page-fault and cache noise. */
constexpr int kBuildRounds = 10;

/**
 * Mean relative error (percent) of the STR suite-average TPC at
 * 2/4/8/16 TUs against the paper's Figure 6. The synthetic suite was
 * calibrated against these numbers, so this is a drift check on the
 * model, not held-out validation.
 */
double
paperTpcErrPct(const SweepResult &result)
{
    const SweepGrid &grid = result.grid;
    size_t str = grid.policies.size();
    for (size_t p = 0; p < grid.policies.size(); ++p) {
        if (grid.policies[p].name() == "STR")
            str = p;
    }
    if (str == grid.policies.size())
        return 0.0;
    double err = 0.0;
    unsigned n = 0;
    for (size_t t = 0; t < grid.tuCounts.size(); ++t) {
        auto ref = paper::fig6AvgStr.find(grid.tuCounts[t]);
        if (ref == paper::fig6AvgStr.end())
            continue;
        err += std::abs(result.meanTpc(str, t) - ref->second) / ref->second;
        ++n;
    }
    return n ? 100.0 * err / n : 0.0;
}

/**
 * What the workload's user pays once before the first grid pass.
 * replay: exporting the 18 control-trace containers it replays from.
 * paper/dataspec: generating the 18 workload programs (the inputs),
 * averaged over kBuildRounds builds.
 */
double
setupOnce(const SweepGrid &grid, unsigned width)
{
    const double t0 = wallNow();
    if (!grid.traceDir.empty()) {
        std::filesystem::create_directories(grid.traceDir);
        RunOptions ropts;
        ropts.scale = grid.scale;
        parallelFor(width, grid.workloads.size(), [&](uint64_t w) {
            exportWorkloadTrace(grid.workloads[w], ropts, grid.traceDir,
                                TraceEncoding::Raw);
        });
        return wallNow() - t0;
    }
    for (int round = 0; round < kBuildRounds; ++round) {
        for (const std::string &name : grid.workloads)
            buildWorkload(name, grid.scale);
    }
    return (wallNow() - t0) / kBuildRounds;
}

} // namespace

Report
runBatchWorkload(const BenchOptions &opts)
{
    Report rep;
    SweepGrid grid;
    grid.workloads = workloadNames();
    grid.scale.factor = 1.0;
    const std::string err = applyGridSpec(kGridSpecs.at(opts.workload),
                                          &grid);
    if (!err.empty())
        fatal("%s", err.c_str());
    if (opts.workload == "replay")
        grid.traceDir = opts.scratchDir + "/traces";

    std::vector<double> setups;
    for (int i = 0; i < kSetupReps; ++i)
        setups.push_back(setupOnce(grid, opts.width));

    std::mt19937_64 order_rng(opts.seed);
    const auto reorder = [&] { seededShuffle(&grid.workloads, order_rng()); };

    const auto checked = [&](SweepResult result, bool corrupt) {
        if (corrupt && !result.cells.empty())
            result.cells[0].stats.cycles ^= 1;
        const std::string got = sweepDigest(result);
        rep.check(got == opts.expectDigest);
        return got;
    };

    // Untimed warm-up pass: the first pass after idle runs slower.
    reorder();
    const SweepResult warm = runSpecSweep(grid, opts.width);
    const std::string digest = checked(warm, false);
    const double tpc_err = opts.workload == "paper" ? paperTpcErrPct(warm)
                                                    : 0.0;

    std::vector<double> walls;
    std::vector<double> cpus;
    std::vector<ComposedPass> traced;
    const double start = wallNow();
    const auto traced_pass = [&] {
        reorder();
        traced.push_back(composedSweep(grid, opts.width));
        checked(traced.back().result, false);
    };
    while (walls.size() < kMinPasses ||
           wallNow() - start < opts.seconds) {
        // Traced and untraced passes swap order every round, so neither
        // side always runs first.
        const bool traced_first = opts.trace && walls.size() % 2 == 1;
        if (traced_first)
            traced_pass();
        reorder();
        const double c0 = processCpuSeconds();
        const double t0 = wallNow();
        SweepResult result = runSpecSweep(grid, opts.width);
        walls.push_back(wallNow() - t0);
        cpus.push_back(processCpuSeconds() - c0);
        checked(std::move(result), opts.selfCheck && walls.size() == 1);
        if (opts.trace && !traced_first)
            traced_pass();
    }
    const double window = wallNow() - start;

    rep.notes.push_back(format(
        "grid '%s' over %zu workloads, scale %.2f, width %u: %zu cells, "
        "digest %s (expected %s)",
        kGridSpecs.at(opts.workload).c_str(), grid.workloads.size(),
        grid.scale.factor, opts.width, warm.cells.size(), digest.c_str(),
        opts.expectDigest.c_str()));
    rep.notes.push_back(format(
        "%zu timed passes in %.2f s; setup_s is the median of %d set-ups",
        walls.size(), window, kSetupReps));
    std::string pass_list;
    for (size_t i = 0; i < walls.size(); ++i)
        pass_list += format("%s%.3f/%.3f", i ? " " : "", walls[i], cpus[i]);
    rep.notes.push_back("pass wall/cpu s: " + pass_list);
    if (opts.workload == "paper")
        rep.notes.push_back(format(
            "paper_tpc_err_pct %.4f %% (STR suite TPC vs Figure 6; the "
            "suite was calibrated against it, so not held-out)",
            tpc_err));

    if (!opts.trace) {
        double wall_sum = 0.0;
        for (double w : walls)
            wall_sum += w;
        rep.add("setup_s", median(setups), "s");
        rep.add("wall_s", median(walls), "s");
        rep.add("cpu_s", median(cpus), "s");
        rep.add("peak_rss_mb", peakRssMb(), "MiB");
        // A batch request is one whole grid pass.
        rep.add("req_per_s", static_cast<double>(walls.size()) / wall_sum,
                "1/s");
        rep.add("req_p50_ms", 1e3 * median(walls), "ms");
        rep.add("req_p99_ms", 1e3 * quantile(walls, 0.99), "ms");
        return rep;
    }

    // The per-layer figures come from the traced pass of median wall
    // time, so its stage walls and unattributed time add up exactly.
    std::vector<double> traced_walls;
    for (const ComposedPass &p : traced)
        traced_walls.push_back(p.wall);
    const double traced_median = median(traced_walls);
    size_t pick = 0;
    for (size_t i = 1; i < traced.size(); ++i) {
        if (std::abs(traced[i].wall - traced_median) <
            std::abs(traced[pick].wall - traced_median))
            pick = i;
    }
    rep.metrics = layerMetrics(traced[pick], opts.width);
    for (const char *name :
         {"service.run_ms_p50", "service.run_ms_p99",
          "service.transport_ms_p50"})
        rep.add(name, 0.0, "ms");
    rep.add("service.cache_hit_ratio", 0.0, "ratio");
    rep.add("service.cache_evictions", 0.0, "count");
    rep.add("service.cache_mb", 0.0, "MiB");
    rep.add("trace.overhead_pct",
            100.0 * (traced_median / median(walls) - 1.0), "%");
    rep.add("model.paper_tpc_err_pct", tpc_err, "%");
    rep.spans = traced[pick].spans;
    return rep;
}

} // namespace perfbench
