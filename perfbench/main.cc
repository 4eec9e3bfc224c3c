/**
 * @file
 * loopspec_perfbench: one benchmark run of one workload.
 *
 *   loopspec_perfbench --workload paper|dataspec|replay|sweepd
 *       --seed N --seconds S --trace 0|1 --expect-digest HEX
 *       [--scratch-root DIR] [--spans-out FILE] [--self-check 1]
 *
 * perfbench/run.py builds this binary and supplies the committed digest.
 * Human-readable lines come first; the last line of standard output is
 * the JSON result. The exit code is 0 only when every checked operation
 * matched its expected output.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include <unistd.h>

#include "common.hh"
#include "util/cli.hh"
#include "util/logging.hh"

using namespace perfbench;

namespace
{

/** The per-process scratch directory, removed however the run ends. */
std::string g_scratch;

void
removeScratch()
{
    if (!g_scratch.empty()) {
        std::error_code ec;
        std::filesystem::remove_all(g_scratch, ec);
    }
}

std::string
jsonNumber(double v)
{
    return std::isfinite(v) ? format("%.17g", v) : "0";
}

} // namespace

int
main(int argc, char **argv)
{
    loopspec::CliArgs args(argc, argv,
                           {"workload", "seed", "seconds", "trace",
                            "expect-digest", "scratch-root", "spans-out",
                            "self-check"});
    BenchOptions opts;
    opts.workload = args.getString("workload", "");
    opts.seed = args.getUint("seed", 1);
    opts.seconds = args.getDouble("seconds", 10.0);
    opts.trace = args.getUint("trace", 0) != 0;
    opts.selfCheck = args.getBool("self-check", false);
    opts.expectDigest = args.getString("expect-digest", "");
    opts.spansOut = args.getString("spans-out", "");
    opts.width = std::min(4u, std::max(1u,
                                       std::thread::hardware_concurrency()));

    const bool batch = opts.workload == "paper" ||
                       opts.workload == "dataspec" ||
                       opts.workload == "replay";
    if (!batch && opts.workload != "sweepd")
        loopspec::fatal("unknown --workload '%s' (want paper|dataspec|"
                        "replay|sweepd)",
                        opts.workload.c_str());
    if (!(opts.seconds > 0.0))
        loopspec::fatal("--seconds must be positive");

    // Exported traces and the socket live in a directory of this
    // process alone, so concurrent runs never share a path.
    opts.scratchDir = format("%s/run-%d-%s",
                             args.getString("scratch-root", ".").c_str(),
                             static_cast<int>(::getpid()),
                             opts.workload.c_str());
    std::filesystem::create_directories(opts.scratchDir);
    g_scratch = opts.scratchDir;
    std::atexit(removeScratch);

    const Report rep =
        batch ? runBatchWorkload(opts) : runSweepdWorkload(opts);

    if (!opts.spansOut.empty() && !rep.spans.empty())
        writeSpans(opts.spansOut, rep.spans);

    const double fail_frac =
        rep.attempted ? static_cast<double>(rep.failed) / rep.attempted
                      : 1.0;
    std::printf("workload %s, seed %llu, %s run\n", opts.workload.c_str(),
                static_cast<unsigned long long>(opts.seed),
                opts.trace ? "traced (per-layer)" : "untraced (end-to-end)");
    for (const std::string &note : rep.notes)
        std::printf("  %s\n", note.c_str());
    std::printf("  fail_frac %.6f (%llu failed of %llu attempted)\n",
                fail_frac, static_cast<unsigned long long>(rep.failed),
                static_cast<unsigned long long>(rep.attempted));
    for (const Metric &m : rep.metrics)
        std::printf("  %-36s %14.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());

    std::string json = format(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": {",
        rep.failed == 0 && rep.attempted > 0 ? "true" : "false",
        static_cast<unsigned long long>(rep.attempted),
        static_cast<unsigned long long>(rep.failed));
    for (size_t i = 0; i < rep.metrics.size(); ++i) {
        const Metric &m = rep.metrics[i];
        json += format("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                       i ? ", " : "", m.name.c_str(),
                       jsonNumber(m.value).c_str(), m.unit.c_str());
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return rep.failed == 0 && rep.attempted > 0 ? 0 : 1;
}
