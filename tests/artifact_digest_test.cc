/**
 * @file
 * Artifact digests: regenerate the paper's derived artifacts at scale
 * 0.05 and compare an FNV-1a digest of each rendering with the value
 * committed in tests/artifacts/digests.txt.
 *
 * Covered: Table 1 (LoopStatsReport), the Figure-4 LET/LIT hit rows and
 * the Figure-5 ideal rows from runWorkloads, both executed in process and
 * streamed from exported trace containers; multi-CLS ideal=1 sweep JSON
 * (with and without simulator cells), live and from --trace-dir; and the
 * same grids served by a SweepServer over its socket; the predictor
 * meters of bench_predict_cmp's default battery (live and from
 * --trace-dir), the §4 DataSpecReport and a data-speculation sweep grid
 * (live only: both read operand values). Every artifact is regenerated
 * at a pool width of 1 and of 4 and must hit the same digest.
 *
 * The digests pin the artifacts across refactors of the derive path. A
 * change that is meant to move an artifact edits digests.txt by hand;
 * there is deliberately no flag that rewrites it.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "harness/runner.hh"
#include "service/protocol.hh"
#include "service/sweep_server.hh"
#include "speculation/sweep.hh"
#include "tests/test_util.hh"
#include "trace_io/trace_codec.hh"
#include "util/logging.hh"
#include "workloads/workload.hh"

#ifndef LOOPSPEC_SOURCE_DIR
#error "artifact_digest_test needs LOOPSPEC_SOURCE_DIR (see CMakeLists.txt)"
#endif

using namespace loopspec;

namespace
{

constexpr double kScale = 0.05;
const char *const kDigestFile =
    LOOPSPEC_SOURCE_DIR "/tests/artifacts/digests.txt";
const unsigned kWidths[] = {1, 4};

/** The cells grid of the replay benchmark, and its rows-only twin. */
const char *const kCellsGrid =
    "cls=16,2,4,8,32;ideal=1;predictors=tournament:let+local;tus=4";
const char *const kRowsGrid = "cls=16,2,4,8,32;ideal=1";
/** The data-speculation benchmark's grid at one TU count. */
const char *const kDataGrid =
    "policies=str,str3;tus=4;dataspec=none,live,mem,all;datacost=20";
/** bench_predict_cmp's default --predictors battery. */
const char *const kPredictorBattery =
    "bimodal:12,gshare:12,local:10/10,let:10,"
    "tournament:let:10+local:10/10,tage:4/2-8";

std::string
fnvHex(const std::string &text)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return strprintf("%016" PRIx64, h);
}

std::string
exact(double v)
{
    return strprintf("%.17g", v);
}

/** name -> digest, from the committed file ("name hex" per line). */
std::map<std::string, std::string>
committedDigests()
{
    std::map<std::string, std::string> out;
    std::ifstream in(kDigestFile);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string name, hex;
        if (fields >> name >> hex)
            out[name] = hex;
    }
    return out;
}

void
expectDigest(const std::string &name, const std::string &text,
             const std::string &context)
{
    static const std::map<std::string, std::string> committed =
        committedDigests();
    const std::string got = fnvHex(text);
    auto it = committed.find(name);
    ASSERT_NE(it, committed.end())
        << "no committed digest for '" << name << "' in " << kDigestFile
        << "; regenerated digest " << got << " (" << context << ")";
    EXPECT_EQ(it->second, got)
        << name << " (" << context << "): committed digest "
        << it->second << ", regenerated digest " << got;
}

std::string
table1Text(const std::vector<WorkloadArtifacts> &arts)
{
    std::string out;
    for (const WorkloadArtifacts &a : arts) {
        const LoopStatsReport &r = a.loopStats;
        out += strprintf(
            "%s %llu %llu %llu %llu %llu %s %s %s %u %llu %s\n",
            a.name.c_str(), (unsigned long long)r.totalInstrs,
            (unsigned long long)r.staticLoops,
            (unsigned long long)r.totalExecs,
            (unsigned long long)r.totalIters,
            (unsigned long long)r.singleIterExecs,
            exact(r.itersPerExec).c_str(), exact(r.instrsPerIter).c_str(),
            exact(r.avgNesting).c_str(), r.maxNesting,
            (unsigned long long)r.overflowDrops,
            exact(r.loopCoverage).c_str());
    }
    return out;
}

std::string
fig4Text(const std::vector<WorkloadArtifacts> &arts)
{
    std::string out;
    for (const WorkloadArtifacts &a : arts) {
        out += a.name;
        for (const auto &[entries, r] : a.letResults) {
            out += strprintf(" let%zu=%llu/%llu", entries,
                             (unsigned long long)r.hits,
                             (unsigned long long)r.accesses);
        }
        for (const auto &[entries, r] : a.litResults) {
            out += strprintf(" lit%zu=%llu/%llu", entries,
                             (unsigned long long)r.hits,
                             (unsigned long long)r.accesses);
        }
        out += "\n";
    }
    return out;
}

std::string
idealText(const std::vector<WorkloadArtifacts> &arts)
{
    std::string out;
    for (const WorkloadArtifacts &a : arts) {
        out += a.name + " " + std::to_string(a.totalInstrs) + " " +
               exact(a.idealTpc) + " " + exact(a.idealTpcPrefix) + "\n";
    }
    return out;
}

std::string
predictorText(const std::vector<WorkloadArtifacts> &arts)
{
    std::string out;
    for (const WorkloadArtifacts &a : arts) {
        out += a.name;
        for (const PredictorMeterResult &m : a.predictorStats) {
            out += strprintf(" %s=%llu/%llu/%016llx",
                             predictorName(m.config).c_str(),
                             (unsigned long long)m.hits,
                             (unsigned long long)m.lookups,
                             (unsigned long long)m.stateHash);
        }
        out += "\n";
    }
    return out;
}

std::string
dataSpecText(const std::vector<WorkloadArtifacts> &arts)
{
    std::string out;
    for (const WorkloadArtifacts &a : arts) {
        const DataSpecReport &r = a.dataSpec;
        out += strprintf(
            "%s %llu %llu %llu %llu %llu %llu %llu %llu %llu %llu\n",
            a.name.c_str(), (unsigned long long)r.itersEvaluated,
            (unsigned long long)r.modalIters,
            (unsigned long long)r.lrTotal,
            (unsigned long long)r.lrCorrect,
            (unsigned long long)r.lmTotal,
            (unsigned long long)r.lmCorrect,
            (unsigned long long)r.lmIters,
            (unsigned long long)r.allLrIters,
            (unsigned long long)r.allLmIters,
            (unsigned long long)r.allDataIters);
    }
    return out;
}

/** Sweep JSON with the jobs echo fixed and the wall-clock block cut. */
std::string
sweepText(const SweepResult &result)
{
    std::ostringstream os;
    writeSweepJson(os, result, 0);
    const std::string json = os.str();
    return json.substr(0, json.find("\"wall\""));
}

SweepGrid
gridFor(const char *spec, const std::string &trace_dir)
{
    SweepGrid grid;
    grid.workloads = workloadNames();
    grid.scale.factor = kScale;
    grid.traceDir = trace_dir;
    std::string err = applyGridSpec(spec, &grid);
    EXPECT_EQ(err, "");
    return grid;
}

/** Export every Table-1 workload's control trace into @p dir. */
void
exportAll(const test::ScratchDir &dir)
{
    RunOptions opts;
    opts.scale.factor = kScale;
    for (const std::string &name : workloadNames())
        exportWorkloadTrace(name, opts, dir.path(), TraceEncoding::Varint);
}

} // namespace

TEST(ArtifactDigest, RunnerTablesMatchCommittedDigests)
{
    test::ScratchDir traces;
    exportAll(traces);

    CollectFlags flags;
    flags.loopStats = true;
    flags.hitRatios = true;
    flags.ideal = true;
    for (const std::string source : {"live", "trace-dir"}) {
        for (unsigned width : kWidths) {
            const std::string context =
                source + " jobs=" + std::to_string(width);
            RunOptions opts;
            opts.scale.factor = kScale;
            if (source == "trace-dir")
                opts.traceDir = traces.path();
            // The wide pass also runs the runner's own cross-checks.
            opts.checkReplay = width > 1;
            std::vector<WorkloadArtifacts> arts =
                runWorkloads(workloadNames(), opts, flags, width);
            expectDigest("table1", table1Text(arts), context);
            expectDigest("fig4", fig4Text(arts), context);
            expectDigest("ideal_rows", idealText(arts), context);
        }
    }
}

TEST(ArtifactDigest, SweepJsonMatchesCommittedDigests)
{
    test::ScratchDir traces;
    exportAll(traces);

    for (const std::string source : {"live", "trace-dir"}) {
        const std::string dir = source == "live" ? "" : traces.path();
        for (unsigned width : kWidths) {
            const std::string context =
                source + " jobs=" + std::to_string(width);
            expectDigest("sweep_cells",
                         sweepText(runSpecSweep(gridFor(kCellsGrid, dir),
                                                width)),
                         context);
            expectDigest("sweep_rows",
                         sweepText(runSpecSweep(gridFor(kRowsGrid, dir),
                                                width)),
                         context);
        }
    }
}

TEST(ArtifactDigest, PredictorMetersMatchCommittedDigests)
{
    test::ScratchDir traces;
    std::vector<std::string> names = workloadNames();
    for (const std::string &n : syntheticWorkloadNames())
        names.push_back(n);
    RunOptions export_opts;
    export_opts.scale.factor = kScale;
    for (const std::string &name : names)
        exportWorkloadTrace(name, export_opts, traces.path(),
                            TraceEncoding::Varint);

    CollectFlags flags;
    for (const std::string &spec : splitList(kPredictorBattery))
        flags.predictors.push_back(parsePredictorSpec(spec));
    for (const std::string source : {"live", "trace-dir"}) {
        for (unsigned width : kWidths) {
            RunOptions opts;
            opts.scale.factor = kScale;
            if (source == "trace-dir")
                opts.traceDir = traces.path();
            // The wide pass also re-derives every meter by replay.
            opts.checkReplay = width > 1;
            expectDigest("predictors",
                         predictorText(
                             runWorkloads(names, opts, flags, width)),
                         source + " jobs=" + std::to_string(width));
        }
    }
}

TEST(ArtifactDigest, DataSpecArtifactsMatchCommittedDigests)
{
    // Both artifacts read operand values, so only live passes exist.
    CollectFlags flags;
    flags.dataSpec = true;
    for (unsigned width : kWidths) {
        const std::string context = "live jobs=" + std::to_string(width);
        RunOptions opts;
        opts.scale.factor = kScale;
        opts.checkReplay = width > 1;
        expectDigest("dataspec_report",
                     dataSpecText(
                         runWorkloads(workloadNames(), opts, flags, width)),
                     context);
        expectDigest("sweep_dataspec",
                     sweepText(runSpecSweep(gridFor(kDataGrid, ""), width)),
                     context);
    }
}

TEST(ArtifactDigest, SweepdResponsesMatchCommittedDigests)
{
    test::ScratchDir scratch;
    for (unsigned width : kWidths) {
        SweepServerConfig cfg;
        cfg.socketPath = scratch.file("sweepd.sock");
        cfg.service.jobs = width;
        SweepServer server(cfg);
        ASSERT_EQ(server.start(), "");

        std::string err;
        int fd = connectUnixSocket(cfg.socketPath, &err);
        ASSERT_GE(fd, 0) << err;
        // Cold, then warm: both responses must hit the digest.
        for (const char *temperature : {"cold", "warm"}) {
            for (const auto &[key, spec] :
                 {std::pair<const char *, const char *>{"sweepd_cells",
                                                        kCellsGrid},
                  {"sweepd_rows", kRowsGrid}}) {
                SweepRequest req;
                req.grid = spec;
                req.benchmarks = "compress,li,swim,gcc";
                req.scale = "0.05";
                ASSERT_EQ(writeFrame(fd, MsgType::SweepReq,
                                     encodeSweepRequest(req)),
                          "");
                MsgType type{};
                std::string response;
                bool eof = false;
                ASSERT_EQ(readFrame(fd, &type, &response,
                                    kMaxResponseBytes, &eof),
                          "");
                ASSERT_EQ(type, MsgType::JsonResp) << response;
                expectDigest(key,
                             response.substr(0, response.find("\"wall\"")),
                             std::string(temperature) + " jobs=" +
                                 std::to_string(width));
            }
        }
        ::close(fd);
        server.stop();
    }
}
