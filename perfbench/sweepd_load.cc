/**
 * @file
 * The sweepd workload: an in-process SweepServer on a Unix socket in the
 * run's scratch directory (pool width 2), driven closed-loop by two
 * client connections — sweepd callers wait for each reply.
 *
 * Warm requests run the paper axes over a fixed few-workload set in a
 * seeded order; they are uniform in shape and served from the recording
 * cache. Every 8th request is cold: a fresh max-instrs (one of 16 seeded
 * variants in the top tenth of the shortest warm workload's length, so
 * cold requests cost about the same under every seed, taken in turn)
 * misses the cache, materializes and inserts.
 * The cache budget sits just above the warm working set plus two cold
 * footprints, so LRU evicts cold entries and a variant is cold again
 * when its turn comes back. Every response is byte-compared with a
 * direct runSpecSweep of the same request.
 */

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <thread>

#include <unistd.h>

#include "common.hh"
#include "digest.hh"
#include "pipeline.hh"
#include "service/protocol.hh"
#include "service/sweep_server.hh"
#include "speculation/sweep.hh"
#include "util/logging.hh"

using namespace loopspec;

namespace perfbench
{

namespace
{

const std::vector<std::string> kWarmSet = {"compress", "li", "m88ksim"};
const char *const kScale = "0.1";
constexpr unsigned kPoolWidth = 2;
constexpr unsigned kClients = 2;
constexpr unsigned kColdEvery = 8;
constexpr unsigned kColdVariants = 16;
constexpr int kSetupReps = 5;
/** Untimed requests before the measured window. */
constexpr unsigned kWarmupRequests = 16;

/** Drop the volatile wall-clock line so responses compare byte-wise. */
std::string
stripWall(const std::string &json)
{
    std::string out;
    std::istringstream is(json);
    std::string line;
    while (std::getline(is, line)) {
        if (line.find("swept_seconds") == std::string::npos)
            out += line + "\n";
    }
    return out;
}

/** The server-side run time a response reports, ms. */
double
responseRunMs(const std::string &json)
{
    const char *key = "\"swept_seconds\": ";
    const size_t at = json.find(key);
    return at == std::string::npos
               ? 0.0
               : 1e3 * std::strtod(json.c_str() + at + std::strlen(key),
                                   nullptr);
}

std::string
joined(const std::vector<std::string> &names)
{
    std::string out;
    for (const std::string &n : names)
        out += (out.empty() ? "" : ",") + n;
    return out;
}

/** One distinct request with the direct result it must reproduce. */
struct Request
{
    std::string payload;
    std::string expected; //!< direct sweep JSON minus the wall line
    bool cold = false;
};

/** A direct runSpecSweep of @p req, rendered as the server renders it. */
std::string
directResponse(const SweepRequest &req, SweepService &translator,
               unsigned width, SweepResult *result)
{
    SweepGrid grid;
    unsigned jobs_echo = 0;
    const std::string err = translator.requestToGrid(req, &grid, &jobs_echo);
    if (!err.empty())
        fatal("sweepd request: %s", err.c_str());
    *result = runSpecSweep(grid, width);
    std::ostringstream os;
    writeSweepJson(os, *result, jobs_echo);
    return stripWall(os.str());
}

SweepRequest
makeRequest(const std::vector<std::string> &order, uint64_t max_instrs)
{
    SweepRequest req;
    req.grid = "paper";
    req.benchmarks = joined(order);
    req.scale = kScale;
    req.jobs = std::to_string(kPoolWidth);
    if (max_instrs)
        req.maxInstrs = std::to_string(max_instrs);
    return req;
}

/** One answered request. */
struct Sample
{
    double latencyMs = 0.0;
    double runMs = 0.0;
    bool cold = false;
};

struct LoadResult
{
    std::vector<Sample> samples;
    double window = 0.0;
    double cpu = 0.0;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Span> spans;
};

/**
 * Closed loop: each client sends its next request as soon as the last
 * reply arrived, taking request indices from a shared @p cursor into
 * @p sequence, until @p seconds have passed. With @p trace each request
 * is a span.
 */
LoadResult
runLoad(const std::string &socket, const std::vector<Request> &requests,
        const std::vector<uint32_t> &sequence, std::atomic<uint64_t> &cursor,
        double seconds, bool trace, bool corrupt_first)
{
    LoadResult out;
    Tracer tracer;
    std::vector<LoadResult> per_client(kClients);
    std::atomic<bool> corrupt_pending{corrupt_first};
    const double c0 = processCpuSeconds();
    const double start = wallNow();
    const double deadline = start + seconds;
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            LoadResult &mine = per_client[c];
            std::string err;
            const int fd = connectUnixSocket(socket, &err);
            if (fd < 0) {
                ++mine.attempted;
                ++mine.failed;
                return;
            }
            while (wallNow() < deadline) {
                const uint64_t i = cursor.fetch_add(1);
                const Request &req = requests[sequence[i % sequence.size()]];
                ++mine.attempted;
                std::unique_ptr<ScopedSpan> span;
                if (trace)
                    span = std::make_unique<ScopedSpan>(
                        tracer, "service.request", Span::noParent,
                        "sweepd", req.cold ? "cold" : "warm");
                const double t0 = wallNow();
                MsgType type{};
                std::string response;
                bool eof = false;
                err = writeFrame(fd, MsgType::SweepReq, req.payload);
                if (err.empty())
                    err = readFrame(fd, &type, &response, kMaxResponseBytes,
                                    &eof);
                const double t1 = wallNow();
                span.reset();
                if (!err.empty() || eof) {
                    ++mine.failed; // the connection is gone
                    break;
                }
                if (corrupt_pending.exchange(false) && !response.empty())
                    response[response.size() / 2] ^= 1;
                if (type != MsgType::JsonResp ||
                    stripWall(response) != req.expected) {
                    ++mine.failed;
                    continue;
                }
                mine.samples.push_back(
                    {1e3 * (t1 - t0), responseRunMs(response), req.cold});
            }
            ::close(fd);
        });
    }
    for (std::thread &t : clients)
        t.join();
    out.window = wallNow() - start;
    out.cpu = processCpuSeconds() - c0;
    for (LoadResult &r : per_client) {
        out.samples.insert(out.samples.end(), r.samples.begin(),
                           r.samples.end());
        out.attempted += r.attempted;
        out.failed += r.failed;
    }
    out.spans = tracer.spans();
    return out;
}

/** Send one request on a fresh connection; true when it matches. */
bool
submitOnce(const std::string &socket, const Request &req)
{
    std::string err;
    const int fd = connectUnixSocket(socket, &err);
    if (fd < 0)
        return false;
    MsgType type{};
    std::string response;
    bool eof = false;
    err = writeFrame(fd, MsgType::SweepReq, req.payload);
    if (err.empty())
        err = readFrame(fd, &type, &response, kMaxResponseBytes, &eof);
    ::close(fd);
    return err.empty() && !eof && type == MsgType::JsonResp &&
           stripWall(response) == req.expected;
}

std::unique_ptr<SweepServer>
startServer(const std::string &socket, uint64_t budget)
{
    SweepServerConfig cfg;
    cfg.socketPath = socket;
    cfg.service.jobs = kPoolWidth;
    cfg.service.cacheBytes = budget;
    auto server = std::make_unique<SweepServer>(cfg);
    const std::string err = server->start();
    if (!err.empty())
        fatal("sweepd: %s", err.c_str());
    return server;
}

} // namespace

Report
runSweepdWorkload(const BenchOptions &opts)
{
    Report rep;
    std::mt19937_64 rng(opts.seed);
    const std::string socket = opts.scratchDir + "/sd.sock";

    // The distinct requests: the warm set in each rotation, then the
    // cold variants (seeded rotation, seeded distinct max-instrs just
    // below the shortest warm workload's length).
    SweepServiceConfig translator_cfg;
    translator_cfg.jobs = 1;
    SweepService translator(translator_cfg);
    std::vector<Request> requests;
    std::string warm_digest;
    uint64_t shortest = UINT64_MAX;
    for (size_t r = 0; r < kWarmSet.size(); ++r) {
        std::vector<std::string> order = kWarmSet;
        std::rotate(order.begin(), order.begin() + r, order.end());
        const SweepRequest req = makeRequest(order, 0);
        Request w;
        w.payload = encodeSweepRequest(req);
        SweepResult result;
        w.expected = directResponse(req, translator, opts.width, &result);
        requests.push_back(std::move(w));
        if (r == 0) {
            warm_digest = sweepDigest(result);
            for (const SweepRow &row : result.rows)
                shortest = std::min(shortest, row.totalInstrs);
        }
    }
    rep.check(warm_digest == opts.expectDigest);
    std::set<uint64_t> used;
    for (unsigned v = 0; v < kColdVariants; ++v) {
        uint64_t max_instrs = 0;
        do {
            max_instrs = shortest - 1 - rng() % (shortest / 10);
        } while (!used.insert(max_instrs).second);
        std::vector<std::string> order = kWarmSet;
        std::rotate(order.begin(), order.begin() + rng() % order.size(),
                    order.end());
        const SweepRequest req = makeRequest(order, max_instrs);
        Request c;
        c.payload = encodeSweepRequest(req);
        SweepResult result;
        c.expected = directResponse(req, translator, opts.width, &result);
        c.cold = true;
        requests.push_back(std::move(c));
    }

    // Seeded request sequence: warm rotations at random, every 8th a
    // cold variant, the variants in a seeded cyclic order.
    std::vector<uint32_t> sequence(1u << 16);
    const uint32_t cold_base = static_cast<uint32_t>(kWarmSet.size());
    const uint32_t cold_offset = static_cast<uint32_t>(rng() % kColdVariants);
    for (size_t i = 0; i < sequence.size(); ++i) {
        sequence[i] =
            i % kColdEvery == kColdEvery - 1
                ? cold_base + static_cast<uint32_t>(
                                  (i / kColdEvery + cold_offset) %
                                  kColdVariants)
                : static_cast<uint32_t>(rng() % kWarmSet.size());
    }

    // Cache budget: the warm fill plus two of the largest cold
    // footprints, measured on a probe server with room for everything.
    uint64_t budget = 0;
    {
        auto probe = startServer(socket, uint64_t{1} << 40);
        rep.check(submitOnce(socket, requests[0]));
        const uint64_t warm_bytes = probe->service().cacheStats().bytes;
        uint64_t cold_max = 0;
        uint64_t before = warm_bytes;
        for (unsigned v = 0; v < kColdVariants; ++v) {
            rep.check(submitOnce(socket, requests[cold_base + v]));
            const uint64_t now = probe->service().cacheStats().bytes;
            cold_max = std::max(cold_max, now - before);
            before = now;
        }
        budget = warm_bytes + 2 * cold_max + cold_max / 2;
    }

    // Set-up: daemon start plus the cache fill, repeated; the last
    // server stays up for the load.
    std::vector<double> setups;
    std::unique_ptr<SweepServer> server;
    for (int i = 0; i < kSetupReps; ++i) {
        server.reset();
        const double t0 = wallNow();
        server = startServer(socket, budget);
        rep.check(submitOnce(socket, requests[0]));
        setups.push_back(wallNow() - t0);
    }

    // Untimed warm-up: the head of the sequence, one request at a time.
    for (unsigned i = 0; i < kWarmupRequests; ++i)
        rep.check(submitOnce(socket, requests[sequence[i]]));
    std::atomic<uint64_t> cursor{kWarmupRequests};

    const double untraced_seconds = opts.trace ? opts.seconds / 2
                                               : opts.seconds;
    LoadResult load = runLoad(socket, requests, sequence, cursor,
                              untraced_seconds, false, opts.selfCheck);
    rep.attempted += load.attempted;
    rep.failed += load.failed;

    std::vector<double> latency;
    size_t cold = 0;
    for (const Sample &s : load.samples) {
        latency.push_back(s.latencyMs);
        cold += s.cold ? 1 : 0;
    }
    const double n = static_cast<double>(load.samples.size());
    const double rps = n > 0.0 ? n / load.window : 0.0;
    rep.notes.push_back(format(
        "closed loop: %u clients, pool width %u, warm set %s at scale %s, "
        "cold every %u (%u variants), cache budget %.1f MiB",
        kClients, kPoolWidth, joined(kWarmSet).c_str(), kScale, kColdEvery,
        kColdVariants, static_cast<double>(budget) / (1 << 20)));
    rep.notes.push_back(format(
        "%zu requests (%zu cold) in %.2f s; p50 over %zu samples, p99 over "
        "%zu (%zu beyond it); warm digest %s (expected %s)",
        load.samples.size(), cold, load.window, latency.size(),
        latency.size(), latency.size() / 100, warm_digest.c_str(),
        opts.expectDigest.c_str()));

    if (!opts.trace) {
        server->stop();
        rep.add("setup_s", median(setups), "s");
        // One sweepd "pass" is one 8-request cycle (7 warm + 1 cold).
        rep.add("wall_s", n > 0.0 ? load.window * kColdEvery / n : 0.0,
                "s");
        rep.add("cpu_s", n > 0.0 ? load.cpu * kColdEvery / n : 0.0, "s");
        rep.add("peak_rss_mb", peakRssMb(), "MiB");
        rep.add("req_per_s", rps, "1/s");
        rep.add("req_p50_ms", quantile(latency, 0.50), "ms");
        rep.add("req_p99_ms", quantile(latency, 0.99), "ms");
        return rep;
    }

    // Traced half: the same loop with a span per request; service
    // figures come from it, the overhead from its throughput.
    const CacheStats c0 = server->service().cacheStats();
    LoadResult traced = runLoad(socket, requests, sequence, cursor,
                                opts.seconds / 2, true, false);
    rep.attempted += traced.attempted;
    rep.failed += traced.failed;
    const CacheStats c1 = server->service().cacheStats();
    server->stop();

    // The warm grid composed call by call, for the layers underneath.
    SweepGrid warm_grid;
    unsigned jobs_echo = 0;
    translator.requestToGrid(makeRequest(kWarmSet, 0), &warm_grid,
                             &jobs_echo);
    const ComposedPass pass = composedSweep(warm_grid, kPoolWidth);
    rep.check(sweepDigest(pass.result) == opts.expectDigest);
    rep.metrics = layerMetrics(pass, kPoolWidth);

    std::vector<double> run_ms;
    std::vector<double> transport_ms;
    for (const Sample &s : traced.samples) {
        run_ms.push_back(s.runMs);
        transport_ms.push_back(s.latencyMs - s.runMs);
    }
    const double hits = static_cast<double>(c1.hits - c0.hits);
    const double misses = static_cast<double>(c1.misses - c0.misses);
    rep.add("service.run_ms_p50", quantile(run_ms, 0.50), "ms");
    rep.add("service.run_ms_p99", quantile(run_ms, 0.99), "ms");
    rep.add("service.transport_ms_p50", quantile(transport_ms, 0.50), "ms");
    rep.add("service.cache_hit_ratio",
            hits + misses > 0.0 ? hits / (hits + misses) : 0.0, "ratio");
    rep.add("service.cache_evictions",
            static_cast<double>(c1.evictions - c0.evictions), "count");
    rep.add("service.cache_mb", static_cast<double>(c1.bytes) / (1 << 20),
            "MiB");
    const double traced_rps =
        traced.samples.empty()
            ? 0.0
            : static_cast<double>(traced.samples.size()) / traced.window;
    rep.add("trace.overhead_pct",
            traced_rps > 0.0 ? 100.0 * (rps / traced_rps - 1.0) : 0.0, "%");
    rep.add("model.paper_tpc_err_pct", 0.0, "%");
    rep.spans = pass.spans;
    rep.spans.insert(rep.spans.end(), traced.spans.begin(),
                     traced.spans.end());
    return rep;
}

} // namespace perfbench
