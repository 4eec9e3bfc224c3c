#include "digest.hh"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common.hh"

namespace perfbench
{

namespace
{

uint64_t
bits(double v)
{
    uint64_t out = 0;
    std::memcpy(&out, &v, sizeof(out));
    return out;
}

} // namespace

std::string
sweepDigest(const loopspec::SweepResult &result)
{
    using loopspec::SpecStats;
    const loopspec::SweepGrid &grid = result.grid;
    std::vector<std::string> lines;
    lines.reserve(result.rows.size() + result.cells.size());

    for (const loopspec::SweepRow &row : result.rows) {
        std::string line = format(
            "row|%s|cls=%zu|instrs=%llu", row.workload.c_str(),
            row.clsEntries,
            static_cast<unsigned long long>(row.totalInstrs));
        if (grid.ideal)
            line += format("|ideal=%016llx|prefix=%016llx",
                           static_cast<unsigned long long>(
                               bits(row.idealTpc)),
                           static_cast<unsigned long long>(
                               bits(row.idealTpcPrefix)));
        if (grid.dataSpec)
            line += format("|same=%016llx|all=%016llx",
                           static_cast<unsigned long long>(
                               bits(row.dataSpec.samePathPct())),
                           static_cast<unsigned long long>(
                               bits(row.dataSpec.allDataPct())));
        lines.push_back(std::move(line));
    }

    for (const loopspec::SweepCell &cell : result.cells) {
        const SpecStats &s = cell.stats;
        lines.push_back(format(
            "cell|%s|cls=%zu|%s|tus=%u|let=%zu|%llu,%llu,%llu,%llu,%llu,"
            "%llu,%llu,%llu,%llu,%llu,%llu",
            grid.workloads[cell.workloadIdx].c_str(),
            grid.clsSizes[cell.clsIdx],
            grid.policies[cell.policyIdx].name().c_str(),
            grid.tuCounts[cell.tuIdx], grid.letEntries[cell.letIdx],
            static_cast<unsigned long long>(s.totalInstrs),
            static_cast<unsigned long long>(s.cycles),
            static_cast<unsigned long long>(s.specEvents),
            static_cast<unsigned long long>(s.threadsSpeculated),
            static_cast<unsigned long long>(s.threadsVerified),
            static_cast<unsigned long long>(s.threadsSquashed),
            static_cast<unsigned long long>(s.squashedByNestRule),
            static_cast<unsigned long long>(s.dataMisses),
            static_cast<unsigned long long>(s.conflictSquashes),
            static_cast<unsigned long long>(s.instrToVerifSum),
            static_cast<unsigned long long>(s.spawnsThrottled)));
    }

    std::sort(lines.begin(), lines.end());
    uint64_t h = 1469598103934665603ull;
    for (const std::string &line : lines) {
        for (unsigned char c : line) {
            h ^= c;
            h *= 1099511628211ull;
        }
        h ^= '\n';
        h *= 1099511628211ull;
    }
    return format("%016llx", static_cast<unsigned long long>(h));
}

} // namespace perfbench
