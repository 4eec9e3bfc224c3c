/**
 * @file
 * Shared pieces of the loopspec benchmark: run options, the metric
 * report every workload fills in, host clocks and order statistics.
 *
 * Everything timed here is host time of a deterministic simulator. The
 * simulated statistics only enter through the correctness digest
 * (digest.hh) and the model-accuracy figure.
 */

#ifndef LOOPSPEC_PERFBENCH_COMMON_HH
#define LOOPSPEC_PERFBENCH_COMMON_HH

#include <cstdint>
#include <string>
#include <vector>

#include "tracer.hh"

namespace perfbench
{

/** One invocation: `loopspec_perfbench --workload <w> --seed <n> ...`. */
struct BenchOptions
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;  //!< length of the measured window
    bool trace = false;     //!< per-layer run instead of end-to-end
    bool selfCheck = false; //!< corrupt one result; must fail
    std::string expectDigest; //!< committed digest of the workload
    std::string scratchDir;   //!< per-process directory (PID+workload)
    std::string spansOut;     //!< where the traced run writes its spans
    unsigned width = 4;       //!< batch pool width, min(4, nproc)
};

/** One reported number. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What a workload run hands back to main(). */
struct Report
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Metrics for the final JSON line, in declaration order. */
    std::vector<Metric> metrics;
    /** Human-readable lines printed above the JSON line (sample counts,
     *  metrics that the JSON line does not carry). */
    std::vector<std::string> notes;
    /** The traced run's spans, written out at exit. */
    std::vector<Span> spans;

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }

    /** Count one checked operation. */
    void
    check(bool ok)
    {
        ++attempted;
        if (!ok)
            ++failed;
    }
};

/** Steady-clock seconds. */
double wallNow();

/** User + system CPU seconds of the whole process (all threads). */
double processCpuSeconds();

/** Peak resident set size of the process, MiB. */
double peakRssMb();

/** Linear-interpolation quantile (q in [0, 1]); 0 for an empty set. */
double quantile(std::vector<double> values, double q);

inline double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/** Deterministic shuffle of @p items driven by @p seed. */
void seededShuffle(std::vector<std::string> *items, uint64_t seed);

/** printf-style std::string. */
std::string format(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Batch workloads: paper, dataspec, replay. */
Report runBatchWorkload(const BenchOptions &opts);

/** The sweepd workload. */
Report runSweepdWorkload(const BenchOptions &opts);

} // namespace perfbench

#endif // LOOPSPEC_PERFBENCH_COMMON_HH
