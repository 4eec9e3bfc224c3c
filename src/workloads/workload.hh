/**
 * @file
 * The synthetic SPEC95-shaped workload suite. Each of the paper's 18
 * benchmarks is modelled by a generated mini-RISC program whose loop
 * structure (static loop count, trip-count distribution and regularity,
 * iteration size, nesting depth, recursion, path variability) is
 * calibrated to Table 1 and the per-program behaviour in Table 2 and
 * Figures 5-8. See docs/DESIGN.md §2 for the substitution rationale.
 */

#ifndef LOOPSPEC_WORKLOADS_WORKLOAD_HH
#define LOOPSPEC_WORKLOADS_WORKLOAD_HH

#include <cstdint>
#include <string>
#include <vector>

#include "program/program.hh"

namespace loopspec
{

/**
 * Scale control: multiplies the outer "time-step" trip counts so the
 * dynamic instruction count can be dialled from smoke-test to full-run
 * sizes without changing the loop *shape* statistics.
 */
struct WorkloadScale
{
    double factor = 1.0;

    /** Scale an outer repetition count: at least 1, at most INT64_MAX
     *  (the count becomes a signed immediate; a product past the range
     *  saturates instead of making the conversion undefined). */
    uint64_t
    reps(uint64_t base) const
    {
        double v = static_cast<double>(base) * factor;
        if (v < 1.0)
            return 1;
        return v < 0x1p63 ? static_cast<uint64_t>(v) : INT64_MAX;
    }
};

/** One registered workload. */
struct WorkloadInfo
{
    std::string name;
    Program (*build)(const WorkloadScale &scale);
    const char *description;
    bool floatingPoint; //!< SPECfp-shaped (regular) vs SPECint-shaped
};

/** All 18 workloads, in the paper's Table 1 order. */
const std::vector<WorkloadInfo> &workloadRegistry();

/**
 * Generated (synth.*) workload families from the fuzz harness's program
 * generator. Buildable by name everywhere (--benchmarks synth.nest,...)
 * but kept out of the Table-1 registry so the default bench suite stays
 * the paper's 18 programs.
 */
const std::vector<WorkloadInfo> &syntheticWorkloadRegistry();

/** Names of the synth.* families, registry order. */
std::vector<std::string> syntheticWorkloadNames();

/** Build one workload by name (Table-1 or synth.*); fatal() if unknown. */
Program buildWorkload(const std::string &name, const WorkloadScale &scale);

/** True when buildWorkload(name) would succeed — the non-fatal check
 *  the sweep service runs on remote requests before touching the
 *  builder. */
bool isKnownWorkload(const std::string &name);

/** Names of all workloads, Table 1 order. */
std::vector<std::string> workloadNames();

// Individual builders (exposed for tests and examples).
Program buildApplu(const WorkloadScale &scale);
Program buildApsi(const WorkloadScale &scale);
Program buildCompress(const WorkloadScale &scale);
Program buildFpppp(const WorkloadScale &scale);
Program buildGcc(const WorkloadScale &scale);
Program buildGo(const WorkloadScale &scale);
Program buildHydro2d(const WorkloadScale &scale);
Program buildIjpeg(const WorkloadScale &scale);
Program buildLi(const WorkloadScale &scale);
Program buildM88ksim(const WorkloadScale &scale);
Program buildMgrid(const WorkloadScale &scale);
Program buildPerl(const WorkloadScale &scale);
Program buildSu2cor(const WorkloadScale &scale);
Program buildSwim(const WorkloadScale &scale);
Program buildTomcatv(const WorkloadScale &scale);
Program buildTurb3d(const WorkloadScale &scale);
Program buildVortex(const WorkloadScale &scale);
Program buildWave5(const WorkloadScale &scale);

// Generated families (exposed for tests; see src/workloads/synthetic.cc).
Program buildSynthNest(const WorkloadScale &scale);
Program buildSynthIrregular(const WorkloadScale &scale);
Program buildSynthCalls(const WorkloadScale &scale);
Program buildSynthDegenerate(const WorkloadScale &scale);
Program buildSynthMemdep(const WorkloadScale &scale);
/**
 * 10^5-static-loop scale stressor for the out-of-core trace path
 * (massivePlan): buildable by name like every synth.* family but kept
 * out of syntheticWorkloadRegistry() too — its per-unit-scale dynamic
 * footprint is ~4e9 instructions, so only fuel-bounded (--max-instrs)
 * callers should ever reach it, never a registry sweep.
 */
Program buildSynthMassive(const WorkloadScale &scale);

} // namespace loopspec

#endif // LOOPSPEC_WORKLOADS_WORKLOAD_HH
