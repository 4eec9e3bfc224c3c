/**
 * @file
 * Correctness digest of a sweep result: FNV-1a over one line per row and
 * per cell, each keyed by (workload, CLS, policy, TUs, LET) and carrying
 * the integer SpecStats counters (rows carry their instruction count and
 * the exact bit patterns of the ideal-TPC values). The lines are sorted
 * before hashing, so the digest does not depend on the order of the
 * workload axis: one committed digest holds for every benchmark seed.
 */

#ifndef LOOPSPEC_PERFBENCH_DIGEST_HH
#define LOOPSPEC_PERFBENCH_DIGEST_HH

#include <string>

#include "speculation/sweep.hh"

namespace perfbench
{

/** 16 hex digits. */
std::string sweepDigest(const loopspec::SweepResult &result);

} // namespace perfbench

#endif // LOOPSPEC_PERFBENCH_DIGEST_HH
