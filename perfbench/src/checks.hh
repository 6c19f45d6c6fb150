/**
 * @file
 * The output check behind the benchmark's failure count.
 *
 * Every replay is checked against invariants that hold for any seed:
 * the seven attribution buckets sum exactly to the cycle total, the
 * per-core counters sum to it and their maximum is the makespan, all
 * schemes retire the same instructions, the unprotected and
 * lowerbound machines never evict a key, an open-loop replay records
 * one latency sample per request, and repetitions of one trace give
 * identical outputs. For the pinned seed the model outputs are also
 * compared with values recorded from the program.
 *
 * Histogram bucket layouts and the stats-tree shape are deliberately
 * not pinned, so a change to the latency estimator or to the tree's
 * layout does not need a benchmark edit.
 */

#ifndef PERFBENCH_CHECKS_HH
#define PERFBENCH_CHECKS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "point.hh"

namespace perfbench
{

/** The seed whose model outputs are pinned. */
inline constexpr std::uint64_t kPinnedSeed = 42;

/** Outcome of checking one point's six replays. */
struct CheckReport
{
    unsigned attempted = 0; ///< Replays checked.
    unsigned failed = 0;    ///< Replays with at least one mismatch.
    bool pinned = false;    ///< Whether pinned values were compared.
    std::vector<std::string> messages; ///< One line per mismatch.
};

/**
 * Check @p outputs, the replays of workload @p spec at @p seed.
 * @p reference, when non-null, holds the same point's outputs from an
 * earlier repetition; any difference counts as a failure.
 */
CheckReport
checkOutputs(const WorkloadSpec &spec, std::uint64_t seed,
             const std::array<SchemeOutput, kSchemes.size()> &outputs,
             const std::array<SchemeOutput, kSchemes.size()> *reference);

/**
 * Check the checker: outputs rebuilt from the pinned table must pass,
 * and each pinned value perturbed by one must fail exactly its own
 * replay. Prints one line per case; returns true when all behave.
 */
bool selfTest();

} // namespace perfbench

#endif // PERFBENCH_CHECKS_HH
