/**
 * @file
 * Execution-pattern-based composition (§4.2, Eq. 7) and the
 * baseline sum/min compositions (§2.2), plus black-box execution-
 * pattern detection.
 */

#ifndef TOMUR_TOMUR_COMPOSITION_HH
#define TOMUR_TOMUR_COMPOSITION_HH

#include <span>
#include <vector>

#include "framework/nf.hh"

namespace tomur::core {

/** Composition strategies for combining per-resource drops. */
enum class CompositionKind
{
    Sum,              ///< strawman: add up the drops [32, 59]
    Min,              ///< strawman: take the largest drop [41, 52]
    ExecutionPattern, ///< Tomur: Eq. 7
};

/**
 * Compose per-resource throughput drops into an end-to-end
 * prediction (Eq. 7 for ExecutionPattern).
 *
 * @param kind strategy to apply
 * @param pattern the NF's execution pattern (ExecutionPattern only)
 * @param t_solo solo throughput under the target traffic
 * @param drops per-resource throughput drops dT_k = T_solo - T_k
 * @return predicted end-to-end throughput, clamped to [0, t_solo]
 */
double compose(CompositionKind kind,
               framework::ExecutionPattern pattern, double t_solo,
               std::span<const double> drops);

/**
 * Detect the execution pattern without source access (§4.2): given
 * joint-contention observations with their per-resource drops, pick
 * the pattern whose Eq. 7 branch fits the measured throughput best.
 */
struct PatternObservation
{
    double soloThroughput = 0.0;
    double measuredThroughput = 0.0;
    std::vector<double> drops;
};

framework::ExecutionPattern
detectPattern(const std::vector<PatternObservation> &observations);

} // namespace tomur::core

#endif // TOMUR_TOMUR_COMPOSITION_HH
