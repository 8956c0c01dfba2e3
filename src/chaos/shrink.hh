/**
 * @file
 * Failure shrinking: reduce a violating FaultPlan to a minimal
 * action sequence that still violates the same invariant.
 *
 * The algorithm is delta debugging (ddmin) over the plan's action
 * list. Each candidate is the original plan with a subset of actions
 * removed; a candidate "still fails" when re-running it violates the
 * *same* InvariantKind as the original run — matching on the kind
 * (not the detail string) keeps the shrinker from chasing secondary
 * symptoms while still refusing to swap one bug for another.
 *
 * Determinism: candidates are derived purely from the failing plan
 * (seeds, scenario, and surviving actions are copied verbatim), and
 * every probe runs through the same seeded runner, so a shrink of
 * the same failing plan always lands on the same minimal plan.
 */

#ifndef TOMUR_CHAOS_SHRINK_HH
#define TOMUR_CHAOS_SHRINK_HH

#include "chaos/invariants.hh"
#include "chaos/plan.hh"
#include "chaos/runner.hh"

namespace tomur::chaos {

/** A finished shrink. */
struct ShrinkResult
{
    FaultPlan plan;             ///< minimal still-violating plan
    InvariantKind kind =        ///< the invariant it still violates
        InvariantKind::NoHang;
    std::string detail;         ///< its failure detail
    std::size_t iterations = 0; ///< candidate runs executed
};

/**
 * Minimize `failing` (which violated `kind` when run under `run_opts`).
 * Returns the smallest plan found that still violates `kind`; if no
 * strict subset reproduces it, the result is the original plan with
 * zero removals (iterations still counts the probes spent).
 */
ShrinkResult shrinkPlan(ChaosWorld &world, const FaultPlan &failing,
                        InvariantKind kind,
                        const RunnerOptions &run_opts);

} // namespace tomur::chaos

#endif // TOMUR_CHAOS_SHRINK_HH
