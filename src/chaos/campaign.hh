/**
 * @file
 * Campaign orchestration: sweep a seeded plan space, run every plan
 * through the runner, evaluate the invariant set, sample the
 * determinism invariant with re-runs, shrink the first violation,
 * and fold everything into a JSONL stream for reports and goldens.
 *
 * The plan space has two tiers:
 *  - combinatorial: one plan per unordered pair of sim::FaultModes
 *    (21 plans) — the cheap exhaustive floor over mode interactions;
 *  - random: `runs` seeded plans from the quantized generators,
 *    every third targeting the serve stack instead of the
 *    autopilot.
 *
 * Everything is serial and seeded; the JSONL output is byte-stable
 * across thread-pool widths (the chaos golden fixture pins this at
 * TOMUR_THREADS=1 and 8).
 */

#ifndef TOMUR_CHAOS_CAMPAIGN_HH
#define TOMUR_CHAOS_CAMPAIGN_HH

#include <string>
#include <vector>

#include "chaos/invariants.hh"
#include "chaos/plan.hh"
#include "chaos/runner.hh"

namespace tomur::chaos {

/** Campaign tuning. */
struct CampaignOptions
{
    std::uint64_t seed = 7;
    /** Random-tier plan count, every third a serve plan (the
     *  combinatorial tier's 21 plans are added on top unless
     *  disabled). */
    std::size_t runs = 50;
    bool combinatorial = true;
    /** Every Nth plan is re-run and its event-stream fingerprint
     *  compared (the determinism invariant); 0 = never. */
    std::size_t determinismEveryN = 8;
    RunnerOptions runner; ///< workDir is required
};

/** One plan's row in the campaign ledger. */
struct PlanReport
{
    std::size_t index = 0;
    FaultPlan plan;
    RunOutcome outcome;
    std::vector<InvariantVerdict> verdicts;
    std::size_t violations = 0;
};

/** A finished campaign. */
struct CampaignResult
{
    std::size_t plans = 0;
    std::size_t violations = 0; ///< failed verdicts, all plans
    std::size_t violatingPlans = 0;
    std::size_t crashes = 0;
    std::size_t resumes = 0;
    std::size_t faultsInjected = 0;
    std::size_t determinismReruns = 0;
    std::size_t shrinkIterations = 0;
    std::size_t invariantFailures[numInvariants] = {};

    /** First violation, shrunk (when shrinking is on). */
    bool haveRepro = false;
    std::size_t firstViolationIndex = 0;
    InvariantKind firstViolationKind = InvariantKind::NoHang;
    std::string firstViolationDetail;
    FaultPlan shrunkPlan;
    std::string reproText; ///< emitPlan(shrunkPlan)

    std::vector<PlanReport> reports;
    /** The canonical JSONL ledger: one line per plan plus a
     *  `chaos_summary` trailer. Byte-stable for a given seed. */
    std::string jsonl;
};

/** Run a full campaign. `opts.runner.workDir` must be set. */
CampaignResult runCampaign(ChaosWorld &world,
                           const CampaignOptions &opts);

} // namespace tomur::chaos

#endif // TOMUR_CHAOS_CAMPAIGN_HH
