/**
 * @file
 * Plan execution: drive one FaultPlan through the real stack and
 * fill a RunOutcome for the invariant checkers.
 *
 * Autopilot plans run the full supervised replay (runAutopilot):
 * the plan's actions are applied mid-run through the autopilot's
 * beforeSample hook as a pure function of the sample index, so a
 * crash-resume replays the identical fault schedule. Crashes
 * (SimulatedCrash from the fault testbed or the checkpoint store)
 * are caught here and the run resumed from its surviving
 * checkpoint, exactly as an operator restart would.
 *
 * Serve plans run the deterministic single-threaded server core
 * over memory transports with a scripted client population.
 *
 * The ChaosWorld (testbed + trained model) is built once and shared
 * across every plan of a campaign: per-plan state (noise and fault
 * RNG streams, model copy, monitor, supervisor) is reset from the
 * plan seed, and the solve cache is observationally invisible, so
 * sharing changes nothing about any plan's outcome — only the
 * campaign's wall-clock.
 */

#ifndef TOMUR_CHAOS_RUNNER_HH
#define TOMUR_CHAOS_RUNNER_HH

#include <memory>
#include <string>
#include <vector>

#include "chaos/invariants.hh"
#include "chaos/plan.hh"
#include "nfs/registry.hh"
#include "tomur/lab.hh"
#include "tomur/supervisor.hh"

namespace tomur::chaos {

/** The shared heavy fixture: the lab plus one pristine trained
 *  model. Building it trains once; every plan run borrows it and
 *  restores seeded per-plan state. */
struct ChaosWorld : core::Lab
{
    explicit ChaosWorld(const std::string &nf_name = "FlowStats");

    std::unique_ptr<framework::NetworkFunction> nf;
    core::TomurModel pristine;
    std::string pristineBytes; ///< save() body of the pristine model
    std::vector<core::ContentionLevel> levels;
    std::vector<framework::WorkloadProfile> competitors;
    std::string nfName;
};

/** Planted regressions the self-test (and CI smoke) arm to prove
 *  the campaign catches real failures. Empty = none. */
constexpr const char *kPlantRegistryNoCommit = "registry-no-commit";
constexpr const char *kPlantStickyBias = "sticky-bias";

/** Runner tuning. */
struct RunnerOptions
{
    /** Scratch directory (checkpoint store + model corpus files);
     *  runPlan manages its own subdirectories. Required. */
    std::string workDir;
    /** Planted regression ("" = none). */
    std::string plant;
};

/** The supervisor options every autopilot plan runs under (the
 *  invariant checkers re-derive the expected breaker trips from
 *  them). */
core::SupervisorOptions chaosSupervisorOptions();

/** Execute one plan. Never throws for in-plan faults (crashes,
 *  deadline trips, corrupt state all land in the outcome). */
RunOutcome runPlan(ChaosWorld &world, const FaultPlan &plan,
                   const RunnerOptions &opts);

} // namespace tomur::chaos

#endif // TOMUR_CHAOS_RUNNER_HH
