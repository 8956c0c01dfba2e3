/**
 * @file
 * Fault plans: the unit of work a chaos campaign sweeps.
 *
 * A FaultPlan composes injections across every fault knob the stack
 * exposes — sim::FaultConfig corruption modes and deterministic
 * bias, crash-after-batches kills, CheckpointCrashPoint protocol
 * crashes, recalibration deadline pressure, serve transport faults,
 * queue storms, corrupt-model hot reloads, drain drills — into one
 * seeded, replayable schedule over a synthesized traffic scenario.
 *
 * Plans are data, not code: they serialize to a line-oriented repro
 * format (emitPlan/parsePlan round-trip to the identical plan, the
 * same contract the traffic scenario DSL pins), so a failing plan
 * found by a campaign can be shrunk, written to a file, attached to
 * a bug report, and replayed with `tomur chaos --replay`.
 *
 * Everything here is deterministic: plan generation is a pure
 * function of (campaign seed, plan index), and no wall clock or
 * unseeded RNG is consulted anywhere.
 */

#ifndef TOMUR_CHAOS_PLAN_HH
#define TOMUR_CHAOS_PLAN_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/status.hh"
#include "traffic/synth.hh"

namespace tomur::chaos {

/** What one scheduled fault action does. */
enum class ActionKind
{
    /** Random measurement corruption at rate `magnitude` over
     *  [at, at+span) samples. variant -1: uniform across all random
     *  modes; 0..6: a single sim::FaultMode by index. */
    FaultBurst,
    /** Deterministic throughput bias: measurements scaled by
     *  `magnitude` over [at, at+span) (simulated model drift). */
    Bias,
    /** Degraded accelerator: throughput of accel-using workloads
     *  scaled by `magnitude` over [at, at+span). */
    DegradedAccel,
    /** SimulatedCrash in sample `at`'s measurement batch (fires
     *  once; the run resumes from its last checkpoint). */
    Crash,
    /** Checkpoint-protocol crash: arms CheckpointCrashPoint
     *  `variant` (1..4) at sample `at`; fires at the next
     *  checkpoint write, once. */
    CheckpointCrash,
    /** Recalibration deadline pressure over [at, at+span): every
     *  recalibration attempt runs under a 1-granule budget and
     *  deterministically misses its deadline. */
    RecalPressure,
    /** Serve: connections opened during [at, at+span) steps pass
     *  through a FaultInjectingTransport. variant 0 short reads,
     *  1 short writes, 2 EAGAIN storms, 3 disconnects; magnitude is
     *  the fault rate. */
    TransportFault,
    /** Serve: POST /reload pointing at a corrupt model file at step
     *  `at`. variant 0 truncated, 1 bit-flipped, 2 empty. */
    CorruptReload,
    /** Serve: `magnitude` extra pipelined requests per step over
     *  [at, at+span) (drives queue-full shedding). */
    QueueStorm,
    /** Serve: beginDrain() at step `at`; the run then verifies the
     *  drain converges and late arrivals get closed refusals. */
    DrainDrill,
};

constexpr int numActionKinds = 10;

/** Wire name ("fault_burst", ...). */
const char *actionKindName(ActionKind kind);

/** One scheduled fault action. `at` is a 0-based autopilot sample
 *  index (autopilot plans) or driver step index (serve plans). */
struct FaultAction
{
    ActionKind kind = ActionKind::FaultBurst;
    std::size_t at = 0;
    double magnitude = 0.0;
    std::size_t span = 1;
    int variant = 0;

    bool operator==(const FaultAction &o) const = default;
};

/** Which layer the plan drives. */
enum class PlanTarget
{
    Autopilot, ///< runAutopilot over a synthesized traffic scenario
    Serve,     ///< in-process server core over memory transports
};

const char *planTargetName(PlanTarget target);

/** One composed fault plan. */
struct FaultPlan
{
    std::uint64_t seed = 0; ///< per-plan noise/fault-stream seed
    PlanTarget target = PlanTarget::Autopilot;
    /** Traffic scenario an autopilot plan replays (serve plans
     *  ignore it; their length is fixed by the driver). */
    std::vector<traffic::SynthStep> scenario;
    /** Actions, sorted by `at` (parse enforces, generators emit
     *  sorted). */
    std::vector<FaultAction> actions;

    bool operator==(const FaultPlan &o) const = default;
};

/**
 * Serialize a plan to the repro format: a `plan` header line, the
 * scenario in the traffic DSL's canonical lowered form, then one
 * `action` line per action:
 *
 *   plan seed=7 target=autopilot
 *   step flows=16000 size=512 mtbr=600 repeats=12
 *   action kind=fault_burst at=4 magnitude=0.5 span=6 variant=-1
 *
 * parsePlan(emitPlan(p)) == p (the round-trip identity the repro
 * workflow depends on).
 */
std::string emitPlan(const FaultPlan &plan);

/** Parse emitPlan() output (or a hand-written repro file) through
 *  the common key=value reader (common/directive.hh). All-or-nothing:
 *  an unknown or repeated key, a number outside the grammar or its
 *  kind's range (a field the kind ignores must hold its default), or
 *  an unsorted action list rejects the whole input. */
Result<FaultPlan> parsePlan(std::istream &in);

/** Total autopilot samples of the plan's scenario. */
std::size_t planSamples(const FaultPlan &plan);

/** Driver steps a serve-target plan runs for. */
constexpr std::size_t kServePlanSteps = 60;

/**
 * The random tier: a seeded plan drawn from quantized parameter
 * grids (quantization keeps the solve-cache hit rate high across a
 * campaign). Pure function of (campaignSeed, index, target); every
 * generated plan leaves a clean steady tail so the bounded-recovery
 * invariant has room to observe convergence.
 */
FaultPlan randomPlan(std::uint64_t campaign_seed, std::size_t index,
                     PlanTarget target);

/** The combinatorial tier: one plan per unordered pair of the 7
 *  sim::FaultModes (21 plans), each composing two single-mode
 *  bursts over a steady scenario. */
std::vector<FaultPlan> modePairPlans(std::uint64_t campaign_seed);

} // namespace tomur::chaos

#endif // TOMUR_CHAOS_PLAN_HH
