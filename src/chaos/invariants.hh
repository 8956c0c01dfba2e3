/**
 * @file
 * The closed invariant set every chaos run is checked against, and
 * the RunOutcome record the runner fills for the checkers.
 *
 * Invariants are end-to-end properties of the whole control loop,
 * not per-module assertions:
 *
 *  - no_hang: the run finished inside its cooperative granule
 *    budget (an escaped DeadlineExceeded is a hang, caught by the
 *    plan-level ScopedDeadline, never by wall clock).
 *  - no_corrupt_state: the surviving checkpoint generation still
 *    loads (or cleanly reports NotFound), and the model's
 *    save/load/save round trip is byte-identical — injected crashes
 *    may lose progress, never integrity.
 *  - bounded_recovery: once the last disturbance has lifted and a
 *    clean steady tail of 40 samples has elapsed, the monitor's
 *    recovery window must be closed.
 *  - graceful_degradation: the run completed (crash-resume loops
 *    converge, errors surface as Status not stream corruption);
 *    the breaker opens when consecutive recalibrations fail; the
 *    retry budget exhausts at most once. For serve plans: zero 500s
 *    under injected faults, Retry-After on every 429/503 refusal, a
 *    failed hot reload keeps the prior model version serving, and
 *    drain converges.
 *  - determinism: re-running the plan reproduces the identical
 *    event-stream fingerprint (the campaign samples this; the
 *    cross-width variant is pinned by the chaos golden fixture).
 */

#ifndef TOMUR_CHAOS_INVARIANTS_HH
#define TOMUR_CHAOS_INVARIANTS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/plan.hh"
#include "tomur/supervisor.hh"

namespace tomur::chaos {

/** The invariant set (order is the wire/report order). */
enum class InvariantKind
{
    NoHang,
    NoCorruptState,
    BoundedRecovery,
    GracefulDegradation,
    Determinism,
};

constexpr int numInvariants = 5;

/** Wire name ("no_hang", ...). */
const char *invariantName(InvariantKind kind);

/** One checker verdict. */
struct InvariantVerdict
{
    InvariantKind kind = InvariantKind::NoHang;
    bool passed = true;
    std::string detail; ///< failure explanation (empty on pass)
};

/** Everything the runner observed about one plan execution. */
struct RunOutcome
{
    bool completed = false; ///< the driver loop ran to the end
    std::size_t samples = 0;
    std::size_t crashes = 0; ///< SimulatedCrash caught
    std::size_t resumes = 0; ///< checkpoint resumes performed
    bool hung = false;       ///< DeadlineExceeded escaped the run
    std::string hangWhere;
    std::string error; ///< non-ok Status / unexpected exception

    /** Fault-injector accounting, accumulated across every
     *  reconfigure (replayed samples after a crash count again —
     *  deterministically, so the stream fingerprint still pins). */
    std::size_t faultsInjected = 0;
    std::size_t faultMeasurements = 0;

    core::MonitorSummary monitor;
    core::SupervisorSummary supervisor;
    std::vector<core::SupervisorEvent> supervisorEvents;
    /** Last sample (1-based) a disturbance was still visible:
     *  regime-change monitor events and the end of the last planned
     *  fault span, whichever is later. */
    std::size_t lastDisturbanceSample = 0;

    bool checkpointHealthy = true;
    std::string checkpointDetail;
    bool modelRoundTripOk = true;
    std::string modelDetail;

    /** FNV-1a 64 over the canonical event streams (autopilot:
     *  monitor+supervisor JSONL; serve: the response/status
     *  transcript). The determinism invariant compares this. */
    std::uint64_t streamHash = 0;

    // Serve-target observations.
    bool serveTarget = false;
    std::size_t serveResponses = 0;
    std::size_t serveStatus[6] = {}; ///< [0] none, [1..5] 1xx..5xx
    std::size_t serveInternalErrors = 0;
    std::size_t transportFaultsInjected = 0;
    bool retryAfterOnRefusals = true;
    std::string refusalDetail;
    bool reloadKeptServing = true;
    std::string reloadDetail;
    bool drainConverged = true;
};

/**
 * Evaluate every invariant except Determinism (which needs a second
 * run; the campaign appends it). Returns verdicts in enum order.
 * The graceful-degradation checker re-derives the expected breaker
 * trips from chaosSupervisorOptions(), the options the runner uses.
 */
std::vector<InvariantVerdict>
checkInvariants(const FaultPlan &plan, const RunOutcome &outcome);

} // namespace tomur::chaos

#endif // TOMUR_CHAOS_INVARIANTS_HH
