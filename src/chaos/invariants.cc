#include "chaos/invariants.hh"

#include "chaos/runner.hh"
#include "common/strutil.hh"

namespace tomur::chaos {

namespace {

/** Clean samples after the last disturbance within which the
 *  monitor's recovery window must close. */
constexpr std::size_t kRecoveryBoundSamples = 40;

const char *const kInvariantNames[numInvariants] = {
    "no_hang",
    "no_corrupt_state",
    "bounded_recovery",
    "graceful_degradation",
    "determinism",
};

InvariantVerdict
verdict(InvariantKind kind, bool passed, std::string detail = {})
{
    InvariantVerdict v;
    v.kind = kind;
    v.passed = passed;
    v.detail = passed ? std::string() : std::move(detail);
    return v;
}

InvariantVerdict
checkNoHang(const RunOutcome &o)
{
    if (o.hung) {
        return verdict(InvariantKind::NoHang, false,
                       "deadline exceeded at " + o.hangWhere);
    }
    return verdict(InvariantKind::NoHang, true);
}

InvariantVerdict
checkNoCorruptState(const RunOutcome &o)
{
    if (!o.checkpointHealthy) {
        return verdict(InvariantKind::NoCorruptState, false,
                       "checkpoint store: " + o.checkpointDetail);
    }
    if (!o.modelRoundTripOk) {
        return verdict(InvariantKind::NoCorruptState, false,
                       "model round trip: " + o.modelDetail);
    }
    return verdict(InvariantKind::NoCorruptState, true);
}

InvariantVerdict
checkBoundedRecovery(const RunOutcome &o)
{
    if (o.serveTarget || !o.completed)
        return verdict(InvariantKind::BoundedRecovery, true);
    if (!o.monitor.recoveryOpen)
        return verdict(InvariantKind::BoundedRecovery, true);
    // A window still open at the end is only a violation when a
    // clean tail long enough to recover in has actually elapsed.
    std::size_t quietSince =
        o.lastDisturbanceSample + kRecoveryBoundSamples;
    if (o.samples >= quietSince) {
        return verdict(
            InvariantKind::BoundedRecovery, false,
            strf("recovery window still open %zu samples after "
                 "the last disturbance (sample %zu of %zu)",
                 o.samples - o.lastDisturbanceSample,
                 o.lastDisturbanceSample, o.samples));
    }
    return verdict(InvariantKind::BoundedRecovery, true);
}

InvariantVerdict
checkGracefulDegradation(const RunOutcome &o)
{
    const auto kind = InvariantKind::GracefulDegradation;
    if (!o.completed) {
        return verdict(kind, false,
                       o.error.empty() ? "run did not complete"
                                       : "run failed: " + o.error);
    }
    if (o.serveTarget) {
        // 503/429 refusals with Retry-After are the *desired*
        // degradation mode; only 500s (or server-side internal
        // error counts) mean a fault leaked out as breakage.
        if (o.serveInternalErrors > 0) {
            return verdict(
                kind, false,
                strf("%zu internal errors / 500 responses under "
                     "injected faults",
                     o.serveInternalErrors));
        }
        if (!o.retryAfterOnRefusals) {
            return verdict(kind, false,
                           "refusal without Retry-After: " +
                               o.refusalDetail);
        }
        if (!o.reloadKeptServing) {
            return verdict(kind, false,
                           "failed reload did not keep serving: " +
                               o.reloadDetail);
        }
        if (!o.drainConverged) {
            return verdict(kind, false,
                           "drain did not converge");
        }
        return verdict(kind, true);
    }

    // The breaker must open when failures pile up: walk the event
    // stream and require a BreakerOpened immediately after every
    // run of `failureThreshold` consecutive failures.
    const std::size_t failureThreshold =
        chaosSupervisorOptions().failureThreshold;
    std::size_t consecutive = 0;
    for (std::size_t i = 0; i < o.supervisorEvents.size(); ++i) {
        const auto &ev = o.supervisorEvents[i];
        switch (ev.kind) {
        case core::SupervisorEventKind::RecalibrationFailed:
            ++consecutive;
            if (consecutive >= failureThreshold) {
                bool opened =
                    i + 1 < o.supervisorEvents.size() &&
                    o.supervisorEvents[i + 1].kind ==
                        core::SupervisorEventKind::BreakerOpened;
                if (!opened) {
                    return verdict(
                        kind, false,
                        strf("%zu consecutive recalibration "
                             "failures at sample %zu without the "
                             "breaker opening",
                             consecutive, ev.sample));
                }
                consecutive = 0;
            }
            break;
        case core::SupervisorEventKind::RecalibrationSucceeded:
        case core::SupervisorEventKind::BreakerClosed:
            consecutive = 0;
            break;
        default:
            break;
        }
    }
    if (o.supervisor
            .eventCounts[static_cast<int>(
                core::SupervisorEventKind::RetryBudgetExhausted)] >
        1) {
        return verdict(kind, false,
                       "RetryBudgetExhausted fired more than once");
    }
    return verdict(kind, true);
}

} // namespace

const char *
invariantName(InvariantKind kind)
{
    return kInvariantNames[static_cast<int>(kind)];
}

std::vector<InvariantVerdict>
checkInvariants(const FaultPlan &plan, const RunOutcome &outcome)
{
    (void)plan;
    std::vector<InvariantVerdict> out;
    out.push_back(checkNoHang(outcome));
    out.push_back(checkNoCorruptState(outcome));
    out.push_back(checkBoundedRecovery(outcome));
    out.push_back(checkGracefulDegradation(outcome));
    return out;
}

} // namespace tomur::chaos
