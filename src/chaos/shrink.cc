#include "chaos/shrink.hh"

#include "common/telemetry.hh"

namespace tomur::chaos {

namespace {

/** Probe-run budget: the shrinker stops refining (keeping its
 *  best-so-far plan) once this many candidate runs executed. */
constexpr std::size_t kMaxRuns = 64;

Counter &
shrinkIterCounter()
{
    static Counter &c =
        metrics().counter("tomur_chaos_shrink_iterations_total");
    return c;
}

} // namespace

ShrinkResult
shrinkPlan(ChaosWorld &world, const FaultPlan &failing,
           InvariantKind kind, const RunnerOptions &run_opts)
{
    ShrinkResult result;
    result.plan = failing;
    result.kind = kind;

    // Probe: does this candidate still violate `kind`?
    auto probe = [&](const FaultPlan &candidate,
                     std::string *detail) -> bool {
        ++result.iterations;
        shrinkIterCounter().inc();
        RunOutcome outcome = runPlan(world, candidate, run_opts);
        auto verdicts = checkInvariants(candidate, outcome);
        for (const auto &v : verdicts) {
            if (v.kind == kind && !v.passed) {
                if (detail)
                    *detail = v.detail;
                return true;
            }
        }
        return false;
    };

    // ddmin over the action list: partition the surviving actions
    // into n chunks and try keeping each complement; a reproducing
    // complement becomes the new baseline at granularity
    // max(n-1, 2), otherwise granularity doubles until it exceeds
    // the list length.
    std::vector<FaultAction> actions = failing.actions;
    std::size_t n = 2;
    while (actions.size() >= 2 && n <= actions.size() &&
           result.iterations < kMaxRuns) {
        std::size_t chunk = (actions.size() + n - 1) / n;
        bool reduced = false;
        for (std::size_t i = 0;
             i < n && result.iterations < kMaxRuns;
             ++i) {
            std::size_t lo = i * chunk;
            if (lo >= actions.size())
                break;
            std::size_t hi =
                std::min(lo + chunk, actions.size());
            std::vector<FaultAction> complement;
            complement.reserve(actions.size() - (hi - lo));
            complement.insert(complement.end(), actions.begin(),
                              actions.begin() +
                                  static_cast<std::ptrdiff_t>(lo));
            complement.insert(complement.end(),
                              actions.begin() +
                                  static_cast<std::ptrdiff_t>(hi),
                              actions.end());
            FaultPlan candidate = failing;
            candidate.actions = complement;
            std::string detail;
            if (probe(candidate, &detail)) {
                actions = std::move(complement);
                result.plan = candidate;
                result.detail = detail;
                n = std::max<std::size_t>(n - 1, 2);
                reduced = true;
                break;
            }
        }
        if (!reduced) {
            if (n >= actions.size())
                break;
            n = std::min(n * 2, actions.size());
        }
    }

    // Final 1-minimality pass: drop single actions while any drop
    // still reproduces (ddmin at n == len covers this, but the
    // budget may have cut it short — this pass is cheap insurance
    // for the small lists we end with).
    bool improved = true;
    while (improved && result.plan.actions.size() > 1 &&
           result.iterations < kMaxRuns) {
        improved = false;
        for (std::size_t i = 0;
             i < result.plan.actions.size() &&
             result.iterations < kMaxRuns;
             ++i) {
            FaultPlan candidate = result.plan;
            candidate.actions.erase(
                candidate.actions.begin() +
                static_cast<std::ptrdiff_t>(i));
            std::string detail;
            if (probe(candidate, &detail)) {
                result.plan = candidate;
                result.detail = detail;
                improved = true;
                break;
            }
        }
    }

    return result;
}

} // namespace tomur::chaos
