#include "chaos/campaign.hh"

#include <sstream>

#include "chaos/shrink.hh"
#include "common/strutil.hh"
#include "common/telemetry.hh"

namespace tomur::chaos {

namespace {

/** Every Nth random plan drives the serve stack. */
constexpr std::size_t kServeEveryN = 3;

Counter &
violationCounter()
{
    static Counter &c =
        metrics().counter("tomur_chaos_violations_total");
    return c;
}

void
emitPlanLine(std::ostream &out, const PlanReport &r)
{
    out << "{\"chaos_plan\":" << r.index
        << ",\"seed\":" << r.plan.seed << ",\"target\":\""
        << planTargetName(r.plan.target)
        << "\",\"actions\":" << r.plan.actions.size()
        << ",\"samples\":" << r.outcome.samples
        << ",\"crashes\":" << r.outcome.crashes
        << ",\"resumes\":" << r.outcome.resumes
        << ",\"faults\":" << r.outcome.faultsInjected
        << ",\"stream\":\""
        << strf("%016llx", static_cast<unsigned long long>(
                               r.outcome.streamHash))
        << "\",\"verdicts\":{";
    for (std::size_t i = 0; i < r.verdicts.size(); ++i) {
        const auto &v = r.verdicts[i];
        if (i)
            out << ',';
        out << '"' << invariantName(v.kind) << "\":\""
            << (v.passed ? "pass" : "FAIL") << '"';
    }
    out << "},\"violations\":" << r.violations << "}\n";
}

} // namespace

CampaignResult
runCampaign(ChaosWorld &world, const CampaignOptions &opts)
{
    CampaignResult result;

    std::vector<FaultPlan> plans;
    if (opts.combinatorial) {
        for (auto &p : modePairPlans(opts.seed))
            plans.push_back(std::move(p));
    }
    for (std::size_t i = 0; i < opts.runs; ++i) {
        PlanTarget target = (i + 1) % kServeEveryN == 0
                                ? PlanTarget::Serve
                                : PlanTarget::Autopilot;
        plans.push_back(randomPlan(opts.seed, i, target));
    }

    std::ostringstream jsonl;
    for (std::size_t idx = 0; idx < plans.size(); ++idx) {
        PlanReport report;
        report.index = idx;
        report.plan = plans[idx];
        report.outcome =
            runPlan(world, report.plan, opts.runner);
        report.verdicts =
            checkInvariants(report.plan, report.outcome);

        // Determinism sampling: re-run and compare fingerprints.
        InvariantVerdict det;
        det.kind = InvariantKind::Determinism;
        det.passed = true;
        if (opts.determinismEveryN > 0 &&
            (idx + 1) % opts.determinismEveryN == 0) {
            ++result.determinismReruns;
            RunOutcome again =
                runPlan(world, report.plan, opts.runner);
            if (again.streamHash != report.outcome.streamHash) {
                det.passed = false;
                det.detail = strf(
                    "stream fingerprint diverged on re-run: "
                    "%016llx vs %016llx",
                    static_cast<unsigned long long>(
                        report.outcome.streamHash),
                    static_cast<unsigned long long>(
                        again.streamHash));
            }
        }
        report.verdicts.push_back(det);

        for (const auto &v : report.verdicts) {
            if (!v.passed) {
                ++report.violations;
                ++result.invariantFailures[static_cast<int>(
                    v.kind)];
            }
        }
        result.violations += report.violations;
        if (report.violations > 0) {
            ++result.violatingPlans;
            violationCounter().inc(
                static_cast<double>(report.violations));
        }
        result.crashes += report.outcome.crashes;
        result.resumes += report.outcome.resumes;
        result.faultsInjected += report.outcome.faultsInjected;

        // First violation: minimize and keep the repro.
        if (report.violations > 0 && !result.haveRepro) {
            result.haveRepro = true;
            result.firstViolationIndex = idx;
            for (const auto &v : report.verdicts) {
                if (!v.passed) {
                    result.firstViolationKind = v.kind;
                    result.firstViolationDetail = v.detail;
                    break;
                }
            }
            if (result.firstViolationKind !=
                InvariantKind::Determinism) {
                ShrinkResult shrunk = shrinkPlan(
                    world, report.plan,
                    result.firstViolationKind, opts.runner);
                result.shrunkPlan = shrunk.plan;
                result.shrinkIterations += shrunk.iterations;
                if (!shrunk.detail.empty())
                    result.firstViolationDetail = shrunk.detail;
            } else {
                result.shrunkPlan = report.plan;
            }
            result.reproText = emitPlan(result.shrunkPlan);
        }

        emitPlanLine(jsonl, report);
        result.reports.push_back(std::move(report));
    }
    result.plans = plans.size();

    jsonl << "{\"chaos_summary\":{\"plans\":" << result.plans
          << ",\"violations\":" << result.violations
          << ",\"violating_plans\":" << result.violatingPlans
          << ",\"crashes\":" << result.crashes
          << ",\"resumes\":" << result.resumes
          << ",\"faults_injected\":" << result.faultsInjected
          << ",\"determinism_reruns\":" << result.determinismReruns
          << ",\"shrink_iterations\":" << result.shrinkIterations
          << ",\"failures\":{";
    for (int i = 0; i < numInvariants; ++i) {
        if (i)
            jsonl << ',';
        jsonl << '"'
              << invariantName(static_cast<InvariantKind>(i))
              << "\":" << result.invariantFailures[i];
    }
    jsonl << "}}}\n";
    result.jsonl = jsonl.str();
    return result;
}

} // namespace tomur::chaos
