#include "chaos/plan.hh"

#include <algorithm>
#include <sstream>

#include "common/directive.hh"
#include "common/rng.hh"
#include "common/strutil.hh"
#include "common/threadpool.hh"
#include "sim/faults.hh"

namespace tomur::chaos {

namespace {

const char *const kActionNames[numActionKinds] = {
    "fault_burst",     "bias",          "degraded_accel",
    "crash",           "ckpt_crash",    "recal_pressure",
    "transport_fault", "corrupt_reload", "queue_storm",
    "drain_drill",
};

/** Past any sample or step a plan can reach: keeps at + span far
 *  from overflow. */
constexpr std::size_t kMaxActionSample = 1000000000000;
/** Extra requests one queue-storm step may post. */
constexpr double kMaxStormRequests = 1024;

/** What parsePlan accepts in each kind's fields, indexed like
 *  kActionNames (ActionKind says what each field means). A field the
 *  kind does not use is pinned to FaultAction's default. */
struct ActionRanges
{
    double magnitudeLo, magnitudeHi;
    std::size_t spanHi; ///< span is at least 1
    int variantLo, variantHi;
};

const ActionRanges kActionRanges[numActionKinds] = {
    // fault_burst: variant -1 is every mode, else one sim::FaultMode
    {0, 1, kMaxActionSample, -1, sim::numFaultModes - 1},
    // bias
    {sim::kMinBiasFactor, sim::kMaxBiasFactor, kMaxActionSample, 0, 0},
    {0, 1, kMaxActionSample, 0, 0},                 // degraded_accel
    {0, 0, 1, 0, 0},                                // crash
    {0, 0, 1, 1, 4},                                // ckpt_crash
    {0, 0, kMaxActionSample, 0, 0},                 // recal_pressure
    {0, 1, kMaxActionSample, 0, 3},                 // transport_fault
    {0, 0, 1, 0, 2},                                // corrupt_reload
    {0, kMaxStormRequests, kMaxActionSample, 0, 0}, // queue_storm
    {0, 0, 1, 0, 0},                                // drain_drill
};

const char *const kTargetNames[] = {"autopilot", "serve"};

/** Base traffic profile every generated scenario starts from. */
traffic::TrafficProfile
basePlanProfile()
{
    return traffic::TrafficProfile::defaults();
}

} // namespace

const char *
actionKindName(ActionKind kind)
{
    return kActionNames[static_cast<int>(kind)];
}

const char *
planTargetName(PlanTarget target)
{
    return kTargetNames[static_cast<int>(target)];
}

std::size_t
planSamples(const FaultPlan &plan)
{
    if (plan.target == PlanTarget::Serve)
        return kServePlanSteps;
    return traffic::scenarioSamples(plan.scenario);
}

std::string
emitPlan(const FaultPlan &plan)
{
    std::string out =
        strf("plan seed=%llu target=%s\n",
             static_cast<unsigned long long>(plan.seed),
             planTargetName(plan.target));
    if (!plan.scenario.empty())
        out += traffic::emitScenario(plan.scenario);
    for (const auto &a : plan.actions) {
        out += strf("action kind=%s at=%zu magnitude=%.17g "
                    "span=%zu variant=%d\n",
                    actionKindName(a.kind), a.at, a.magnitude,
                    a.span, a.variant);
    }
    return out;
}

Result<FaultPlan>
parsePlan(std::istream &in)
{
    FaultPlan plan;
    bool sawHeader = false;
    // Scenario lines go to the DSL parser, so repro files can embed
    // any shape the scenario language can express. Every other line
    // leaves an empty one, so the line numbers match the file's.
    std::string scenarioText;
    bool sawScenario = false;
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        DirectiveArgs args("plan", lineno, line);
        const std::string &d = args.directive();
        if (d != "plan" && d != "action") {
            scenarioText += line;
            scenarioText += '\n';
            sawScenario |= !d.empty();
            continue;
        }
        scenarioText += '\n';
        if (d == "plan") {
            if (sawHeader) {
                return Status::invalidArgument(
                    strf("plan line %d: duplicate plan header",
                         lineno));
            }
            sawHeader = true;
            plan.seed = args.number("seed", std::uint64_t{0}, 0,
                                    UINT64_MAX);
            plan.target = static_cast<PlanTarget>(
                args.name("target", 0, kTargetNames));
        } else {
            if (!sawHeader) {
                return Status::invalidArgument(
                    strf("plan line %d: action before plan header",
                         lineno));
            }
            FaultAction a;
            int kind = args.name("kind", -1, kActionNames);
            if (kind >= 0) {
                const ActionRanges &r = kActionRanges[kind];
                a.kind = static_cast<ActionKind>(kind);
                a.at = args.number("at", a.at, 0, kMaxActionSample);
                a.magnitude = args.number("magnitude", a.magnitude,
                                          r.magnitudeLo, r.magnitudeHi);
                a.span = args.number("span", a.span, 1, r.spanHi);
                a.variant = args.number("variant", a.variant,
                                        r.variantLo, r.variantHi);
            }
            plan.actions.push_back(a);
        }
        if (auto st = args.finish(); !st)
            return st;
    }
    if (!sawHeader)
        return Status::invalidArgument("missing plan header line");
    if (sawScenario) {
        std::istringstream sin(scenarioText);
        auto steps = traffic::parseScenario(sin);
        if (!steps)
            return steps.status().withContext("plan scenario");
        plan.scenario = std::move(steps.value());
    }
    if (plan.target == PlanTarget::Autopilot &&
        plan.scenario.empty()) {
        return Status::invalidArgument(
            "autopilot plan has no traffic scenario");
    }
    if (!std::is_sorted(plan.actions.begin(), plan.actions.end(),
                        [](const FaultAction &x,
                           const FaultAction &y) {
                            return x.at < y.at;
                        })) {
        return Status::invalidArgument(
            "action list is not sorted by at=");
    }
    return plan;
}

// ---------------------------------------------------------------
// Generators
// ---------------------------------------------------------------

namespace {

/** A quantized scenario family; tail is always steady so recovery
 *  has room to be observed. */
std::vector<traffic::SynthStep>
scenarioFamily(Rng &rng)
{
    auto base = basePlanProfile();
    switch (rng.uniformInt(std::uint64_t{4})) {
    case 0:
    default:
        return traffic::steadySteps(base, 36);
    case 1: {
        traffic::FlashCrowdOptions f;
        f.base = base;
        f.peak = rng.chance(0.5) ? 3.0 : 5.0;
        f.ramp = 2;
        f.hold = 4;
        f.decay = 2;
        auto steps = traffic::steadySteps(base, 10);
        auto flash = traffic::flashCrowdSteps(f);
        steps.insert(steps.end(), flash.begin(), flash.end());
        auto tail = traffic::steadySteps(base, 16);
        steps.insert(steps.end(), tail.begin(), tail.end());
        return steps;
    }
    case 2: {
        traffic::FlowChurnOptions c;
        c.base = base;
        c.fromFlows = 16000.0;
        c.toFlows = 64000.0;
        c.steps = 6;
        auto steps = traffic::steadySteps(base, 8);
        auto churn = traffic::flowChurnSteps(c);
        steps.insert(steps.end(), churn.begin(), churn.end());
        auto tail = traffic::steadySteps(base, 16);
        steps.insert(steps.end(), tail.begin(), tail.end());
        return steps;
    }
    case 3: {
        traffic::MtbrSpikeOptions m;
        m.base = base;
        m.mtbr = rng.chance(0.5) ? 900.0 : 1100.0;
        m.ramp = 2;
        m.hold = 4;
        auto steps = traffic::steadySteps(base, 8);
        auto spike = traffic::mtbrSpikeSteps(m);
        steps.insert(steps.end(), spike.begin(), spike.end());
        auto tail = traffic::steadySteps(base, 16);
        steps.insert(steps.end(), tail.begin(), tail.end());
        return steps;
    }
    }
}

FaultAction
randomAutopilotAction(Rng &rng, std::size_t samples)
{
    // Leave a clean tail for the bounded-recovery invariant.
    const std::size_t lastStart = samples > 18 ? samples - 18 : 1;
    FaultAction a;
    a.at = rng.uniformInt(std::uint64_t{lastStart});
    switch (rng.uniformInt(std::uint64_t{6})) {
    case 0:
    default:
        a.kind = ActionKind::FaultBurst;
        a.magnitude = 0.2 + 0.3 * static_cast<double>(
                                rng.uniformInt(std::uint64_t{3}));
        a.span = 3 + rng.uniformInt(std::uint64_t{5});
        a.variant = static_cast<int>(
                        rng.uniformInt(std::uint64_t{8})) -
                    1; // -1 = uniform, 0..6 = one mode
        if (a.variant > 6)
            a.variant = -1;
        break;
    case 1:
        a.kind = ActionKind::Bias;
        a.magnitude = rng.chance(0.5) ? 0.5 : 0.7;
        a.span = 4 + rng.uniformInt(std::uint64_t{5});
        break;
    case 2:
        a.kind = ActionKind::DegradedAccel;
        a.magnitude = 0.5;
        a.span = 4 + rng.uniformInt(std::uint64_t{5});
        break;
    case 3:
        a.kind = ActionKind::Crash;
        a.magnitude = 0.0;
        a.span = 1;
        break;
    case 4:
        a.kind = ActionKind::CheckpointCrash;
        a.span = 1;
        a.variant = 1 + static_cast<int>(
                            rng.uniformInt(std::uint64_t{4}));
        break;
    case 5:
        a.kind = ActionKind::RecalPressure;
        a.span = 4 + rng.uniformInt(std::uint64_t{5});
        break;
    }
    return a;
}

FaultAction
randomServeAction(Rng &rng)
{
    const std::size_t lastStart = kServePlanSteps - 20;
    FaultAction a;
    a.at = 1 + rng.uniformInt(std::uint64_t{lastStart});
    switch (rng.uniformInt(std::uint64_t{4})) {
    case 0:
    default:
        a.kind = ActionKind::TransportFault;
        a.magnitude = rng.chance(0.5) ? 0.1 : 0.3;
        a.span = 4 + rng.uniformInt(std::uint64_t{8});
        a.variant =
            static_cast<int>(rng.uniformInt(std::uint64_t{4}));
        break;
    case 1:
        a.kind = ActionKind::CorruptReload;
        a.span = 1;
        a.variant =
            static_cast<int>(rng.uniformInt(std::uint64_t{3}));
        break;
    case 2:
        a.kind = ActionKind::QueueStorm;
        a.magnitude = rng.chance(0.5) ? 6.0 : 10.0;
        a.span = 2 + rng.uniformInt(std::uint64_t{3});
        break;
    case 3:
        a.kind = ActionKind::DrainDrill;
        a.at = kServePlanSteps - 10; // always near the end
        a.span = 1;
        break;
    }
    return a;
}

} // namespace

FaultPlan
randomPlan(std::uint64_t campaign_seed, std::size_t index,
           PlanTarget target)
{
    Rng rng(deriveSeed(campaign_seed, 0x9e3779b9u + index));
    FaultPlan plan;
    plan.seed = deriveSeed(campaign_seed, index);
    plan.target = target;
    std::size_t n = 1 + rng.uniformInt(std::uint64_t{3});
    if (target == PlanTarget::Autopilot) {
        plan.scenario = scenarioFamily(rng);
        std::size_t samples = traffic::scenarioSamples(plan.scenario);
        for (std::size_t i = 0; i < n; ++i)
            plan.actions.push_back(
                randomAutopilotAction(rng, samples));
    } else {
        bool sawDrain = false;
        for (std::size_t i = 0; i < n; ++i) {
            auto a = randomServeAction(rng);
            if (a.kind == ActionKind::DrainDrill) {
                if (sawDrain)
                    continue; // one drain per plan is plenty
                sawDrain = true;
            }
            plan.actions.push_back(a);
        }
    }
    std::stable_sort(plan.actions.begin(), plan.actions.end(),
                     [](const FaultAction &x, const FaultAction &y) {
                         return x.at < y.at;
                     });
    return plan;
}

std::vector<FaultPlan>
modePairPlans(std::uint64_t campaign_seed)
{
    std::vector<FaultPlan> plans;
    auto base = basePlanProfile();
    for (int i = 0; i < 7; ++i) {
        for (int j = i + 1; j < 7; ++j) {
            FaultPlan p;
            p.seed = deriveSeed(campaign_seed,
                                0x70000000u +
                                    static_cast<std::uint64_t>(
                                        i * 7 + j));
            p.target = PlanTarget::Autopilot;
            p.scenario = traffic::steadySteps(base, 36);
            FaultAction a;
            a.kind = ActionKind::FaultBurst;
            a.at = 4;
            a.magnitude = 0.5;
            a.span = 8;
            a.variant = i;
            FaultAction b = a;
            b.at = 8; // overlaps a: the pair composes, not chains
            b.variant = j;
            p.actions = {a, b};
            plans.push_back(std::move(p));
        }
    }
    return plans;
}

} // namespace tomur::chaos
