/**
 * @file
 * Chaos campaign engine tests: the plan repro format (round-trip
 * identity and the rejection corpus), the invariant checkers over
 * synthetic outcomes, a full seeded campaign of 500+ composed fault
 * plans that must finish with zero violations on a healthy tree, the
 * planted-regression self-test (a disabled commit-on-success reload
 * guard must be detected, shrunk to a minimal action sequence, and
 * reproduced deterministically from the emitted repro file), and the
 * chaos golden: the campaign JSONL ledger is byte-identical across
 * thread-pool widths.
 *
 * Golden fixtures live in tests/golden/ (path baked in via
 * TOMUR_GOLDEN_DIR); regenerate with tools/update_goldens.sh or by
 * running this binary with TOMUR_UPDATE_GOLDENS=1.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "chaos/campaign.hh"
#include "chaos/invariants.hh"
#include "chaos/plan.hh"
#include "chaos/runner.hh"
#include "chaos/shrink.hh"
#include "common/rng.hh"
#include "common/strutil.hh"
#include "common/telemetry.hh"
#include "common/threadpool.hh"

namespace tomur {
namespace {

namespace fs = std::filesystem;
using chaos::ActionKind;
using chaos::FaultAction;
using chaos::FaultPlan;
using chaos::InvariantKind;
using chaos::PlanTarget;
using chaos::RunOutcome;

/** RAII global pool width (restores the configured width on exit). */
struct PoolWidth
{
    explicit PoolWidth(int threads) { setGlobalThreadCount(threads); }
    ~PoolWidth() { setGlobalThreadCount(configuredThreadCount()); }
};

/** A fresh, empty directory under the test temp root. */
std::string
freshDir(const std::string &name)
{
    fs::path dir = fs::path(::testing::TempDir()) / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** The heavy fixture, built once per process: every plan run resets
 *  its own seeded state, so sharing is observationally invisible. */
chaos::ChaosWorld &
world()
{
    static chaos::ChaosWorld w("FlowStats");
    return w;
}

chaos::RunnerOptions
runnerOpts(const std::string &work_dir)
{
    chaos::RunnerOptions opts;
    opts.workDir = work_dir;
    return opts;
}

Result<FaultPlan>
parseText(const std::string &text)
{
    std::istringstream in(text);
    return chaos::parsePlan(in);
}

// ---------------------------------------------------------------
// Plan format: round trip and rejection corpus
// ---------------------------------------------------------------

TEST(ChaosPlan, GeneratedPlansRoundTripThroughReproFormat)
{
    // Every plan a campaign can draw lies inside parsePlan's ranges.
    for (std::size_t i = 0; i < 500; ++i) {
        for (auto target : {PlanTarget::Autopilot, PlanTarget::Serve}) {
            FaultPlan plan = chaos::randomPlan(7, i, target);
            auto back = parseText(chaos::emitPlan(plan));
            ASSERT_TRUE(back) << back.status().toString();
            EXPECT_EQ(plan, back.value()) << "index " << i;
        }
    }
    for (const auto &plan : chaos::modePairPlans(7)) {
        auto back = parseText(chaos::emitPlan(plan));
        ASSERT_TRUE(back) << back.status().toString();
        EXPECT_EQ(plan, back.value());
    }
}

TEST(ChaosPlan, LargeSeedsSurviveTheRoundTripExactly)
{
    // 2^64 - 1 and a seed that rounds when forced through a double.
    for (std::uint64_t seed :
         {std::uint64_t{18446744073709551615ull},
          std::uint64_t{15650974698129236480ull}}) {
        FaultPlan plan = chaos::randomPlan(3, 0, PlanTarget::Serve);
        plan.seed = seed;
        auto back = parseText(chaos::emitPlan(plan));
        ASSERT_TRUE(back) << back.status().toString();
        EXPECT_EQ(back.value().seed, seed);
    }
}

TEST(ChaosPlan, CommentsAndBlankLinesAreIgnored)
{
    auto plan = parseText("# a repro file\n"
                          "plan seed=42 target=serve\n"
                          "\n"
                          "action kind=queue_storm at=3 magnitude=6 "
                          "span=4 variant=0  # storm\n");
    ASSERT_TRUE(plan) << plan.status().toString();
    EXPECT_EQ(plan.value().seed, 42u);
    EXPECT_EQ(plan.value().actions.size(), 1u);
    EXPECT_EQ(plan.value().actions[0].kind, ActionKind::QueueStorm);
}

TEST(ChaosPlan, RejectionCorpus)
{
    const char *bad[] = {
        // action before the header
        "action kind=crash at=3 magnitude=0 span=1 variant=0\n",
        // duplicate header
        "plan seed=1 target=serve\nplan seed=2 target=serve\n",
        // unknown target
        "plan seed=1 target=warp\n",
        // unknown plan key
        "plan seed=1 target=serve frobnicate=1\n",
        // non-numeric seed
        "plan seed=banana target=serve\n",
        // seed overflows u64
        "plan seed=99999999999999999999999 target=serve\n",
        // unknown action kind
        "plan seed=1 target=serve\n"
        "action kind=meteor at=1 magnitude=0 span=1 variant=0\n",
        // unknown action key
        "plan seed=1 target=serve\n"
        "action kind=crash at=1 magnitude=0 span=1 variant=0 "
        "color=red\n",
        // zero span
        "plan seed=1 target=serve\n"
        "action kind=queue_storm at=1 magnitude=4 span=0 "
        "variant=0\n",
        // unsorted actions
        "plan seed=1 target=serve\n"
        "action kind=queue_storm at=9 magnitude=4 span=2 variant=0\n"
        "action kind=drain_drill at=2 magnitude=0 span=1 "
        "variant=0\n",
        // autopilot plan without a scenario
        "plan seed=1 target=autopilot\n"
        "action kind=crash at=3 magnitude=0 span=1 variant=0\n",
        // a storm of 10^12 requests in one step
        "plan seed=1 target=serve\n"
        "action kind=queue_storm at=1 magnitude=1e12 span=1 "
        "variant=0\n",
        // a negative storm count
        "plan seed=1 target=serve\n"
        "action kind=queue_storm at=1 magnitude=-4 span=1 "
        "variant=0\n",
        // fractional at, span and variant (no truncation)
        "plan seed=1 target=serve\n"
        "action kind=queue_storm at=2.9 magnitude=4 span=1 "
        "variant=0\n",
        "plan seed=1 target=serve\n"
        "action kind=queue_storm at=2 magnitude=4 span=1.5 "
        "variant=0\n",
        "plan seed=1 target=serve\n"
        "action kind=transport_fault at=2 magnitude=0.1 span=1 "
        "variant=2.7\n",
        // repeated keys
        "plan seed=1 target=serve\n"
        "action kind=queue_storm at=2 at=9 magnitude=4 span=1 "
        "variant=0\n",
        "plan seed=1 seed=2 target=serve\n",
        "plan seed=1 target=autopilot target=serve\n",
        // a transport fault that does not exist
        "plan seed=1 target=serve\n"
        "action kind=transport_fault at=2 magnitude=0.1 span=1 "
        "variant=99\n",
        // hex
        "plan seed=1 target=serve\n"
        "action kind=queue_storm at=2 magnitude=0x10 span=1 "
        "variant=0\n",
    };
    for (const char *text : bad)
        EXPECT_FALSE(parseText(text)) << text;
}

TEST(ChaosPlan, HostileValuesAreRejectedNotAccepted)
{
    // Structured fuzz: a generated action's fields, each poisoned
    // with probability 0.3 from the scenario DSL's poison pool. Any
    // poisoned line must fail the whole parse; an untouched one must
    // parse back to the action.
    static const char *const poison[] = {
        "nan", "inf", "-inf", "1e999", "1.5.2", "12ab",
        "--5", "+",   ".",    "1e",    "-7",    "\x7f" "7",
        "2,5",
    };
    Rng rng(778);
    for (std::size_t iter = 0; iter < 500; ++iter) {
        auto target = iter % 2 ? PlanTarget::Serve
                               : PlanTarget::Autopilot;
        FaultPlan plan = chaos::randomPlan(11, iter, target);
        const FaultAction a = plan.actions.front();
        plan.actions = {a};
        bool poisoned = false;
        auto field = [&](const std::string &valid) {
            if (rng.uniform() >= 0.3)
                return valid;
            poisoned = true;
            return std::string(poison[rng.uniformInt(
                std::uint64_t(sizeof(poison) / sizeof(poison[0])))]);
        };
        std::string text = chaos::emitPlan(plan);
        text.resize(text.rfind("action "));
        text += "action kind=" + std::string(chaos::actionKindName(a.kind));
        text += " at=" + field(std::to_string(a.at));
        text += " magnitude=" + field(strf("%.17g", a.magnitude));
        text += " span=" + field(std::to_string(a.span));
        text += " variant=" + field(std::to_string(a.variant));
        text += '\n';
        auto parsed = parseText(text);
        if (poisoned) {
            EXPECT_FALSE(parsed) << "accepted poison: " << text;
        } else {
            ASSERT_TRUE(parsed)
                << text << ": " << parsed.status().toString();
            EXPECT_EQ(parsed.value(), plan) << text;
        }
    }
}

TEST(ChaosPlan, GenerationIsDeterministic)
{
    for (std::size_t i = 0; i < 8; ++i) {
        EXPECT_EQ(chaos::randomPlan(7, i, PlanTarget::Autopilot),
                  chaos::randomPlan(7, i, PlanTarget::Autopilot));
    }
    EXPECT_NE(chaos::randomPlan(7, 0, PlanTarget::Autopilot),
              chaos::randomPlan(8, 0, PlanTarget::Autopilot));
    EXPECT_EQ(chaos::modePairPlans(7).size(), 21u);
}

// ---------------------------------------------------------------
// Invariant checkers over synthetic outcomes
// ---------------------------------------------------------------

/** A baseline outcome that passes every checker. */
RunOutcome
healthyOutcome()
{
    RunOutcome o;
    o.completed = true;
    o.samples = 36;
    return o;
}

bool
fails(const RunOutcome &o, InvariantKind kind,
      const FaultPlan &plan = {})
{
    for (const auto &v : chaos::checkInvariants(plan, o)) {
        if (v.kind == kind)
            return !v.passed;
    }
    ADD_FAILURE() << "kind not reported";
    return false;
}

TEST(ChaosInvariants, HealthyOutcomePassesAll)
{
    auto verdicts = chaos::checkInvariants({}, healthyOutcome());
    ASSERT_EQ(verdicts.size(), 4u); // determinism is appended later
    for (const auto &v : verdicts)
        EXPECT_TRUE(v.passed) << chaos::invariantName(v.kind)
                              << ": " << v.detail;
}

TEST(ChaosInvariants, HangAndCorruptionAreViolations)
{
    auto o = healthyOutcome();
    o.hung = true;
    o.hangWhere = "supervisor.autopilot";
    EXPECT_TRUE(fails(o, InvariantKind::NoHang));

    o = healthyOutcome();
    o.checkpointHealthy = false;
    o.checkpointDetail = "checksum mismatch";
    EXPECT_TRUE(fails(o, InvariantKind::NoCorruptState));

    o = healthyOutcome();
    o.modelRoundTripOk = false;
    EXPECT_TRUE(fails(o, InvariantKind::NoCorruptState));
}

TEST(ChaosInvariants, RecoveryWindowMustCloseAfterQuietTail)
{
    auto o = healthyOutcome();
    o.monitor.recoveryOpen = true;
    o.lastDisturbanceSample = 10;
    o.samples = 100; // 90 quiet samples > the 40-sample bound
    EXPECT_TRUE(fails(o, InvariantKind::BoundedRecovery));

    // Still inside the bound: not a violation yet.
    o.samples = 30;
    EXPECT_FALSE(fails(o, InvariantKind::BoundedRecovery));

    // Serve plans have no recovery window.
    o.samples = 100;
    o.serveTarget = true;
    EXPECT_FALSE(fails(o, InvariantKind::BoundedRecovery));
}

TEST(ChaosInvariants, BreakerMustOpenAfterConsecutiveFailures)
{
    auto o = healthyOutcome();
    core::SupervisorEvent failed;
    failed.kind = core::SupervisorEventKind::RecalibrationFailed;
    failed.sample = 9;
    o.supervisorEvents = {failed, failed}; // threshold 2, no open
    EXPECT_TRUE(fails(o, InvariantKind::GracefulDegradation));

    core::SupervisorEvent opened;
    opened.kind = core::SupervisorEventKind::BreakerOpened;
    opened.sample = 9;
    o.supervisorEvents = {failed, failed, opened};
    EXPECT_FALSE(fails(o, InvariantKind::GracefulDegradation));

    // A success in between resets the streak.
    core::SupervisorEvent ok;
    ok.kind = core::SupervisorEventKind::RecalibrationSucceeded;
    ok.sample = 9;
    o.supervisorEvents = {failed, ok, failed};
    EXPECT_FALSE(fails(o, InvariantKind::GracefulDegradation));
}

TEST(ChaosInvariants, ServeRefusalsMustDegradeGracefully)
{
    auto o = healthyOutcome();
    o.serveTarget = true;

    // 503 shedding is the desired degradation mode, not a failure...
    o.serveStatus[5] = 12;
    EXPECT_FALSE(fails(o, InvariantKind::GracefulDegradation));

    // ...500s are.
    o.serveInternalErrors = 1;
    EXPECT_TRUE(fails(o, InvariantKind::GracefulDegradation));

    o = healthyOutcome();
    o.serveTarget = true;
    o.retryAfterOnRefusals = false;
    EXPECT_TRUE(fails(o, InvariantKind::GracefulDegradation));

    o = healthyOutcome();
    o.serveTarget = true;
    o.reloadKeptServing = false;
    EXPECT_TRUE(fails(o, InvariantKind::GracefulDegradation));

    o = healthyOutcome();
    o.serveTarget = true;
    o.drainConverged = false;
    EXPECT_TRUE(fails(o, InvariantKind::GracefulDegradation));
}

// ---------------------------------------------------------------
// Single-plan runs through the real stack
// ---------------------------------------------------------------

TEST(ChaosRunner, CrashPlanResumesAndStaysDeterministic)
{
    FaultPlan plan;
    plan.seed = 1234;
    plan.target = PlanTarget::Autopilot;
    plan.scenario = traffic::steadySteps(
        traffic::TrafficProfile::defaults(), 24);
    plan.actions = {{ActionKind::Crash, 11, 0.0, 1, 0}};

    auto opts = runnerOpts(freshDir("chaos_crash_plan"));
    auto first = chaos::runPlan(world(), plan, opts);
    EXPECT_TRUE(first.completed) << first.error;
    EXPECT_EQ(first.crashes, 1u);
    EXPECT_EQ(first.resumes, 1u);
    EXPECT_FALSE(first.hung);

    auto second = chaos::runPlan(world(), plan, opts);
    EXPECT_EQ(first.streamHash, second.streamHash)
        << "crash-resume replay must be deterministic";
}

TEST(ChaosRunner, ServePlanShedsWithRetryAfterUnderStorm)
{
    FaultPlan plan;
    plan.seed = 77;
    plan.target = PlanTarget::Serve;
    plan.actions = {
        {ActionKind::QueueStorm, 6, 10.0, 12, 0},
        {ActionKind::TransportFault, 20, 0.3, 10, 2},
        {ActionKind::DrainDrill, chaos::kServePlanSteps - 10, 0.0, 1,
         0},
    };

    auto opts = runnerOpts(freshDir("chaos_serve_storm"));
    auto outcome = chaos::runPlan(world(), plan, opts);
    EXPECT_TRUE(outcome.completed) << outcome.error;
    EXPECT_GT(outcome.serveResponses, 0u);
    EXPECT_GT(outcome.serveStatus[2] + outcome.serveStatus[4] +
                  outcome.serveStatus[5],
              0u);
    EXPECT_TRUE(outcome.retryAfterOnRefusals)
        << outcome.refusalDetail;
    EXPECT_TRUE(outcome.drainConverged);
    EXPECT_EQ(outcome.serveInternalErrors, 0u);

    auto verdicts = chaos::checkInvariants(plan, outcome);
    for (const auto &v : verdicts)
        EXPECT_TRUE(v.passed) << chaos::invariantName(v.kind)
                              << ": " << v.detail;
}

TEST(ChaosRunner, CorruptReloadKeepsPriorModelServing)
{
    FaultPlan plan;
    plan.seed = 501;
    plan.target = PlanTarget::Serve;
    plan.actions = {
        {ActionKind::CorruptReload, 10, 0.0, 1, 0},
        {ActionKind::CorruptReload, 20, 0.0, 1, 1},
        {ActionKind::CorruptReload, 30, 0.0, 1, 2},
    };

    auto opts = runnerOpts(freshDir("chaos_corrupt_reload"));
    auto outcome = chaos::runPlan(world(), plan, opts);
    EXPECT_TRUE(outcome.completed) << outcome.error;
    EXPECT_TRUE(outcome.reloadKeptServing) << outcome.reloadDetail;
    EXPECT_EQ(outcome.serveInternalErrors, 0u);
}

// ---------------------------------------------------------------
// Campaigns
// ---------------------------------------------------------------

chaos::CampaignOptions
campaignOpts(const std::string &work_dir, std::size_t runs)
{
    chaos::CampaignOptions opts;
    opts.seed = 7;
    opts.runs = runs;
    opts.runner = runnerOpts(work_dir);
    return opts;
}

TEST(ChaosCampaign, FiveHundredPlansZeroViolations)
{
    // The acceptance bar: 21 combinatorial + 480 random composed
    // plans, all invariants green on a healthy tree.
    auto opts = campaignOpts(freshDir("chaos_500"), 480);
    opts.determinismEveryN = 16; // keep the re-run cost bounded
    auto result = chaos::runCampaign(world(), opts);
    EXPECT_GE(result.plans, 500u);
    EXPECT_EQ(result.violations, 0u) << result.firstViolationDetail;
    EXPECT_FALSE(result.haveRepro);
    EXPECT_GT(result.crashes, 0u)
        << "the plan space must actually exercise crash-resume";
    EXPECT_GT(result.faultsInjected, 0u);
    EXPECT_GT(result.determinismReruns, 0u);
}

TEST(ChaosCampaign, PlantedRegressionIsCaughtShrunkAndReplayable)
{
    auto opts = campaignOpts(freshDir("chaos_planted"), 12);
    opts.combinatorial = false; // the plant lives in serve plans
    opts.runner.plant = chaos::kPlantRegistryNoCommit;
    auto result = chaos::runCampaign(world(), opts);

    ASSERT_TRUE(result.haveRepro)
        << "campaign missed the planted regression";
    EXPECT_EQ(result.firstViolationKind,
              InvariantKind::GracefulDegradation);
    EXPECT_GT(result.violations, 0u);
    EXPECT_GT(result.shrinkIterations, 0u);
    ASSERT_LE(result.shrunkPlan.actions.size(), 3u)
        << "shrinker left a non-minimal plan";

    // The repro file round-trips to the shrunk plan...
    auto replayPlan = parseText(result.reproText);
    ASSERT_TRUE(replayPlan) << replayPlan.status().toString();
    EXPECT_EQ(replayPlan.value(), result.shrunkPlan);

    // ...replays deterministically to the same violation...
    auto once =
        chaos::runPlan(world(), replayPlan.value(), opts.runner);
    auto twice =
        chaos::runPlan(world(), replayPlan.value(), opts.runner);
    EXPECT_EQ(once.streamHash, twice.streamHash);
    EXPECT_TRUE(fails(once, InvariantKind::GracefulDegradation,
                      replayPlan.value()));

    // ...and passes once the plant is removed (the minimal plan
    // isolates the regression, not some background fault).
    auto clean = opts.runner;
    clean.plant.clear();
    auto healthy =
        chaos::runPlan(world(), replayPlan.value(), clean);
    EXPECT_FALSE(
        fails(healthy, InvariantKind::GracefulDegradation,
              replayPlan.value()));
}

TEST(ChaosCampaign, MetricsCountPlansAndViolations)
{
    auto &plans = metrics().counter("tomur_chaos_plans_total");
    auto &violations =
        metrics().counter("tomur_chaos_violations_total");
    double plansBefore = plans.value();
    double violationsBefore = violations.value();

    auto opts = campaignOpts(freshDir("chaos_metrics"), 6);
    opts.combinatorial = false;
    opts.determinismEveryN = 0;
    auto result = chaos::runCampaign(world(), opts);
    EXPECT_EQ(result.violations, 0u);
    EXPECT_GE(plans.value(), plansBefore + 6.0);
    EXPECT_EQ(violations.value(), violationsBefore);
}

// ---------------------------------------------------------------
// Campaign golden: byte-identical ledger across widths
// ---------------------------------------------------------------

#ifndef TOMUR_GOLDEN_DIR
#define TOMUR_GOLDEN_DIR "tests/golden"
#endif

std::string
goldenPath(const std::string &file)
{
    return std::string(TOMUR_GOLDEN_DIR) + "/" + file;
}

void
checkGolden(const std::string &file, const std::string &actual)
{
    const std::string path = goldenPath(file);
    if (std::getenv("TOMUR_UPDATE_GOLDENS")) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << actual;
        return;
    }
    std::string expected = readFile(path);
    ASSERT_FALSE(expected.empty())
        << path << " is missing; regenerate with "
        << "tools/update_goldens.sh";
    EXPECT_EQ(expected, actual)
        << "golden mismatch for " << file
        << "; if the change is intentional, regenerate with "
        << "tools/update_goldens.sh and review the diff";
}

std::string
goldenCampaignLedger(const std::string &work_dir)
{
    auto opts = campaignOpts(work_dir, 9);
    opts.determinismEveryN = 5;
    auto result = chaos::runCampaign(world(), opts);
    EXPECT_EQ(result.violations, 0u);
    return result.jsonl;
}

TEST(ChaosGolden, CampaignLedgerIsByteStableSerial)
{
    PoolWidth width(1);
    auto ledger = goldenCampaignLedger(freshDir("chaos_golden_1"));
    // The fixture must exercise both targets and the trailer.
    EXPECT_NE(ledger.find("\"target\":\"autopilot\""),
              std::string::npos);
    EXPECT_NE(ledger.find("\"target\":\"serve\""),
              std::string::npos);
    EXPECT_NE(ledger.find("\"chaos_summary\""), std::string::npos);
    checkGolden("chaos_campaign.jsonl", ledger);
}

TEST(ChaosGolden, WideCampaignIsByteIdenticalToFixture)
{
    PoolWidth width(8);
    auto ledger = goldenCampaignLedger(freshDir("chaos_golden_8"));
    if (std::getenv("TOMUR_UPDATE_GOLDENS")) {
        // The fixture is written by the serial test; here we only
        // verify the wide run reproduces it.
        std::string serial;
        {
            PoolWidth one(1);
            serial =
                goldenCampaignLedger(freshDir("chaos_golden_8r"));
        }
        EXPECT_EQ(serial, ledger);
        return;
    }
    checkGolden("chaos_campaign.jsonl", ledger);
}

} // namespace
} // namespace tomur
