/**
 * @file
 * Prediction-quality observatory tests: contention attribution
 * semantics, the online monitor's detectors (Page–Hinkley drift,
 * accuracy EWMA, traffic shift, recalibration) on synthetic sample
 * streams, the JSONL event stream and summary, the report renderer,
 * and a golden end-to-end replay whose event stream must be
 * byte-identical at any TOMUR_THREADS width.
 *
 * Golden fixtures live in tests/golden/ (path baked in via
 * TOMUR_GOLDEN_DIR); regenerate with tools/update_goldens.sh or by
 * running this binary with TOMUR_UPDATE_GOLDENS=1.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/json.hh"
#include "common/report.hh"
#include "common/rng.hh"
#include "common/sampler.hh"
#include "common/strutil.hh"
#include "common/threadpool.hh"
#include "nfs/registry.hh"
#include "tomur/lab.hh"
#include "tomur/monitor.hh"
#include "tomur/supervisor.hh"
#include "traffic/synth.hh"

namespace tomur {
namespace {

namespace fw = framework;
using namespace std::string_literals;
using core::MonitorEvent;
using core::MonitorEventKind;
using core::MonitorOptions;
using core::MonitorSample;
using core::PredictionMonitor;

/** RAII global pool width (restores the configured width on exit). */
struct PoolWidth
{
    explicit PoolWidth(int threads) { setGlobalThreadCount(threads); }
    ~PoolWidth() { setGlobalThreadCount(configuredThreadCount()); }
};

/** A synthetic sample at the default traffic profile. */
MonitorSample
sample(double predicted, double measured)
{
    MonitorSample s;
    s.deployment = "test";
    s.profile = traffic::TrafficProfile::defaults();
    s.predicted = predicted;
    s.measured = measured;
    return s;
}

/** Count events of a kind in the monitor's retained stream. */
std::size_t
countKind(const PredictionMonitor &m, MonitorEventKind kind)
{
    std::size_t n = 0;
    for (const auto &ev : m.events())
        n += ev.kind == kind;
    return n;
}

// ---------------------------------------------------------------
// Contention attribution
// ---------------------------------------------------------------

TEST(Attribution, RanksLargestDropFirst)
{
    core::PredictionBreakdown b;
    b.soloThroughput = 1000.0;
    b.memoryOnlyThroughput = 900.0; // memory drop 100
    b.accelUsed[0] = true;
    b.accelOnlyThroughput[0] = 600.0; // regex drop 400
    b.predicted = 550.0;
    auto a = core::attributeContention(b);
    ASSERT_EQ(a.ranked.size(), 2u);
    EXPECT_EQ(a.ranked[0].resource, core::Resource::Regex);
    EXPECT_DOUBLE_EQ(a.ranked[0].drop, 400.0);
    EXPECT_EQ(a.ranked[1].resource, core::Resource::Memory);
    EXPECT_DOUBLE_EQ(a.ranked[1].drop, 100.0);
    EXPECT_EQ(a.dominantResource, core::Resource::Regex);
    EXPECT_DOUBLE_EQ(a.totalDrop, 450.0);
}

TEST(Attribution, SharesSumToOne)
{
    core::PredictionBreakdown b;
    b.soloThroughput = 1000.0;
    b.memoryOnlyThroughput = 700.0;
    b.accelUsed[2] = true;
    b.accelOnlyThroughput[2] = 800.0;
    auto a = core::attributeContention(b);
    double sum = 0.0;
    for (const auto &c : a.ranked)
        sum += c.share;
    EXPECT_NEAR(sum, 1.0, 1e-12);
    EXPECT_NEAR(a.ranked[0].share, 0.6, 1e-12); // memory 300/500
}

TEST(Attribution, AllZeroTieGoesToMemory)
{
    // No contention at all: every drop is zero and the stable sort
    // must keep memory first, matching the predictor's historical
    // strict-> argmax.
    core::PredictionBreakdown b;
    b.soloThroughput = 1000.0;
    b.memoryOnlyThroughput = 1000.0;
    b.accelUsed[0] = b.accelUsed[1] = true;
    b.accelOnlyThroughput[0] = 1000.0;
    b.accelOnlyThroughput[1] = 1000.0;
    auto a = core::attributeContention(b);
    EXPECT_EQ(a.dominantResource, core::Resource::Memory);
    for (const auto &c : a.ranked)
        EXPECT_DOUBLE_EQ(c.share, 0.0);
}

TEST(Attribution, UnusedAccelsAreNotRanked)
{
    core::PredictionBreakdown b;
    b.soloThroughput = 1000.0;
    b.memoryOnlyThroughput = 950.0;
    auto a = core::attributeContention(b);
    ASSERT_EQ(a.ranked.size(), 1u);
    EXPECT_EQ(a.ranked[0].resource, core::Resource::Memory);
}

TEST(Attribution, ToStringRendersRanking)
{
    core::PredictionBreakdown b;
    b.soloThroughput = 1000.0;
    b.memoryOnlyThroughput = 800.0;
    auto a = core::attributeContention(b);
    auto text = a.toString();
    EXPECT_NE(text.find("memory"), std::string::npos);
    EXPECT_NE(text.find("100%"), std::string::npos);
}

TEST(Attribution, ResourceNames)
{
    EXPECT_STREQ(core::resourceName(core::Resource::Memory), "memory");
    EXPECT_STREQ(core::resourceName(core::Resource::Regex), "regex");
    EXPECT_STREQ(core::resourceName(core::Resource::Compression),
                 "compression");
    EXPECT_STREQ(core::resourceName(core::Resource::Crypto), "crypto");
}

// ---------------------------------------------------------------
// Histogram quantiles
// ---------------------------------------------------------------

TEST(HistogramQuantile, InterpolatesWithinBucket)
{
    Histogram h({1.0, 2.0, 4.0});
    for (int i = 0; i < 10; ++i)
        h.observe(0.5); // all in the first bucket
    auto s = h.snapshot();
    // Rank 5 of 10 lands mid-bucket: lower 0 + 0.5 * (1 - 0).
    EXPECT_NEAR(core::histogramQuantile(s, 0.5), 0.5, 1e-12);
    EXPECT_NEAR(core::histogramQuantile(s, 1.0), 1.0, 1e-12);
}

TEST(HistogramQuantile, EmptySnapshotIsZero)
{
    Histogram h({1.0});
    EXPECT_DOUBLE_EQ(core::histogramQuantile(h.snapshot(), 0.9), 0.0);
}

TEST(HistogramQuantile, OverflowBucketReportsLastBound)
{
    Histogram h({1.0, 2.0});
    h.observe(100.0);
    EXPECT_DOUBLE_EQ(core::histogramQuantile(h.snapshot(), 0.99),
                     2.0);
}

// ---------------------------------------------------------------
// Monitor detectors (synthetic streams)
// ---------------------------------------------------------------

TEST(Monitor, StationaryStreamFiresNothing)
{
    PredictionMonitor m;
    for (int i = 0; i < 300; ++i) {
        // Small alternating error around zero: accurate and stable.
        double measured = 1000.0 * (1.0 + (i % 2 ? 0.02 : -0.02));
        auto fired = m.ingest(sample(1000.0, measured));
        EXPECT_TRUE(fired.empty()) << "event at sample " << i;
    }
    EXPECT_TRUE(m.events().empty());
    auto sum = m.summary();
    EXPECT_EQ(sum.samples, 300u);
    EXPECT_EQ(sum.invalidSamples, 0u);
    // |err| is ~0.02/0.98 at worst; the bucketed p99 rounds up to
    // its bucket, staying well under 5%.
    EXPECT_LT(sum.p99, 0.05);
}

TEST(Monitor, ConstantModelOffsetIsNotDrift)
{
    // A systematically wrong model (constant +10% error) is an
    // accuracy problem, not drift: Page–Hinkley tracks deviations
    // from its own running mean and must stay quiet.
    PredictionMonitor m;
    for (int i = 0; i < 300; ++i)
        m.ingest(sample(900.0, 1000.0));
    EXPECT_EQ(countKind(m, MonitorEventKind::DriftDetected), 0u);
}

TEST(Monitor, LevelShiftFiresDriftWithinBoundedSamples)
{
    PredictionMonitor m;
    for (int i = 0; i < 50; ++i)
        m.ingest(sample(1000.0, 1000.0));
    EXPECT_TRUE(m.events().empty());
    // The measured throughput drops 30% below the prediction —
    // the signature of the workload drifting off the trained model.
    std::size_t fired_at = 0;
    for (int i = 0; i < 30 && fired_at == 0; ++i) {
        for (const auto &ev : m.ingest(sample(1000.0, 700.0))) {
            if (ev.kind == MonitorEventKind::DriftDetected)
                fired_at = ev.sample;
        }
    }
    ASSERT_NE(fired_at, 0u) << "drift never detected";
    EXPECT_LE(fired_at, 60u) << "detection not within 10 samples";
}

TEST(Monitor, AccuracyDegradedHasHysteresis)
{
    PredictionMonitor m;
    for (int i = 0; i < 20; ++i)
        m.ingest(sample(1000.0, 1000.0));
    // Push the EWMA above the threshold...
    for (int i = 0; i < 60; ++i)
        m.ingest(sample(1000.0, 1400.0));
    EXPECT_EQ(countKind(m, MonitorEventKind::AccuracyDegraded), 1u);
    // ...recover, then degrade again: a second event may fire only
    // because the alarm re-armed below 0.8x the threshold.
    for (int i = 0; i < 100; ++i)
        m.ingest(sample(1000.0, 1000.0));
    for (int i = 0; i < 60; ++i)
        m.ingest(sample(1000.0, 1400.0));
    EXPECT_EQ(countKind(m, MonitorEventKind::AccuracyDegraded), 2u);
}

TEST(Monitor, TrafficShiftDetectedOnAttributeJump)
{
    PredictionMonitor m;
    auto base = traffic::TrafficProfile::defaults();
    for (int i = 0; i < 40; ++i) {
        auto s = sample(1000.0, 1000.0);
        s.profile = base;
        EXPECT_TRUE(m.ingest(s).empty());
    }
    auto shifted = base.withAttribute(
        traffic::Attribute::FlowCount,
        4.0 * static_cast<double>(base.flowCount));
    auto s = sample(1000.0, 1000.0);
    s.profile = shifted;
    auto fired = m.ingest(s);
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0].kind, MonitorEventKind::TrafficShift);
    EXPECT_EQ(fired[0].sample, 41u);
    EXPECT_NE(fired[0].detail.find("flow_count"),
              std::string::npos);
    // The shifted regime becomes the baseline: staying there is not
    // another shift. Accuracy is already healthy, so the only event
    // in the aftermath is the recovery that closes the window the
    // shift opened.
    for (int i = 0; i < 40; ++i) {
        auto s2 = sample(1000.0, 1000.0);
        s2.profile = shifted;
        for (const auto &ev : m.ingest(s2))
            EXPECT_EQ(ev.kind, MonitorEventKind::AccuracyRecovered);
    }
    EXPECT_EQ(countKind(m, MonitorEventKind::TrafficShift), 1u);
    EXPECT_EQ(countKind(m, MonitorEventKind::AccuracyRecovered), 1u);
}

TEST(Monitor, RecalibrationRecommendedAfterDriftWhileInaccurate)
{
    PredictionMonitor m;
    for (int i = 0; i < 30; ++i)
        m.ingest(sample(1000.0, 1000.0));
    // First level shift: drift fires, accuracy follows.
    for (int i = 0; i < 60; ++i)
        m.ingest(sample(1000.0, 600.0));
    EXPECT_GE(countKind(m, MonitorEventKind::DriftDetected), 1u);
    EXPECT_GE(countKind(m, MonitorEventKind::AccuracyDegraded), 1u);
    // Second shift while the accuracy alarm is still raised: the
    // drift detector re-trips and recalibration is recommended.
    for (int i = 0; i < 60; ++i)
        m.ingest(sample(1000.0, 300.0));
    EXPECT_GE(
        countKind(m, MonitorEventKind::RecalibrationRecommended),
        1u);
}

TEST(Monitor, CooldownBoundsEventRate)
{
    MonitorOptions opts;
    opts.cooldown = 50;
    PredictionMonitor m(opts);
    for (int i = 0; i < 20; ++i)
        m.ingest(sample(1000.0, 1000.0));
    // A wildly oscillating error would re-trip Page–Hinkley every
    // few samples without the cooldown.
    for (int i = 0; i < 200; ++i) {
        double measured = i % 8 < 4 ? 400.0 : 1600.0;
        m.ingest(sample(1000.0, measured));
    }
    EXPECT_LE(countKind(m, MonitorEventKind::DriftDetected), 5u);
}

TEST(Monitor, InvalidMeasurementsAreCountedNotIngested)
{
    PredictionMonitor m;
    for (int i = 0; i < 30; ++i)
        m.ingest(sample(1000.0, 1000.0));
    auto nan = std::numeric_limits<double>::quiet_NaN();
    m.ingest(sample(1000.0, nan));
    m.ingest(sample(1000.0, 0.0));
    auto sum = m.summary();
    EXPECT_EQ(sum.samples, 32u);
    EXPECT_EQ(sum.invalidSamples, 2u);
    // A faulted reading must not register as a huge error.
    EXPECT_LT(sum.ewmaAbsError, 0.01);
    EXPECT_TRUE(m.events().empty());
}

TEST(Monitor, DegradedRateTracksFlag)
{
    PredictionMonitor m;
    for (int i = 0; i < 10; ++i) {
        auto s = sample(1000.0, 1000.0);
        s.degraded = i < 4;
        m.ingest(s);
    }
    EXPECT_DOUBLE_EQ(m.summary().degradedRate, 0.4);
}

TEST(Monitor, ExportJsonlHasEventsThenSummaryTrailer)
{
    PredictionMonitor m;
    for (int i = 0; i < 30; ++i)
        m.ingest(sample(1000.0, 1000.0));
    for (int i = 0; i < 30; ++i)
        m.ingest(sample(1000.0, 500.0));
    ASSERT_FALSE(m.events().empty());
    std::ostringstream out;
    m.exportJsonl(out);
    auto lines = split(out.str(), '\n');
    ASSERT_GE(lines.size(), 2u);
    EXPECT_EQ(lines[0].find("{\"event\":\""), 0u);
    // Last non-empty line is the summary trailer.
    const auto &trailer = lines[lines.size() - 2];
    EXPECT_EQ(trailer.find("{\"summary\":{"), 0u);
    EXPECT_NE(trailer.find("\"ewma_abs_error\""),
              std::string::npos);
}

TEST(Monitor, EventSinkSeesEventsAsTheyFire)
{
    std::ostringstream sink;
    PredictionMonitor m;
    m.setEventSink(&sink);
    for (int i = 0; i < 30; ++i)
        m.ingest(sample(1000.0, 1000.0));
    for (int i = 0; i < 30; ++i)
        m.ingest(sample(1000.0, 500.0));
    ASSERT_FALSE(m.events().empty());
    EXPECT_EQ(sink.str(),
              [&] {
                  std::string all;
                  for (const auto &ev : m.events())
                      all += ev.toJson() + "\n";
                  return all;
              }());
}

// ---------------------------------------------------------------
// Schedule parsing
// ---------------------------------------------------------------

/** A schedule file is a scenario script whose literal steps are
 *  `step flows= size= mtbr= [repeats=]` lines; this is the path the
 *  CLI's `--scenario` option takes to the replayable schedule. */
Result<std::vector<core::ScheduleStep>>
parseScheduleText(const std::string &text)
{
    std::istringstream in(text);
    auto parsed = traffic::parseScenario(in);
    if (!parsed)
        return parsed.status();
    return core::toSchedule(parsed.value());
}

TEST(Schedule, ParsesLinesWithCommentsAndRepeats)
{
    auto parsed = parseScheduleText(
        "# demo schedule\n"
        "step flows=16000 size=1500 mtbr=600 repeats=30\n"
        "\n"
        "step flows=64000 size=1500 mtbr=600  # shifted phase\n");
    ASSERT_TRUE(parsed) << parsed.status().toString();
    const auto &steps = parsed.value();
    ASSERT_EQ(steps.size(), 2u);
    EXPECT_EQ(steps[0].repeats, 30);
    EXPECT_EQ(steps[0].profile.flowCount, 16000u);
    EXPECT_EQ(steps[1].repeats, 1);
    EXPECT_EQ(steps[1].profile.flowCount, 64000u);
}

TEST(Schedule, RejectsMalformedAndEmptyInput)
{
    EXPECT_FALSE(parseScheduleText("step flows=16000 size\n"));
    EXPECT_FALSE(parseScheduleText("16000 1500 600\n"));
    EXPECT_FALSE(parseScheduleText("# nothing here\n"));
    EXPECT_FALSE(parseScheduleText(""));
    EXPECT_FALSE(
        parseScheduleText("step flows=-5 size=1500 mtbr=600\n"));
}

/** Invariants every accepted schedule must satisfy (the documented
 *  field ranges): a fuzz input may be rejected, but anything that
 *  parses must be safe to replay. */
void
expectScheduleInvariants(const std::vector<core::ScheduleStep> &steps,
                         const std::string &input)
{
    for (const auto &s : steps) {
        EXPECT_GE(s.repeats, 1) << input;
        EXPECT_LE(s.repeats, 1000000) << input;
        EXPECT_GE(s.profile.flowCount, 1u) << input;
        EXPECT_LE(s.profile.flowCount, 1000000000u) << input;
        EXPECT_GE(s.profile.packetSize, 1u) << input;
        EXPECT_LE(s.profile.packetSize, 1000000u) << input;
        EXPECT_TRUE(std::isfinite(s.profile.mtbr)) << input;
        EXPECT_GE(s.profile.mtbr, 0.0) << input;
    }
}

TEST(ScheduleFuzz, RandomByteSoupNeverCrashesOrLeaksGarbage)
{
    // Seeded and deterministic: the same 500 hostile inputs on every
    // run. The property is "no crash, and whatever parses satisfies
    // the range invariants" — not that any particular input parses.
    Rng rng(20260807);
    const std::string alphabet =
        "0123456789.-+eE= \t#\nstepflowsizemtbrrepeats"
        "xyz\\\"\0\x01\x7f"s;
    for (int iter = 0; iter < 500; ++iter) {
        std::string input;
        std::size_t len = rng.uniformInt(std::uint64_t(120));
        for (std::size_t i = 0; i < len; ++i)
            input.push_back(
                alphabet[rng.uniformInt(alphabet.size())]);
        auto parsed = parseScheduleText(input);
        if (parsed)
            expectScheduleInvariants(parsed.value(), input);
    }
}

TEST(ScheduleFuzz, HostileTokensAreRejectedNotAccepted)
{
    // Structured fuzz: `step` lines of 3-4 fields whose values are
    // drawn from a pool that is mostly poison. Any line containing a
    // poison value must fail the whole parse (the schedule is
    // all-or-nothing per stream).
    static const char *const poison[] = {
        "nan", "inf", "-inf", "1e999",   "1.5.2", "12ab",
        "--5", "+",   ".",    "1e",      "-0.5",  "\x7f" "7",
        "2,5",
    };
    static const char *const keys[] = {"flows", "size", "mtbr",
                                       "repeats"};
    static const char *const valid[] = {"16000", "1500", "600", "4"};
    Rng rng(777);
    for (int iter = 0; iter < 500; ++iter) {
        bool poisoned = false;
        std::string input = "step";
        std::size_t fields = 3 + rng.uniformInt(std::uint64_t(2));
        for (std::size_t i = 0; i < fields; ++i) {
            input += ' ';
            input += keys[i];
            input += '=';
            if (rng.uniform() < 0.3) {
                input += poison[rng.uniformInt(
                    std::uint64_t(sizeof(poison) /
                                  sizeof(poison[0])))];
                poisoned = true;
            } else {
                input += valid[i];
            }
        }
        input += '\n';
        auto parsed = parseScheduleText(input);
        if (poisoned) {
            EXPECT_FALSE(parsed) << "accepted poison: " << input;
        }
        if (parsed)
            expectScheduleInvariants(parsed.value(), input);
    }
}

TEST(ScheduleFuzz, InRangeSchedulesRoundTrip)
{
    // The positive property: any schedule rendered from in-range
    // values parses back to exactly those values.
    Rng rng(4242);
    for (int iter = 0; iter < 200; ++iter) {
        std::uint64_t flows =
            1 + rng.uniformInt(std::uint64_t(999999999));
        std::uint64_t size =
            64 + rng.uniformInt(std::uint64_t(999936));
        std::uint64_t mtbr =
            rng.uniformInt(std::uint64_t(1000000));
        int repeats =
            1 + static_cast<int>(
                    rng.uniformInt(std::uint64_t(999999)));
        std::string input = strf(
            "step flows=%llu size=%llu mtbr=%llu repeats=%d # fuzz\n",
            (unsigned long long)flows, (unsigned long long)size,
            (unsigned long long)mtbr, repeats);
        auto parsed = parseScheduleText(input);
        ASSERT_TRUE(parsed) << input << ": "
                            << parsed.status().toString();
        ASSERT_EQ(parsed.value().size(), 1u);
        const auto &s = parsed.value()[0];
        EXPECT_EQ(s.profile.flowCount, flows) << input;
        EXPECT_EQ(s.profile.packetSize, size) << input;
        EXPECT_DOUBLE_EQ(s.profile.mtbr,
                         static_cast<double>(mtbr))
            << input;
        EXPECT_EQ(s.repeats, repeats) << input;
    }
}

TEST(Schedule, DefaultScheduleShiftsAndReturns)
{
    auto base = traffic::TrafficProfile::defaults();
    auto steps = core::defaultSchedule(base);
    ASSERT_EQ(steps.size(), 3u);
    EXPECT_EQ(steps[0].profile, base);
    EXPECT_EQ(steps[1].profile.flowCount, 4 * base.flowCount);
    EXPECT_EQ(steps[2].profile, base);
}

// ---------------------------------------------------------------
// Time-to-recovery
// ---------------------------------------------------------------

/** Feed warm-up, then a synthesized scenario family, then a steady
 *  tail through a monitor with perfect predictions: regime changes
 *  come only from the traffic stream, and every recovery window must
 *  close during the tail. */
PredictionMonitor
runFamilyThroughMonitor(const std::vector<traffic::SynthStep> &family)
{
    PredictionMonitor m;
    auto base = traffic::TrafficProfile::defaults();
    auto feed = [&](const traffic::TrafficProfile &p, int repeats) {
        for (int i = 0; i < repeats; ++i) {
            auto s = sample(1000.0, 1000.0);
            s.profile = p;
            m.ingest(s);
        }
    };
    feed(base, 40);
    for (const auto &step : family)
        feed(step.profile, step.repeats);
    feed(base, 40);
    return m;
}

TEST(Recovery, EveryScenarioFamilyRecoversFinitely)
{
    auto base = traffic::TrafficProfile::defaults();
    traffic::DiurnalOptions diurnal;
    diurnal.base = base;
    diurnal.amplitude = 0.9;
    diurnal.period = 8;
    traffic::FlashCrowdOptions flash;
    flash.base = base;
    traffic::FlowChurnOptions churn;
    churn.base = base;
    traffic::MtbrSpikeOptions spike;
    spike.base = base;
    struct
    {
        const char *name;
        std::vector<traffic::SynthStep> steps;
    } families[] = {
        {"diurnal", traffic::diurnalSteps(diurnal)},
        {"flash", traffic::flashCrowdSteps(flash)},
        {"churn", traffic::flowChurnSteps(churn)},
        {"mtbr_spike", traffic::mtbrSpikeSteps(spike)},
    };
    for (const auto &f : families) {
        auto m = runFamilyThroughMonitor(f.steps);
        auto sum = m.summary();
        EXPECT_GE(sum.eventCounts[static_cast<int>(
                      MonitorEventKind::TrafficShift)],
                  1u)
            << f.name;
        // Every regime change recovered, in finite sample time.
        EXPECT_GE(sum.recoveries, 1u) << f.name;
        EXPECT_FALSE(sum.recoveryOpen) << f.name;
        EXPECT_TRUE(std::isfinite(sum.meanRecoverySamples))
            << f.name;
        EXPECT_GE(sum.meanRecoverySamples, 1.0) << f.name;
        EXPECT_GE(sum.maxRecoverySamples, 1u) << f.name;
        EXPECT_LE(sum.maxRecoverySamples, sum.samples) << f.name;
        EXPECT_EQ(sum.recoveries,
                  countKind(m, MonitorEventKind::AccuracyRecovered))
            << f.name;
    }
}

TEST(Recovery, NoShiftScenarioEmitsNoEvents)
{
    // False-positive guard: a stationary scenario with benign
    // measurement wobble must not open recovery windows or fire any
    // detector.
    auto steps =
        traffic::steadySteps(traffic::TrafficProfile::defaults(),
                             300);
    PredictionMonitor m;
    std::size_t i = 0;
    for (const auto &step : steps) {
        for (int r = 0; r < step.repeats; ++r) {
            auto s = sample(1000.0, 1000.0 + (i++ % 16) - 8.0);
            s.profile = step.profile;
            EXPECT_TRUE(m.ingest(s).empty());
        }
    }
    auto sum = m.summary();
    for (int k = 0; k < core::numMonitorEventKinds; ++k)
        EXPECT_EQ(sum.eventCounts[k], 0u) << k;
    EXPECT_EQ(sum.recoveries, 0u);
    EXPECT_FALSE(sum.recoveryOpen);
    EXPECT_DOUBLE_EQ(sum.meanRecoverySamples, 0.0);
}

TEST(Recovery, ReTriggerRestartsTheWindow)
{
    // A second regime change before the first window closes restarts
    // the span: the recovery measures from the LATEST change.
    MonitorOptions opts;
    opts.recoveryStableSamples = 8;
    opts.cooldown = 2;
    PredictionMonitor m(opts);
    auto base = traffic::TrafficProfile::defaults();
    for (int i = 0; i < 20; ++i) {
        auto s = sample(1000.0, 1000.0);
        s.profile = base;
        m.ingest(s);
    }
    auto shifted = base.withAttribute(
        traffic::Attribute::FlowCount,
        4.0 * static_cast<double>(base.flowCount));
    auto s1 = sample(1000.0, 1000.0);
    s1.profile = shifted;
    m.ingest(s1); // shift #1 opens the window at sample 21
    for (int i = 0; i < 3; ++i) {
        auto s = sample(1000.0, 1000.0);
        s.profile = shifted;
        m.ingest(s);
    }
    auto shifted2 = shifted.withAttribute(
        traffic::Attribute::FlowCount,
        4.0 * static_cast<double>(shifted.flowCount));
    auto s2 = sample(1000.0, 1000.0);
    s2.profile = shifted2;
    m.ingest(s2); // shift #2 at sample 25 restarts the span
    for (int i = 0; i < 20; ++i) {
        auto s = sample(1000.0, 1000.0);
        s.profile = shifted2;
        m.ingest(s);
    }
    auto sum = m.summary();
    EXPECT_EQ(sum.eventCounts[static_cast<int>(
                  MonitorEventKind::TrafficShift)],
              2u);
    ASSERT_EQ(sum.recoveries, 1u);
    // Span counts from shift #2 (sample 25), not shift #1: 8 stable
    // samples after it.
    EXPECT_EQ(sum.maxRecoverySamples, 8u);
    EXPECT_FALSE(sum.recoveryOpen);
}

TEST(Recovery, OpenWindowSurvivesSerializeRestore)
{
    // Crash-resume faithfulness: a monitor checkpointed mid-window
    // must fire the same recovery at the same sample after restore.
    auto drive = [](PredictionMonitor &m, int from, int to) {
        auto base = traffic::TrafficProfile::defaults();
        auto shifted = base.withAttribute(
            traffic::Attribute::FlowCount,
            4.0 * static_cast<double>(base.flowCount));
        for (int i = from; i < to; ++i) {
            auto s = sample(1000.0, 1000.0);
            s.profile = i >= 20 ? shifted : base;
            m.ingest(s);
        }
    };
    PredictionMonitor full;
    drive(full, 0, 40);

    PredictionMonitor first;
    drive(first, 0, 22); // window opened at 21, still open
    std::ostringstream saved;
    first.serialize(saved);
    PredictionMonitor second;
    std::istringstream in(saved.str());
    ASSERT_TRUE(second.restore(in).isOk());
    EXPECT_TRUE(second.summary().recoveryOpen);
    drive(second, 22, 40);

    std::ostringstream a, b;
    full.exportJsonl(a);
    second.exportJsonl(b);
    EXPECT_EQ(a.str(), b.str());
}

TEST(MonitorState, HostileEventCountIsCorruptData)
{
    // A checksummed checkpoint can carry any body. A huge declared
    // event count (under the samples * kinds bound) must come back
    // as CorruptData, not as an exception out of a Status API.
    PredictionMonitor fresh;
    std::ostringstream saved;
    fresh.serialize(saved);
    std::string body = saved.str();
    const std::string huge = "100000000000000000";
    auto swap = [&](const std::string &from, const std::string &to) {
        auto at = body.find(from);
        ASSERT_NE(at, std::string::npos) << from;
        body.replace(at, from.size(), to);
    };
    swap("counts 0 ", "counts " + huge + " ");
    swap("events 0", "events " + huge);

    PredictionMonitor m;
    std::istringstream in(body);
    Status st;
    EXPECT_NO_THROW(st = m.restore(in));
    EXPECT_EQ(st.code(), StatusCode::CorruptData) << st.toString();
    EXPECT_NE(st.message().find("event section"), std::string::npos)
        << st.toString();
    std::ostringstream after;
    m.serialize(after);
    EXPECT_EQ(after.str(), saved.str()) << "a failed restore changed "
                                           "the monitor";
}

// ---------------------------------------------------------------
// Report renderer
// ---------------------------------------------------------------

TEST(Report, ParsesMetricsSkippingCommentsAndBuckets)
{
    // A value that is not one whole number is not read as its
    // numeric prefix (12) or as 0: the line is skipped and counted.
    std::string body = "# TYPE tomur_x_total counter\n"
                       "tomur_x_total 42\n"
                       "tomur_server_requests_total 12abc\n"
                       "tomur_bogus banana\n"
                       "# TYPE tomur_h histogram\n"
                       "tomur_h_bucket{le=\"1\"} 3\n"
                       "tomur_h_sum 1.5\n"
                       "tomur_h_count 3\n";
    std::size_t skipped = 0;
    auto samples = parseMetricsText(body, &skipped);
    ASSERT_EQ(samples.size(), 3u);
    EXPECT_EQ(samples[0].name, "tomur_x_total");
    EXPECT_DOUBLE_EQ(samples[0].value, 42.0);
    EXPECT_EQ(samples[1].name, "tomur_h_sum");
    EXPECT_EQ(skipped, 2u);

    ReportArtifacts artifacts;
    artifacts.metricsText = body;
    auto text = renderReport(artifacts);
    ASSERT_TRUE(text);
    EXPECT_EQ(text.value().find("tomur_bogus"), std::string::npos);
    EXPECT_EQ(text.value().find("tomur_server_requests_total"),
              std::string::npos);
    EXPECT_NE(text.value().find("Metrics (3 series)"), std::string::npos);
    EXPECT_NE(text.value().find("Lines skipped"), std::string::npos);
}

TEST(Report, AggregatesTraceByName)
{
    std::string body =
        "{\"type\":\"span\",\"id\":1,\"parent\":0,\"name\":\"a\","
        "\"start_ns\":0,\"dur_ns\":1000000}\n"
        "{\"type\":\"span\",\"id\":2,\"parent\":1,\"name\":\"a\","
        "\"start_ns\":0,\"dur_ns\":2000000}\n"
        "{\"type\":\"event\",\"parent\":1,\"name\":\"b\"}\n";
    auto stats = parseTraceJsonl(body);
    ASSERT_EQ(stats.size(), 2u);
    EXPECT_EQ(stats[0].name, "a");
    EXPECT_EQ(stats[0].count, 2u);
    EXPECT_EQ(stats[0].totalDurNs, 3000000u);
    EXPECT_EQ(stats[1].name, "b");
}

TEST(Report, DigestsMonitorStream)
{
    std::string body =
        "{\"event\":\"DRIFT_DETECTED\",\"sample\":12}\n"
        "{\"event\":\"TRAFFIC_SHIFT\",\"sample\":20}\n"
        "{\"summary\":{\"samples\":40}}\n";
    auto d = parseMonitorJsonl(body);
    EXPECT_EQ(d.eventCounts[0], 1u); // drift
    EXPECT_EQ(d.eventCounts[2], 1u); // traffic shift
    EXPECT_EQ(d.lastEvents.size(), 2u);
    EXPECT_EQ(d.summaryLine.find("{\"summary\":"), 0u);
}

TEST(Report, RendersTextAndHtml)
{
    ReportArtifacts artifacts;
    artifacts.monitorJsonl =
        "{\"event\":\"DRIFT_DETECTED\",\"sample\":12,"
        "\"deployment\":\"x<y\"}\n"
        "{\"summary\":{\"samples\":40}}\n";
    auto text = renderReport(artifacts);
    ASSERT_TRUE(text);
    EXPECT_NE(text.value().find("DRIFT_DETECTED"),
              std::string::npos);

    ReportOptions opts;
    opts.html = true;
    auto html = renderReport(artifacts, opts);
    ASSERT_TRUE(html);
    EXPECT_EQ(html.value().find("<!DOCTYPE html>"), 0u);
    // Raw event lines are HTML-escaped.
    EXPECT_NE(html.value().find("x&lt;y"), std::string::npos);
    EXPECT_EQ(html.value().find("x<y"), std::string::npos);
}

TEST(Report, SkippedLinesAreCounted)
{
    // A span line with a repeated key (as trace files from before the
    // `request_id` rename wrote), a torn line and a blank line: the
    // first two are skipped and counted, the blank one is neither.
    ReportArtifacts artifacts;
    artifacts.traceJsonl =
        "{\"name\":\"server.request\",\"id\":1,\"dur_ns\":5,"
        "\"id\":\"c1-r1\"}\n"
        "{\"name\":\"serve.predict\",\"id\":2,\"dur_ns\":7}\n"
        "\n"
        "{\"name\":\"serve.pre";
    EXPECT_EQ(parseTraceJsonl(artifacts.traceJsonl).size(), 1u);
    ReportOptions opts;
    opts.html = true;
    auto html = renderReport(artifacts, opts);
    ASSERT_TRUE(html);
    EXPECT_NE(html.value().find("Lines skipped"), std::string::npos);
    EXPECT_NE(html.value().find("<td>trace</td><td>2</td>"),
              std::string::npos)
        << html.value();
    auto text = renderReport(artifacts);
    ASSERT_TRUE(text);
    EXPECT_NE(text.value().find("Lines skipped"), std::string::npos);

    // Clean artifacts get no such section.
    artifacts.traceJsonl =
        "{\"name\":\"serve.predict\",\"id\":2,\"dur_ns\":7}\n";
    EXPECT_EQ(renderReport(artifacts).value().find("Lines skipped"),
              std::string::npos);
}

TEST(Report, AllArtifactsEmptyIsAnError)
{
    auto r = renderReport(ReportArtifacts{});
    ASSERT_FALSE(r);
    EXPECT_EQ(r.status().code(), StatusCode::InvalidArgument);
}

// ---------------------------------------------------------------
// Golden end-to-end replay
// ---------------------------------------------------------------

#ifndef TOMUR_GOLDEN_DIR
#define TOMUR_GOLDEN_DIR "tests/golden"
#endif

std::string
goldenPath(const std::string &file)
{
    return std::string(TOMUR_GOLDEN_DIR) + "/" + file;
}

std::string
readFileOrEmpty(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Compare against (or, with TOMUR_UPDATE_GOLDENS=1, rewrite) one
 *  golden fixture. */
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
    std::string expected = readFileOrEmpty(path);
    ASSERT_FALSE(expected.empty())
        << path << " is missing; regenerate with "
        << "tools/update_goldens.sh";
    EXPECT_EQ(expected, actual)
        << "golden mismatch for " << file
        << "; if the change is intentional, regenerate with "
        << "tools/update_goldens.sh and review the diff";
}

/**
 * The fixed golden scenario: train FlowMonitor on the (fault-free)
 * testbed, then replay a schedule that exercises every event kind —
 * a stationary phase, a 4x flow-count shift, and a deterministic
 * 0.75x measurement bias switched on mid-stream. Training, the
 * replay's measurements, and the monitor fold are all deterministic
 * under the PR-2 width contracts, so the exported event stream is
 * byte-identical at any TOMUR_THREADS.
 */
std::string
runGoldenReplay()
{
    core::Lab lab;

    auto defaults = traffic::TrafficProfile::defaults();
    auto nf = nfs::makeByName("FlowMonitor", lab.dev);
    core::TrainOptions topts;
    topts.adaptive.quota = 60;
    auto model = lab.trainer->train(*nf, defaults, topts);

    // Reference contention: the heaviest large-WSS mem-bench plus a
    // moderate regex bench (FlowMonitor's accelerator).
    auto ref = lab.lib->referenceContention(
        lab.trainer->workloadOf(*nf, defaults));

    core::ReplayContext ctx;
    ctx.trainer = lab.trainer.get();
    ctx.model = &model;
    ctx.nf = nf.get();
    ctx.levels = ref.levels;
    ctx.competitors = ref.workloads;
    ctx.soloBed = &lab.bed;
    ctx.measureBed = &lab.faulty;
    ctx.label = "FlowMonitor";

    auto shifted = defaults.withAttribute(
        traffic::Attribute::FlowCount,
        4.0 * static_cast<double>(defaults.flowCount));
    std::vector<core::ScheduleStep> schedule = {{defaults, 30},
                                                {shifted, 30}};
    core::ReplayOptions ropts;
    ropts.biasAtSample = 45;
    ropts.biasFactor = 0.75;

    // A plain monitored replay is the autopilot with a retry budget
    // of 0 and no checkpoint store: the supervisor never acts.
    core::PredictionMonitor monitor;
    core::SupervisorOptions sopts;
    sopts.maxRecalibrations = 0;
    core::Supervisor supervisor(sopts);
    core::AutopilotOptions aopts;
    aopts.replay = ropts;
    auto res = core::runAutopilot(ctx, schedule, monitor, supervisor,
                                  nullptr, aopts);
    EXPECT_TRUE(res) << res.status().toString();
    EXPECT_TRUE(supervisor.events().empty());

    std::ostringstream out;
    monitor.exportJsonl(out);
    return out.str();
}

TEST(MonitorGolden, SerialReplayMatchesFixture)
{
    PoolWidth width(1);
    auto events = runGoldenReplay();
    // The scenario must actually exercise the detectors.
    EXPECT_NE(events.find("TRAFFIC_SHIFT"), std::string::npos);
    EXPECT_NE(events.find("DRIFT_DETECTED"), std::string::npos);
    checkGolden("monitor_events.jsonl", events);
}

TEST(MonitorGolden, WideReplayIsByteIdenticalToFixture)
{
    PoolWidth width(8);
    auto events = runGoldenReplay();
    if (std::getenv("TOMUR_UPDATE_GOLDENS")) {
        // The fixture is written by the serial test; here we only
        // verify the wide run reproduces it.
        std::string serial_events;
        {
            PoolWidth serial(1);
            serial_events = runGoldenReplay();
        }
        EXPECT_EQ(serial_events, events);
        return;
    }
    checkGolden("monitor_events.jsonl", events);
}

// ---------------------------------------------------------------
// Report digests over the committed goldens
// ---------------------------------------------------------------

/** The lines of one `{"golden_section":"<name>"}` section of a
 *  multi-section fixture (serve_observatory.jsonl). */
std::string
goldenSection(const std::string &file, const std::string &name)
{
    std::istringstream in(readFileOrEmpty(goldenPath(file)));
    const std::string marker = "{\"golden_section\":";
    std::string line, out;
    bool inside = false;
    while (std::getline(in, line)) {
        if (line.rfind(marker, 0) == 0) {
            inside = line == marker + "\"" + name + "\"}";
            continue;
        }
        if (inside)
            out += line + "\n";
    }
    return out;
}

/** The first line of `body` that starts with `prefix`. */
std::string
lineStartingWith(const std::string &body, const std::string &prefix)
{
    std::istringstream in(body);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(prefix, 0) == 0)
            return line;
    }
    return "";
}

/** Occurrences of `needle` in `body`. */
std::size_t
countOf(const std::string &body, const std::string &needle)
{
    std::size_t n = 0;
    for (auto at = body.find(needle); at != std::string::npos;
         at = body.find(needle, at + needle.size()))
        ++n;
    return n;
}

const char *const kMonitorKinds[5] = {
    "DRIFT_DETECTED", "ACCURACY_DEGRADED", "TRAFFIC_SHIFT",
    "RECALIBRATION_RECOMMENDED", "ACCURACY_RECOVERED"};

const char *const kSupervisorKinds[9] = {
    "RECALIBRATION_STARTED", "RECALIBRATION_SUCCEEDED",
    "RECALIBRATION_FAILED",  "BREAKER_OPENED",
    "BREAKER_HALF_OPEN",     "BREAKER_CLOSED",
    "DEADLINE_MISSED",       "RETRY_BUDGET_EXHAUSTED",
    "CHECKPOINT_WRITTEN"};

TEST(ReportGolden, MonitorDigestAgreesWithItsSummary)
{
    auto body = readFileOrEmpty(goldenPath("monitor_events.jsonl"));
    ASSERT_FALSE(body.empty());
    auto d = parseMonitorJsonl(body);
    ASSERT_FALSE(d.summaryLine.empty());
    std::size_t events = 0;
    for (int k = 0; k < 5; ++k) {
        EXPECT_NE(d.summaryLine.find(strf("\"%s\":%zu",
                                          kMonitorKinds[k],
                                          d.eventCounts[k])),
                  std::string::npos)
            << kMonitorKinds[k];
        events += d.eventCounts[k];
    }
    EXPECT_EQ(events, 4u);
    EXPECT_EQ(d.lastEvents.size(), 4u);

    ASSERT_TRUE(d.hasRecovery);
    EXPECT_DOUBLE_EQ(d.recoveryCount, 1.0);
    EXPECT_DOUBLE_EQ(d.recoveryMeanSamples, 4.0);
    EXPECT_DOUBLE_EQ(d.recoveryMaxSamples, 4.0);
    EXPECT_TRUE(d.recoveryOpen);
    EXPECT_NE(d.summaryLine.find("\"recovery\":{\"count\":1,"
                                 "\"mean\":\"4\",\"max\":4,"
                                 "\"open\":1}"),
              std::string::npos);
    EXPECT_FALSE(d.hasSupervisor);
}

TEST(ReportGolden, SupervisorDigestAgreesWithItsSummary)
{
    auto body =
        readFileOrEmpty(goldenPath("autopilot_events.jsonl"));
    ASSERT_FALSE(body.empty());
    auto d = parseMonitorJsonl(body);
    ASSERT_TRUE(d.hasSupervisor);
    ASSERT_FALSE(d.supervisorSummaryLine.empty());
    for (int k = 0; k < 9; ++k) {
        EXPECT_NE(d.supervisorSummaryLine.find(
                      strf("\"%s\":%zu", kSupervisorKinds[k],
                           d.supervisorEventCounts[k])),
                  std::string::npos)
            << kSupervisorKinds[k];
    }
    EXPECT_EQ(d.supervisorEventCounts[8], 5u); // CHECKPOINT_WRITTEN
    EXPECT_EQ(d.supervisorEventCounts[0], 1u); // RECALIBRATION_STARTED
    EXPECT_DOUBLE_EQ(d.deadlineMisses, 0.0);
    EXPECT_NE(d.supervisorSummaryLine.find("\"deadline_misses\":0"),
              std::string::npos);
    // The monitor half of the same stream agrees with its trailer.
    for (int k = 0; k < 5; ++k) {
        EXPECT_NE(d.summaryLine.find(strf("\"%s\":%zu",
                                          kMonitorKinds[k],
                                          d.eventCounts[k])),
                  std::string::npos)
            << kMonitorKinds[k];
    }
    ASSERT_TRUE(d.hasRecovery);
    EXPECT_DOUBLE_EQ(d.recoveryCount, 0.0);
    EXPECT_TRUE(d.recoveryOpen);
}

TEST(ReportGolden, ChaosDigestAgreesWithItsSummary)
{
    auto body =
        readFileOrEmpty(goldenPath("chaos_campaign.jsonl"));
    ASSERT_FALSE(body.empty());
    auto summary = lineStartingWith(body, "{\"chaos_summary\":");
    ASSERT_FALSE(summary.empty());
    auto d = parseChaosJsonl(body);
    ASSERT_TRUE(d.hasSummary);
    EXPECT_EQ(d.plans, 30u);
    EXPECT_NE(summary.find(strf("\"plans\":%zu", d.plans)),
              std::string::npos);
    EXPECT_NE(summary.find(strf("\"violations\":%zu", d.violations)),
              std::string::npos);
    EXPECT_NE(summary.find(strf("\"violating_plans\":%zu",
                                d.violatingPlans)),
              std::string::npos);
    EXPECT_NE(summary.find(strf("\"crashes\":%.0f", d.crashes)),
              std::string::npos);
    EXPECT_NE(summary.find(strf("\"resumes\":%.0f", d.resumes)),
              std::string::npos);
    EXPECT_NE(summary.find(strf("\"faults_injected\":%.0f",
                                d.faultsInjected)),
              std::string::npos);
    EXPECT_NE(summary.find(strf("\"determinism_reruns\":%.0f",
                                d.determinismReruns)),
              std::string::npos);
    EXPECT_NE(summary.find(strf("\"shrink_iterations\":%.0f",
                                d.shrinkIterations)),
              std::string::npos);
    EXPECT_DOUBLE_EQ(d.crashes, 4.0);
    EXPECT_DOUBLE_EQ(d.faultsInjected, 180.0);

    ASSERT_EQ(d.invariants.size(), 5u);
    for (const auto &row : d.invariants) {
        EXPECT_EQ(row.passes + row.failures, d.plans) << row.name;
        // passes = plans - chaos_summary.failures[name]
        EXPECT_NE(summary.find(strf("\"%s\":%zu", row.name.c_str(),
                                    d.plans - row.passes)),
                  std::string::npos)
            << row.name;
    }
    EXPECT_EQ(d.invariants[0].name, "no_hang");
    EXPECT_EQ(d.invariants[4].name, "determinism");
}

TEST(ReportGolden, SloDigestAgreesWithItsSummary)
{
    auto body = goldenSection("serve_observatory.jsonl", "slo");
    ASSERT_FALSE(body.empty());
    auto summary = lineStartingWith(body, "{\"slo_summary\":");
    ASSERT_FALSE(summary.empty());
    auto d = parseSloJsonl(body);
    ASSERT_TRUE(d.hasSummary);
    ASSERT_EQ(d.objectives.size(), 2u);
    double burns = 0.0, recoveries = 0.0;
    for (const auto &o : d.objectives) {
        EXPECT_DOUBLE_EQ(o.bad, 4.0) << o.name;
        EXPECT_DOUBLE_EQ(o.total, 20.0) << o.name;
        EXPECT_DOUBLE_EQ(o.target, 0.9) << o.name;
        EXPECT_DOUBLE_EQ(o.slowBurn, 1.25) << o.name;
        EXPECT_DOUBLE_EQ(o.budgetRemaining, -0.25) << o.name;
        EXPECT_FALSE(o.burning) << o.name;
        burns += o.burnEvents;
        recoveries += o.recoveredEvents;
    }
    EXPECT_EQ(d.objectives[0].name, "golden_availability");
    EXPECT_EQ(d.objectives[0].kind, "availability");
    EXPECT_EQ(d.objectives[1].name, "golden_deadline");
    EXPECT_EQ(d.objectives[1].kind, "latency");
    // Event lines agree with the per-objective trailer counters and
    // with the trailer's event total.
    EXPECT_DOUBLE_EQ(burns, static_cast<double>(d.burnEvents));
    EXPECT_DOUBLE_EQ(recoveries,
                     static_cast<double>(d.recoveredEvents));
    EXPECT_NE(summary.find(strf("\"events\":%zu",
                                d.burnEvents + d.recoveredEvents)),
              std::string::npos);
    EXPECT_EQ(d.lastEvents.size(), 2u);
    EXPECT_DOUBLE_EQ(d.eventsDropped, 0.0);
}

TEST(ReportGolden, AccessDigestAgreesWithItsRecords)
{
    auto body = goldenSection("serve_observatory.jsonl", "access");
    ASSERT_FALSE(body.empty());
    auto d = parseAccessJsonl(body);
    EXPECT_EQ(d.records, countOf(body, "\n"));
    std::size_t verdicts = 0;
    for (int k = 0; k < 7; ++k) {
        EXPECT_EQ(d.verdictCounts[k],
                  countOf(body, strf("\"verdict\":\"%s\"",
                                     kVerdictNames[k])))
            << kVerdictNames[k];
        EXPECT_GT(d.verdictCounts[k], 0u) << kVerdictNames[k];
        verdicts += d.verdictCounts[k];
    }
    EXPECT_EQ(verdicts, d.records);
    EXPECT_EQ(d.statusClass[0], countOf(body, "\"status\":0,"));
    for (int cls = 1; cls <= 5; ++cls) {
        EXPECT_EQ(d.statusClass[cls],
                  countOf(body, strf("\"status\":%d", cls)))
            << cls << "xx";
    }
    EXPECT_EQ(d.deadlineMisses,
              countOf(body, "\"deadline_miss\":true"));
}

TEST(ReportGolden, RendersAllSixArtifactsInBothForms)
{
    ReportArtifacts artifacts;
    artifacts.metricsText = readFileOrEmpty(goldenPath("metrics.txt"));
    artifacts.traceJsonl =
        readFileOrEmpty(goldenPath("trace_canonical.jsonl"));
    artifacts.monitorJsonl =
        readFileOrEmpty(goldenPath("autopilot_events.jsonl"));
    artifacts.sloJsonl =
        goldenSection("serve_observatory.jsonl", "slo");
    artifacts.accessJsonl =
        goldenSection("serve_observatory.jsonl", "access");
    artifacts.chaosJsonl =
        readFileOrEmpty(goldenPath("chaos_campaign.jsonl"));
    auto text = renderReport(artifacts);
    ASSERT_TRUE(text);
    ReportOptions opts;
    opts.html = true;
    auto html = renderReport(artifacts, opts);
    ASSERT_TRUE(html);
    EXPECT_EQ(html.value().find("<!DOCTYPE html>"), 0u);
    for (const char *token :
         {"Monitor events", "Supervisor events", "SLO objectives",
          "Access log", "Chaos campaign", "Trace spans", "Metrics",
          "DRIFT_DETECTED", "CHECKPOINT_WRITTEN", "golden_availability",
          "golden_deadline", "SLO_BURN", "2xx", "5xx", "throttled",
          "no_hang", "graceful_degradation", "ml.gbr.fit",
          "golden.scenario", "tomur_cache_hits_total"}) {
        EXPECT_NE(text.value().find(token), std::string::npos)
            << "text lacks " << token;
        EXPECT_NE(html.value().find(token), std::string::npos)
            << "html lacks " << token;
    }
}

TEST(ReportGolden, EveryArtifactLineIsStrictJson)
{
    // Every stream the program writes must read back through the one
    // strict reader, or the report would silently skip its lines.
    for (const char *file :
         {"autopilot_events.jsonl", "chaos_campaign.jsonl",
          "monitor_events.jsonl", "replay_events.jsonl",
          "serve_observatory.jsonl", "trace_canonical.jsonl"}) {
        std::istringstream in(readFileOrEmpty(goldenPath(file)));
        std::string line;
        std::size_t lines = 0;
        while (std::getline(in, line)) {
            ++lines;
            auto doc = parseJson(line);
            ASSERT_TRUE(doc) << file << ": " << doc.status().toString()
                             << "\n" << line;
            EXPECT_TRUE(doc.value().isObject()) << file << ": " << line;
        }
        EXPECT_GT(lines, 0u) << file;
    }
}

TEST(Report, TextAndHtmlShowTheSameRows)
{
    ReportArtifacts artifacts;
    artifacts.sloJsonl =
        goldenSection("serve_observatory.jsonl", "slo");
    artifacts.accessJsonl =
        "{\"id\":\"c1-r1\",\"status\":200,\"verdict\":\"ok\","
        "\"deadline_miss\":false,\"handle_ms\":1.5}\n"
        "{\"id\":\"c1-r2\",\"status\":503,\"verdict\":\"shed\","
        "\"deadline_miss\":false,\"handle_ms\":0.5}\n";
    artifacts.chaosJsonl =
        readFileOrEmpty(goldenPath("chaos_campaign.jsonl"));
    artifacts.monitorJsonl =
        readFileOrEmpty(goldenPath("replay_events.jsonl"));
    auto text = renderReport(artifacts);
    ReportOptions opts;
    opts.html = true;
    auto html = renderReport(artifacts, opts);
    ASSERT_TRUE(text);
    ASSERT_TRUE(html);
    // Rows once shown by one form only now appear in both.
    for (const char *row : {"mean handle ms", "events dropped",
                            "crashes injected", "open regime"}) {
        EXPECT_NE(text.value().find(row), std::string::npos) << row;
        EXPECT_NE(html.value().find(row), std::string::npos) << row;
    }
    EXPECT_NE(text.value().find("| mean handle ms "), std::string::npos);
    EXPECT_NE(text.value().find("| 1.000 "), std::string::npos);
    // Every HTML cell is a text cell: one section list, two forms.
    std::size_t cells = 0;
    for (auto at = html.value().find("<td>"); at != std::string::npos;
         at = html.value().find("<td>", at + 1)) {
        auto end = html.value().find("</td>", at);
        ASSERT_NE(end, std::string::npos);
        std::string cell = html.value().substr(at + 4, end - at - 4);
        EXPECT_NE(text.value().find("| " + cell + " "),
                  std::string::npos)
            << cell;
        ++cells;
    }
    EXPECT_GT(cells, 40u);
}

// ---------------------------------------------------------------
// Golden nonstationary scenario replay (through the autopilot)
// ---------------------------------------------------------------

/**
 * The nonstationary golden scenario: a compact synthesized composite
 * (diurnal swing, flash crowd, MTBR spike with steady tails) driven
 * through the supervised autopilot, with the sampling profiler
 * attached — the profiler reads the wall clock but must not be able
 * to perturb the event stream, which this fixture pins together with
 * width invariance.
 */
std::string
runGoldenScenarioReplay()
{
    core::Lab lab;

    auto defaults = traffic::TrafficProfile::defaults();
    auto nf = nfs::makeByName("FlowMonitor", lab.dev);
    core::TrainOptions topts;
    topts.adaptive.quota = 60;
    auto model = lab.trainer->train(*nf, defaults, topts);

    auto ref = lab.lib->referenceContention(
        lab.trainer->workloadOf(*nf, defaults));

    core::ReplayContext ctx;
    ctx.trainer = lab.trainer.get();
    ctx.model = &model;
    ctx.nf = nf.get();
    ctx.levels = ref.levels;
    ctx.competitors = ref.workloads;
    ctx.soloBed = &lab.bed;
    ctx.measureBed = &lab.faulty;
    ctx.label = "FlowMonitor";

    std::vector<traffic::SynthStep> steps;
    auto append = [&](std::vector<traffic::SynthStep> more) {
        steps.insert(steps.end(), more.begin(), more.end());
    };
    append(traffic::steadySteps(defaults, 16));
    traffic::DiurnalOptions diurnal;
    diurnal.base = defaults;
    diurnal.amplitude = 0.85;
    diurnal.period = 12;
    append(traffic::diurnalSteps(diurnal));
    append(traffic::steadySteps(defaults, 8));
    traffic::FlashCrowdOptions flash;
    flash.base = defaults;
    flash.peak = 6.0;
    flash.ramp = 2;
    flash.hold = 4;
    flash.decay = 2;
    append(traffic::flashCrowdSteps(flash));
    append(traffic::steadySteps(defaults, 8));
    traffic::MtbrSpikeOptions spike;
    spike.base = defaults;
    spike.mtbr = 1100.0;
    spike.ramp = 2;
    spike.hold = 4;
    append(traffic::mtbrSpikeSteps(spike));
    append(traffic::steadySteps(defaults, 12));
    auto schedule = core::toSchedule(steps);

    core::PredictionMonitor monitor;
    core::Supervisor supervisor(
        {}, [](std::size_t, std::string *) { return Status::ok(); });
    SamplingProfiler profiler;
    core::AutopilotOptions aopts;
    aopts.profiler = &profiler;
    auto res = core::runAutopilot(ctx, schedule, monitor,
                                  supervisor, nullptr, aopts);
    EXPECT_TRUE(res) << res.status().toString();

    std::ostringstream out;
    monitor.exportJsonl(out);
    supervisor.exportJsonl(out);
    return out.str();
}

TEST(ReplayGolden, SerialScenarioMatchesFixture)
{
    PoolWidth width(1);
    auto events = runGoldenScenarioReplay();
    // The scenario must exercise regime changes AND their recovery.
    EXPECT_NE(events.find("TRAFFIC_SHIFT"), std::string::npos);
    EXPECT_NE(events.find("ACCURACY_RECOVERED"), std::string::npos);
    checkGolden("replay_events.jsonl", events);
}

TEST(ReplayGolden, WideScenarioIsByteIdenticalToFixture)
{
    PoolWidth width(8);
    auto events = runGoldenScenarioReplay();
    if (std::getenv("TOMUR_UPDATE_GOLDENS")) {
        std::string serial_events;
        {
            PoolWidth serial(1);
            serial_events = runGoldenScenarioReplay();
        }
        EXPECT_EQ(serial_events, events);
        return;
    }
    checkGolden("replay_events.jsonl", events);
}

} // namespace
} // namespace tomur
