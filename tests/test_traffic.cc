/**
 * @file
 * Tests for traffic profiles and the packet generator, including the
 * MTBR-targeting property (generated payload match density tracks
 * the configured matches/MB), plus the nonstationary scenario
 * synthesizer: generator shapes, the scenario DSL's all-or-nothing
 * parsing, the parse -> emit -> parse round-trip property, and
 * seeded fuzz over hostile scripts.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>
#include <string>

#include "common/rng.hh"
#include "common/strutil.hh"
#include "regex/ruleset.hh"
#include "traffic/generator.hh"
#include "traffic/synth.hh"

namespace tomur::traffic {
namespace {

using namespace std::string_literals;

TEST(Profile, VectorRoundTrip)
{
    TrafficProfile p = TrafficProfile::defaults();
    auto v = p.toVector();
    ASSERT_EQ(v.size(), 3u);
    EXPECT_DOUBLE_EQ(v[0], 16000.0);
    EXPECT_DOUBLE_EQ(v[1], 1500.0);
    EXPECT_DOUBLE_EQ(v[2], 600.0);
    EXPECT_EQ(p.toString(), "(16000, 1500, 600)");
}

TEST(Profile, WithAttribute)
{
    TrafficProfile p = TrafficProfile::defaults();
    auto q = p.withAttribute(Attribute::FlowCount, 500.5);
    EXPECT_EQ(q.flowCount, 501u); // rounded
    EXPECT_EQ(q.packetSize, p.packetSize);
    auto r = p.withAttribute(Attribute::Mtbr, -5.0);
    EXPECT_DOUBLE_EQ(r.mtbr, 0.0); // clamped
    auto s = p.withAttribute(Attribute::PacketSize, 10.0);
    EXPECT_EQ(s.packetSize, 64u); // floor at minimum frame
}

TEST(Profile, Ranges)
{
    for (int a = 0; a < numAttributes; ++a) {
        auto r = defaultRange(static_cast<Attribute>(a));
        EXPECT_LT(r.min, r.max);
    }
}

TEST(Generator, FlowCountRespected)
{
    TrafficProfile p;
    p.flowCount = 10;
    p.mtbr = 0;
    TrafficGen gen(p, nullptr, 1);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 400; ++i) {
        auto pkt = gen.next();
        auto tuple = pkt.fiveTuple();
        ASSERT_TRUE(tuple);
        seen.insert(tuple->hash());
    }
    EXPECT_EQ(seen.size(), 10u);
}

TEST(Generator, DeterministicAcrossInstances)
{
    TrafficProfile p;
    p.flowCount = 100;
    p.mtbr = 0;
    TrafficGen a(p, nullptr, 7), b(p, nullptr, 7);
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(a.next().bytes(), b.next().bytes());
}

TEST(Generator, FrameSizeMatchesProfile)
{
    TrafficProfile p;
    p.packetSize = 512;
    p.mtbr = 0;
    TrafficGen gen(p, nullptr, 2);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(gen.next().size(), 512u);
}

TEST(Generator, MtbrTargetingProperty)
{
    // Property: measured match density tracks the configured MTBR
    // within a factor accounting for multi-event signatures.
    auto rules = regex::defaultRuleSet();
    regex::MultiMatcher matcher(rules);
    for (double target : {100.0, 600.0, 1200.0}) {
        TrafficProfile p;
        p.mtbr = target;
        TrafficGen gen(p, &rules, 3);
        double bytes = 0.0, matches = 0.0;
        for (int i = 0; i < 150; ++i) {
            auto payload = gen.makePayload();
            bytes += static_cast<double>(payload.size());
            matches +=
                static_cast<double>(matcher.scan(payload).count);
        }
        double measured = matches / bytes * 1e6;
        EXPECT_GT(measured, 0.8 * target) << "target " << target;
        EXPECT_LT(measured, 6.0 * target) << "target " << target;
    }
}

TEST(Generator, MtbrMonotone)
{
    auto rules = regex::defaultRuleSet();
    regex::MultiMatcher matcher(rules);
    double prev = -1.0;
    for (double target : {0.0, 200.0, 800.0}) {
        TrafficProfile p;
        p.mtbr = target;
        TrafficGen gen(p, &rules, 5);
        double matches = 0.0;
        for (int i = 0; i < 100; ++i)
            matches += static_cast<double>(
                matcher.scan(gen.makePayload()).count);
        EXPECT_GT(matches, prev);
        prev = matches;
    }
}

TEST(Generator, ZeroMtbrHasNoMatches)
{
    auto rules = regex::defaultRuleSet();
    regex::MultiMatcher matcher(rules);
    TrafficProfile p;
    p.mtbr = 0;
    TrafficGen gen(p, &rules, 9);
    std::uint64_t total = 0;
    for (int i = 0; i < 50; ++i)
        total += matcher.scan(gen.makePayload()).count;
    EXPECT_EQ(total, 0u);
}

TEST(Generator, RequiresRulesetForMtbr)
{
    TrafficProfile p;
    p.mtbr = 500;
    EXPECT_DEATH(TrafficGen(p, nullptr, 1), "ruleset");
}

TEST(Generator, FlowTuplesStable)
{
    TrafficProfile p;
    p.mtbr = 0;
    TrafficGen a(p, nullptr, 1), b(p, nullptr, 99);
    // flowTuple() is seed-independent: profiles share flow identity.
    for (std::uint64_t i = 0; i < 20; ++i)
        EXPECT_EQ(a.flowTuple(i), b.flowTuple(i));
}

// ---------------------------------------------------------------
// Nonstationary scenario synthesis
// ---------------------------------------------------------------

/** Every compiled step must satisfy the parser/clamp invariants no
 *  matter which generator or script produced it. */
void
expectSynthInvariants(const std::vector<SynthStep> &steps,
                      const std::string &context)
{
    for (const auto &s : steps) {
        EXPECT_GE(s.repeats, 1) << context;
        EXPECT_LE(s.repeats, 1000000) << context;
        EXPECT_GE(s.profile.flowCount, 1u) << context;
        EXPECT_LE(s.profile.flowCount, 1000000000u) << context;
        EXPECT_GE(s.profile.packetSize, 64u) << context;
        EXPECT_LE(s.profile.packetSize, 1000000u) << context;
        EXPECT_TRUE(std::isfinite(s.profile.mtbr)) << context;
        EXPECT_GE(s.profile.mtbr, 0.0) << context;
    }
    EXPECT_LE(steps.size(), std::size_t(100000)) << context;
}

TEST(Synth, DiurnalSweepsAroundBase)
{
    DiurnalOptions o;
    o.base = TrafficProfile::defaults();
    o.amplitude = 0.5;
    o.period = 8;
    o.cycles = 2;
    auto steps = diurnalSteps(o);
    ASSERT_EQ(steps.size(), 16u);
    // Step 0 starts at base, the quarter-period step crests at
    // base * (1 + amplitude), the three-quarter step troughs.
    EXPECT_EQ(steps[0].profile.flowCount, o.base.flowCount);
    EXPECT_EQ(steps[2].profile.flowCount,
              static_cast<std::uint64_t>(1.5 * 16000));
    EXPECT_EQ(steps[6].profile.flowCount,
              static_cast<std::uint64_t>(0.5 * 16000));
    // Second cycle repeats the first exactly.
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(steps[i].profile, steps[i + 8].profile);
    expectSynthInvariants(steps, "diurnal");
}

TEST(Synth, FlashCrowdRampsHoldsDecays)
{
    FlashCrowdOptions o;
    o.base = TrafficProfile::defaults();
    o.peak = 4.0;
    o.ramp = 2;
    o.hold = 3;
    o.decay = 2;
    auto steps = flashCrowdSteps(o);
    ASSERT_EQ(steps.size(), 7u);
    EXPECT_LT(steps[0].profile.flowCount,
              steps[1].profile.flowCount);
    for (int i = 1; i <= 4; ++i) {
        EXPECT_EQ(steps[i].profile.flowCount,
                  4 * o.base.flowCount);
    }
    // Decay ends exactly back at base.
    EXPECT_EQ(steps.back().profile.flowCount, o.base.flowCount);
    expectSynthInvariants(steps, "flash");
}

TEST(Synth, FlowChurnSweepsInclusive)
{
    FlowChurnOptions o;
    o.base = TrafficProfile::defaults();
    o.fromFlows = 4000.0;
    o.toFlows = 256000.0;
    o.steps = 8;
    auto steps = flowChurnSteps(o);
    ASSERT_EQ(steps.size(), 8u);
    EXPECT_EQ(steps.front().profile.flowCount, 4000u);
    EXPECT_EQ(steps.back().profile.flowCount, 256000u);
    for (std::size_t i = 1; i < steps.size(); ++i) {
        EXPECT_GT(steps[i].profile.flowCount,
                  steps[i - 1].profile.flowCount);
    }
    expectSynthInvariants(steps, "churn");
}

TEST(Synth, MtbrSpikeIsSymmetric)
{
    MtbrSpikeOptions o;
    o.base = TrafficProfile::defaults();
    o.mtbr = 1100.0;
    o.ramp = 2;
    o.hold = 3;
    auto steps = mtbrSpikeSteps(o);
    ASSERT_EQ(steps.size(), 7u);
    for (int i = 1; i <= 4; ++i)
        EXPECT_DOUBLE_EQ(steps[i].profile.mtbr, 1100.0);
    EXPECT_DOUBLE_EQ(steps.back().profile.mtbr, o.base.mtbr);
    // Only the MTBR moves; flows and size stay at base.
    for (const auto &s : steps) {
        EXPECT_EQ(s.profile.flowCount, o.base.flowCount);
        EXPECT_EQ(s.profile.packetSize, o.base.packetSize);
    }
    expectSynthInvariants(steps, "mtbr_spike");
}

TEST(Synth, ScenarioSamplesSumsRepeats)
{
    std::vector<SynthStep> steps = {
        {TrafficProfile::defaults(), 3},
        {TrafficProfile::defaults(), 7}};
    EXPECT_EQ(scenarioSamples(steps), 10u);
    auto composite = defaultComposite(TrafficProfile::defaults());
    EXPECT_GT(scenarioSamples(composite), 100u);
    // The composite opens and closes at the base regime.
    EXPECT_EQ(composite.front().profile,
              TrafficProfile::defaults());
    EXPECT_EQ(composite.back().profile,
              TrafficProfile::defaults());
    expectSynthInvariants(composite, "composite");
}

// ---------------------------------------------------------------
// Scenario DSL
// ---------------------------------------------------------------

Result<std::vector<SynthStep>>
parseText(const std::string &text)
{
    std::istringstream in(text);
    return parseScenario(in);
}

TEST(ScenarioDsl, ParsesEveryDirective)
{
    auto parsed = parseText(
        "# composite stress script\n"
        "base flows=8000 size=512 mtbr=300\n"
        "steady n=5\n"
        "diurnal period=8 cycles=2 amplitude=0.5\n"
        "flash peak=4 ramp=2 hold=3 decay=2\n"
        "churn from=4000 to=64000 steps=8\n"
        "mtbr_spike mtbr=900 ramp=2 hold=3\n"
        "step flows=123 size=128 mtbr=50 repeats=9\n");
    ASSERT_TRUE(parsed) << parsed.status().toString();
    const auto &steps = parsed.value();
    // 1 steady + 16 diurnal + 7 flash + 8 churn + 7 spike + 1 step
    ASSERT_EQ(steps.size(), 40u);
    EXPECT_EQ(steps[0].profile.flowCount, 8000u);
    EXPECT_EQ(steps[0].profile.packetSize, 512u);
    EXPECT_EQ(steps[0].repeats, 5);
    EXPECT_EQ(steps.back().profile.flowCount, 123u);
    EXPECT_EQ(steps.back().repeats, 9);
    expectSynthInvariants(steps, "every-directive");
}

TEST(ScenarioDsl, DirectiveDefaultsApply)
{
    auto parsed = parseText("steady\n");
    ASSERT_TRUE(parsed) << parsed.status().toString();
    ASSERT_EQ(parsed.value().size(), 1u);
    EXPECT_EQ(parsed.value()[0].repeats, 20); // steady default n
    EXPECT_EQ(parsed.value()[0].profile,
              TrafficProfile::defaults());
}

TEST(ScenarioDsl, RejectsMalformedScripts)
{
    const char *bad[] = {
        "",                            // no steps at all
        "base flows=8000\n",           // base alone emits nothing
        "wobble n=5\n",                // unknown directive
        "steady n=5 bogus=1\n",        // unknown key
        "steady n=5 n=6\n",            // duplicate key
        "steady n=abc\n",              // non-numeric value
        "steady n=inf\n",              // non-finite value
        "steady n=0\n",                // below range
        "steady n=2.5\n",              // non-integer count
        "diurnal amplitude=1.5\n",     // amplitude cap
        "diurnal period=1\n",          // degenerate period
        "flash peak=0.5\n",            // peak below base
        "churn from=0\n",              // zero flows
        "step flows=2e9\n",            // flows cap
        "step mtbr=-1\n",              // negative mtbr
        "steady =5\n",                 // empty key
        "steady 5\n",                  // bare token, no key=
    };
    for (const char *script : bad) {
        auto parsed = parseText(script);
        EXPECT_FALSE(parsed) << "accepted: " << script;
    }
}

TEST(ScenarioDsl, EnforcesWholeScenarioStepBudget)
{
    // Each churn lands 4096 steps; 25 of them blow the 100000-step
    // budget even though every line is individually valid.
    std::string script;
    for (int i = 0; i < 25; ++i)
        script += "churn from=1000 to=2000 steps=4096\n";
    auto parsed = parseText(script);
    ASSERT_FALSE(parsed);
    EXPECT_NE(parsed.status().toString().find("exceeds"),
              std::string::npos);
}

TEST(ScenarioDsl, EmitRoundTripsGeneratedScenarios)
{
    // Property: parse -> emit -> parse is the identity, across
    // randomized in-range scripts from every directive family.
    Rng rng(20260808);
    for (int iter = 0; iter < 200; ++iter) {
        std::string script = strf(
            "base flows=%llu size=%llu mtbr=%llu\n",
            (unsigned long long)(1 + rng.uniformInt(
                                         std::uint64_t(999999))),
            (unsigned long long)(64 + rng.uniformInt(
                                          std::uint64_t(9000))),
            (unsigned long long)rng.uniformInt(
                std::uint64_t(2000)));
        int directives =
            1 + static_cast<int>(rng.uniformInt(std::uint64_t(4)));
        for (int d = 0; d < directives; ++d) {
            switch (rng.uniformInt(std::uint64_t(5))) {
              case 0:
                script += strf("steady n=%llu\n",
                               (unsigned long long)(
                                   1 + rng.uniformInt(
                                           std::uint64_t(40))));
                break;
              case 1:
                script += strf(
                    "diurnal period=%llu cycles=%llu "
                    "amplitude=0.%llu\n",
                    (unsigned long long)(2 + rng.uniformInt(
                                                 std::uint64_t(30))),
                    (unsigned long long)(1 + rng.uniformInt(
                                                 std::uint64_t(3))),
                    (unsigned long long)rng.uniformInt(
                        std::uint64_t(99)));
                break;
              case 2:
                script += strf(
                    "flash peak=%llu ramp=%llu hold=%llu "
                    "decay=%llu\n",
                    (unsigned long long)(2 + rng.uniformInt(
                                                 std::uint64_t(9))),
                    (unsigned long long)(1 + rng.uniformInt(
                                                 std::uint64_t(5))),
                    (unsigned long long)(1 + rng.uniformInt(
                                                 std::uint64_t(8))),
                    (unsigned long long)(1 + rng.uniformInt(
                                                 std::uint64_t(5))));
                break;
              case 3:
                script += strf(
                    "churn from=%llu to=%llu steps=%llu\n",
                    (unsigned long long)(1 + rng.uniformInt(
                                                 std::uint64_t(
                                                     99999))),
                    (unsigned long long)(1 + rng.uniformInt(
                                                 std::uint64_t(
                                                     999999))),
                    (unsigned long long)(2 + rng.uniformInt(
                                                 std::uint64_t(
                                                     30))));
                break;
              default:
                script += strf(
                    "mtbr_spike mtbr=%llu ramp=%llu hold=%llu\n",
                    (unsigned long long)rng.uniformInt(
                        std::uint64_t(5000)),
                    (unsigned long long)(1 + rng.uniformInt(
                                                 std::uint64_t(4))),
                    (unsigned long long)(1 + rng.uniformInt(
                                                 std::uint64_t(8))));
                break;
            }
        }
        auto first = parseText(script);
        ASSERT_TRUE(first)
            << script << ": " << first.status().toString();
        std::string canonical = emitScenario(first.value());
        auto second = parseText(canonical);
        ASSERT_TRUE(second)
            << canonical << ": " << second.status().toString();
        ASSERT_EQ(first.value().size(), second.value().size())
            << script;
        for (std::size_t i = 0; i < first.value().size(); ++i) {
            EXPECT_EQ(first.value()[i], second.value()[i])
                << script << " step " << i;
        }
        expectSynthInvariants(first.value(), script);
    }
}

TEST(ScenarioDsl, RandomByteSoupNeverCrashesOrLeaksGarbage)
{
    // Same discipline as the schedule parser's fuzz suite: seeded,
    // deterministic hostile inputs; the property is "no crash, and
    // whatever parses satisfies the range invariants".
    Rng rng(20260807);
    const std::string alphabet =
        "0123456789.-+eE= \t#\n"
        "basestdyflchurnmtbr_spike\\\"\0\x01\x7f"s;
    for (int iter = 0; iter < 500; ++iter) {
        std::string input;
        std::size_t len = rng.uniformInt(std::uint64_t(160));
        for (std::size_t i = 0; i < len; ++i)
            input.push_back(
                alphabet[rng.uniformInt(alphabet.size())]);
        auto parsed = parseText(input);
        if (parsed)
            expectSynthInvariants(parsed.value(), input);
    }
}

TEST(ScenarioDsl, HostileValuesAreRejectedNotAccepted)
{
    // Structured fuzz: valid directive skeletons with mostly-poison
    // values spliced in. Any poisoned line must fail the whole
    // parse (parseScenario is all-or-nothing per script).
    static const char *const poison[] = {
        "nan", "inf", "-inf", "1e999", "1.5.2", "12ab",
        "--5", "+",   ".",    "1e",    "-7",    "\x7f" "7",
        "2,5",
    };
    static const char *const keys[] = {"flows", "size", "mtbr"};
    Rng rng(777);
    for (int iter = 0; iter < 500; ++iter) {
        bool poisoned = false;
        std::string input = "step";
        std::size_t kvs = 1 + rng.uniformInt(std::uint64_t(3));
        for (std::size_t i = 0; i < kvs && i < 3; ++i) {
            input += ' ';
            input += keys[i];
            input += '=';
            if (rng.uniform() < 0.4) {
                input += poison[rng.uniformInt(
                    std::uint64_t(sizeof(poison) /
                                  sizeof(poison[0])))];
                poisoned = true;
            } else {
                input += strf(
                    "%llu",
                    (unsigned long long)(
                        64 + rng.uniformInt(std::uint64_t(9000))));
            }
        }
        input += '\n';
        auto parsed = parseText(input);
        if (poisoned) {
            EXPECT_FALSE(parsed) << "accepted poison: " << input;
        } else {
            EXPECT_TRUE(parsed)
                << input << ": " << parsed.status().toString();
        }
        if (parsed)
            expectSynthInvariants(parsed.value(), input);
    }
}

} // namespace
} // namespace tomur::traffic
