/**
 * @file
 * Tests for the use cases: contention-aware placement and
 * performance diagnosis.
 */

#include <gtest/gtest.h>

#include "nfs/registry.hh"
#include "tomur/lab.hh"
#include "usecases/diagnosis.hh"
#include "usecases/placement.hh"

namespace tomur::usecases {
namespace {

using core::Resource;

using Fixture = core::Lab;

std::vector<Arrival>
makeArrivals(const std::vector<std::string> &names, int count,
             Rng &rng)
{
    std::vector<Arrival> out;
    for (int i = 0; i < count; ++i) {
        Arrival a;
        a.nfName = names[rng.uniformInt(names.size())];
        a.profile = traffic::TrafficProfile::defaults();
        a.slaMaxDrop = rng.uniform(0.05, 0.20);
        out.push_back(std::move(a));
    }
    return out;
}

TEST(Placement, StrategyNames)
{
    EXPECT_STREQ(strategyName(Strategy::Monopolization),
                 "Monopolization");
    EXPECT_STREQ(strategyName(Strategy::Tomur), "Tomur");
}

TEST(Placement, EndToEndComparison)
{
    // Small-scale version of Table 6's qualitative ordering.
    Fixture f;
    std::vector<std::string> mix = {"FlowStats", "IPRouter",
                                    "FlowClassifier", "NIDS"};
    PlacementContext ctx(*f.lib, mix,
                         traffic::TrafficProfile::defaults(), 60);
    Rng rng(11);
    auto arrivals = makeArrivals(mix, 24, rng);

    auto mono = ctx.place(arrivals, Strategy::Monopolization);
    auto greedy = ctx.place(arrivals, Strategy::Greedy);
    auto tomur = ctx.place(arrivals, Strategy::Tomur);
    auto oracle = ctx.place(arrivals, Strategy::Oracle);

    // Monopolization: no violations, maximal NIC usage.
    EXPECT_EQ(mono.slaViolations, 0);
    EXPECT_EQ(mono.nicsUsed, 24);

    // Greedy packs tightly but violates SLAs.
    EXPECT_LT(greedy.nicsUsed, mono.nicsUsed);

    // Oracle is feasible by construction.
    EXPECT_EQ(oracle.slaViolations, 0);

    // Tomur stays close to the oracle in NICs with few violations.
    EXPECT_LE(tomur.slaViolations, greedy.slaViolations);
    EXPECT_LE(tomur.nicsUsed, mono.nicsUsed);
    EXPECT_GE(tomur.nicsUsed, oracle.nicsUsed - 1);

    // Violation-rate helper.
    EXPECT_DOUBLE_EQ(mono.violationRate(), 0.0);
    EXPECT_EQ(tomur.totalNfs, 24);
}

TEST(Placement, UnknownNfIsFatal)
{
    Fixture f;
    PlacementContext ctx(*f.lib, {"FlowStats"},
                         traffic::TrafficProfile::defaults(), 40);
    std::vector<Arrival> arrivals = {
        {"NoSuchNF", traffic::TrafficProfile::defaults(), 0.1}};
    EXPECT_DEATH(ctx.place(arrivals, Strategy::Greedy),
                 "not trained");
}

TEST(Diagnosis, ResourceNames)
{
    EXPECT_STREQ(core::resourceName(Resource::Memory), "memory");
    EXPECT_STREQ(core::resourceName(Resource::Regex), "regex");
    EXPECT_STREQ(core::resourceName(Resource::Compression), "compression");
}

TEST(Diagnosis, TruthMapping)
{
    sim::Measurement m;
    m.bottleneck = sim::Bottleneck::Regex;
    EXPECT_EQ(truthBottleneck(m), Resource::Regex);
    m.bottleneck = sim::Bottleneck::CpuMemory;
    EXPECT_EQ(truthBottleneck(m), Resource::Memory);
    m.bottleneck = sim::Bottleneck::Compression;
    EXPECT_EQ(truthBottleneck(m), Resource::Compression);
}

TEST(Diagnosis, BreakdownMapping)
{
    // The breakdown overload derives the bottleneck through the
    // attribution module (largest predicted drop wins).
    core::PredictionBreakdown b;
    b.soloThroughput = 1000.0;
    b.memoryOnlyThroughput = 900.0;
    EXPECT_EQ(tomurDiagnosis(b), Resource::Memory);
    b.accelUsed[0] = true; // regex drop overtakes memory
    b.accelOnlyThroughput[0] = 700.0;
    EXPECT_EQ(tomurDiagnosis(b), Resource::Regex);
    b.accelUsed[1] = true; // compression drops even more
    b.accelOnlyThroughput[1] = 500.0;
    EXPECT_EQ(tomurDiagnosis(b), Resource::Compression);
}

TEST(Diagnosis, ResourceFromAttributionMapping)
{
    // The attribution names each accelerator kind's resource.
    EXPECT_EQ(core::accelResource(hw::AccelKind::Regex),
              Resource::Regex);
    EXPECT_EQ(core::accelResource(hw::AccelKind::Compression),
              Resource::Compression);
    EXPECT_EQ(core::accelResource(hw::AccelKind::Crypto),
              Resource::Crypto);
}

TEST(Diagnosis, MakeTrialCarriesAttribution)
{
    core::PredictionBreakdown b;
    b.soloThroughput = 1000.0;
    b.memoryOnlyThroughput = 800.0;
    b.accelUsed[2] = true; // crypto dominates
    b.accelOnlyThroughput[2] = 600.0;
    b.confidence = 0.9;
    b.degraded = true;
    auto a = core::attributeContention(b);
    auto t = makeTrial(700.0, Resource::Crypto, a);
    EXPECT_DOUBLE_EQ(t.mtbr, 700.0);
    EXPECT_EQ(t.truth, Resource::Crypto);
    EXPECT_EQ(t.tomur, Resource::Crypto);
    EXPECT_EQ(t.slomo, Resource::Memory);
    EXPECT_TRUE(t.degraded);
    EXPECT_DOUBLE_EQ(t.confidence, 0.9);
}

TEST(Diagnosis, Scoring)
{
    std::vector<DiagnosisTrial> trials(4);
    trials[0] = {100, Resource::Memory, Resource::Memory,
                 Resource::Memory};
    trials[1] = {500, Resource::Regex, Resource::Regex,
                 Resource::Memory};
    trials[2] = {900, Resource::Regex, Resource::Regex,
                 Resource::Memory};
    trials[3] = {1100, Resource::Regex, Resource::Memory,
                 Resource::Memory};
    auto s = scoreTrials(trials);
    EXPECT_DOUBLE_EQ(s.tomurCorrectPct, 75.0);
    EXPECT_DOUBLE_EQ(s.slomoCorrectPct, 25.0);
    EXPECT_EQ(s.trials, 4u);
}

TEST(Diagnosis, BottleneckShiftDetectedEndToEnd)
{
    // FlowMonitor co-run with mem-bench + regex-bench: at low MTBR
    // the truth bottleneck is memory, at high MTBR regex, and Tomur
    // follows the shift (§7.5.2).
    Fixture f;
    auto defaults = traffic::TrafficProfile::defaults();
    auto nf = nfs::makeFlowMonitor(f.dev);
    core::TrainOptions topts;
    topts.adaptive.quota = 80;
    auto model = f.trainer->train(*nf, defaults, topts);

    // Fixed memory contention + closed-loop regex bench.
    const auto &mem = f.lib->memBenches()[160];
    const auto &rx =
        f.lib->accelBench(hw::AccelKind::Regex, 300e3, 800.0);

    for (double mtbr : {50.0, 1000.0}) {
        auto p =
            defaults.withAttribute(traffic::Attribute::Mtbr, mtbr);
        const auto &w = f.trainer->workloadOf(*nf, p);
        auto ms = f.bed.run({w, mem.workload, rx.workload});
        double solo = f.bed.runSolo(w).truthThroughput;
        auto breakdown = model.predictDetailed(
            {mem.level, rx.level}, p, solo);
        EXPECT_EQ(tomurDiagnosis(breakdown),
                  truthBottleneck(ms[0]))
            << "mtbr=" << mtbr;
    }
}

} // namespace
} // namespace tomur::usecases
