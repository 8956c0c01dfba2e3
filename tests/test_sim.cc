/**
 * @file
 * Tests for the testbed: solo baselines, contention phenomenology
 * (the shapes the paper measures in §2 and §4), counters, and noise.
 */

#include <gtest/gtest.h>

#include "framework/profile.hh"
#include "nfs/bench_nfs.hh"
#include "nfs/registry.hh"
#include "nfs/synthetic.hh"
#include "regex/ruleset.hh"
#include "sim/testbed.hh"

namespace tomur::sim {
namespace {

namespace fw = framework;

constexpr TestbedOptions kNoiseless{.noiseSigma = 0.0};

struct Fixture
{
    fw::WorkloadProfile
    profileOf(fw::NetworkFunction &nf,
              traffic::TrafficProfile tp =
                  traffic::TrafficProfile::defaults())
    {
        return fw::profileWorkload(nf, tp, &rules);
    }

    fw::WorkloadProfile
    memBench(double wss_mb, double car)
    {
        nfs::MemBenchConfig cfg;
        cfg.wssBytes = wss_mb * 1024 * 1024;
        cfg.targetAccessRate = car;
        auto nf = nfs::makeMemBench(cfg);
        traffic::TrafficProfile tp;
        tp.flowCount = 16;
        tp.mtbr = 0;
        return fw::profileWorkload(*nf, tp, nullptr);
    }

    fw::WorkloadProfile
    regexBench(double rate)
    {
        auto nf = nfs::makeRegexBench(dev, {.requestRate = rate});
        return profileOf(*nf);
    }

    regex::RuleSet rules = regex::defaultRuleSet();
    fw::DeviceSet dev{rules};
    Testbed bed{hw::blueField2(), kNoiseless};
};

TEST(Testbed, SoloThroughputsPlausible)
{
    Fixture f;
    for (const auto &name : nfs::evaluationNfNames()) {
        auto nf = nfs::makeByName(name, f.dev);
        auto m = f.bed.runSolo(f.profileOf(*nf));
        EXPECT_GT(m.truthThroughput, 100e3) << name;
        EXPECT_LT(m.truthThroughput, 50e6) << name;
    }
}

TEST(Testbed, SoloDeterministicWithoutNoise)
{
    Fixture f;
    auto nf = nfs::makeFlowStats();
    auto w = f.profileOf(*nf);
    auto a = f.bed.runSolo(w);
    auto b = f.bed.runSolo(w);
    EXPECT_DOUBLE_EQ(a.truthThroughput, b.truthThroughput);
    EXPECT_DOUBLE_EQ(a.throughput, a.truthThroughput);
}

TEST(Testbed, NoiseIsSmallAndNonzero)
{
    Fixture f;
    TestbedOptions opts;
    opts.noiseSigma = 0.01;
    Testbed noisy(hw::blueField2(), opts);
    auto nf = nfs::makeFlowStats();
    auto w = f.profileOf(*nf);
    auto a = noisy.runSolo(w);
    auto b = noisy.runSolo(w);
    EXPECT_NE(a.throughput, b.throughput);
    EXPECT_NEAR(a.throughput / a.truthThroughput, 1.0, 0.1);
}

TEST(Testbed, CoresOversubscriptionFatal)
{
    Fixture f;
    auto nf = nfs::makeFlowStats();
    auto w = f.profileOf(*nf);
    std::vector<fw::WorkloadProfile> five(5, w); // 10 cores > 8
    EXPECT_DEATH(f.bed.run(five), "cores");
}

TEST(Testbed, MemoryContentionDegradesVictim)
{
    Fixture f;
    auto nf = nfs::makeFlowStats();
    auto w = f.profileOf(*nf);
    double solo = f.bed.runSolo(w).truthThroughput;
    double prev = solo;
    // Monotone degradation as competitor CAR rises (Fig. 3a).
    for (double car : {5e6, 20e6, 40e6, 80e6}) {
        auto ms = f.bed.run({w, f.memBench(12.0, car)});
        EXPECT_LE(ms[0].truthThroughput, prev * 1.001)
            << "car=" << car;
        prev = ms[0].truthThroughput;
    }
    EXPECT_LT(prev, solo * 0.85); // at least ~15% drop at the top end
}

TEST(Testbed, SmallCompetitorWssHarmless)
{
    Fixture f;
    auto nf = nfs::makeFlowStats();
    auto w = f.profileOf(*nf);
    double solo = f.bed.runSolo(w).truthThroughput;
    auto ms = f.bed.run({w, f.memBench(1.0, 80e6)});
    EXPECT_GT(ms[0].truthThroughput, solo * 0.97);
}

TEST(Testbed, RegexEquilibrium)
{
    // Fig. 4: linear decline then a shared-equilibrium plateau.
    Fixture f;
    auto rnf = nfs::makeRegexNf(f.dev);
    auto w = f.profileOf(*rnf);
    double solo = f.bed.runSolo(w).truthThroughput;

    std::vector<double> thr;
    for (double rate :
         {50e3, 100e3, 150e3, 200e3, 600e3, 800e3, 1000e3}) {
        auto ms = f.bed.run({w, f.regexBench(rate)});
        thr.push_back(ms[0].truthThroughput);
    }
    // Linear region: equal decrements for equal rate steps.
    double d1 = thr[0] - thr[1];
    double d2 = thr[1] - thr[2];
    double d3 = thr[2] - thr[3];
    EXPECT_NEAR(d1, d2, 0.15 * d1);
    EXPECT_NEAR(d2, d3, 0.15 * d2);
    EXPECT_LT(thr[0], solo);
    // Plateau region: further rate increases change nothing.
    EXPECT_NEAR(thr[4], thr[5], thr[4] * 0.01);
    EXPECT_NEAR(thr[5], thr[6], thr[5] * 0.01);
    // At equilibrium both NFs converge to the same rate.
    auto ms = f.bed.run({w, f.regexBench(1000e3)});
    EXPECT_NEAR(ms[0].truthThroughput, ms[1].truthThroughput,
                ms[0].truthThroughput * 0.02);
}

TEST(Testbed, TwoClosedLoopRegexNfsShareEqually)
{
    Fixture f;
    auto a = nfs::makeRegexNf(f.dev);
    auto b = nfs::makeRegexNf(f.dev);
    auto wa = f.profileOf(*a);
    auto wb = f.profileOf(*b);
    auto ms = f.bed.run({wa, wb});
    EXPECT_NEAR(ms[0].truthThroughput, ms[1].truthThroughput,
                ms[0].truthThroughput * 0.02);
    double solo = f.bed.runSolo(wa).truthThroughput;
    EXPECT_NEAR(ms[0].truthThroughput, solo / 2, solo * 0.03);
}

TEST(Testbed, PipelinePlateausUnderMemoryContention)
{
    // Fig. 5 (top), O1: a regex-bottlenecked pipeline NF ignores
    // moderate memory contention.
    Fixture f;
    auto nf = nfs::makeSyntheticNf1(f.dev,
                                    fw::ExecutionPattern::Pipeline);
    auto w = f.profileOf(*nf);
    auto high_regex = f.regexBench(800e3);
    auto base = f.bed.run({w, high_regex});
    auto with_mem =
        f.bed.run({w, high_regex, f.memBench(8.0, 20e6)});
    EXPECT_NEAR(with_mem[0].truthThroughput,
                base[0].truthThroughput,
                base[0].truthThroughput * 0.02);
}

TEST(Testbed, RtcCompoundsContention)
{
    // Fig. 5 (bottom), O2: run-to-completion degrades under both
    // contention sources simultaneously.
    Fixture f;
    auto nf = nfs::makeSyntheticNf1(
        f.dev, fw::ExecutionPattern::RunToCompletion);
    auto w = f.profileOf(*nf);
    auto rx = f.regexBench(300e3);
    double base = f.bed.run({w, rx})[0].truthThroughput;
    double with_mem =
        f.bed.run({w, rx, f.memBench(10.0, 60e6)})[0].truthThroughput;
    EXPECT_LT(with_mem, base * 0.97);
}

TEST(Testbed, CountersScaleWithThroughput)
{
    Fixture f;
    auto nf = nfs::makeFlowStats();
    auto w = f.profileOf(*nf);
    auto m = f.bed.runSolo(w);
    EXPECT_NEAR(m.counters.instrRetired,
                m.truthThroughput * w.instrPerPacket,
                m.counters.instrRetired * 0.01);
    EXPECT_NEAR(m.counters.l2ReadRate,
                m.truthThroughput * w.llcReadsPerPacket,
                m.counters.l2ReadRate * 0.01);
    EXPECT_GT(m.counters.ipc, 0.0);
    EXPECT_LE(m.counters.ipc, hw::blueField2().baseIpc * 1.01);
    EXPECT_DOUBLE_EQ(m.counters.wssBytes, w.wssBytes);
    // Memory traffic is the missing fraction of cache traffic.
    EXPECT_LT(m.counters.memReadRate, m.counters.l2ReadRate);
}

TEST(Testbed, PacedWorkloadHitsItsRate)
{
    Fixture f;
    auto w = f.memBench(4.0, 10e6);
    auto m = f.bed.runSolo(w);
    EXPECT_NEAR(m.truthThroughput * 64.0, 10e6, 10e6 * 0.01);
    EXPECT_EQ(m.bottleneck, Bottleneck::Pacing);
}

TEST(Testbed, BottleneckIdentifiesRegex)
{
    Fixture f;
    auto nf = nfs::makeFlowMonitor(f.dev);
    auto m = f.bed.runSolo(f.profileOf(*nf));
    EXPECT_EQ(m.bottleneck, Bottleneck::Regex);
    EXPECT_STREQ(bottleneckName(m.bottleneck), "regex");
}

TEST(Testbed, BottleneckShiftsWithMtbr)
{
    // §7.5.2: FlowMonitor's bottleneck moves from memory to regex as
    // MTBR grows.
    Fixture f;
    auto nf = nfs::makeFlowMonitor(f.dev);
    auto tp = traffic::TrafficProfile::defaults();
    auto low = f.profileOf(
        *nf, tp.withAttribute(traffic::Attribute::Mtbr, 0.0));
    auto high = f.profileOf(
        *nf, tp.withAttribute(traffic::Attribute::Mtbr, 1000.0));
    auto mem = f.memBench(12.0, 60e6);
    auto m_low = f.bed.run({low, mem})[0];
    auto m_high = f.bed.run({high, mem})[0];
    EXPECT_EQ(m_low.bottleneck, Bottleneck::CpuMemory);
    EXPECT_EQ(m_high.bottleneck, Bottleneck::Regex);
}

TEST(Testbed, FlowCountPiecewiseEffect)
{
    // Fig. 6(a): throughput falls with flow count, then flattens
    // once the table far exceeds the LLC.
    Fixture f;
    auto mem = f.memBench(10.0, 40e6);
    std::vector<double> thr;
    for (double flows : {1e3, 16e3, 64e3, 256e3, 500e3}) {
        auto nf = nfs::makeFlowStats();
        auto tp = traffic::TrafficProfile::defaults().withAttribute(
            traffic::Attribute::FlowCount, flows);
        auto w = f.profileOf(*nf, tp);
        thr.push_back(f.bed.run({w, mem})[0].truthThroughput);
    }
    EXPECT_LT(thr[2], thr[0] * 0.8);  // mid-range: significant drop
    // Tail: change between 256K and 500K flows is comparatively
    // small (LLC long since saturated).
    double mid_drop = thr[1] - thr[2];
    double tail_drop = std::abs(thr[3] - thr[4]);
    EXPECT_LT(tail_drop, mid_drop);
}

TEST(Testbed, PacketSizeIrrelevantForHeaderNf)
{
    // Fig. 6(b): FlowStats ignores packet size.
    Fixture f;
    auto nf = nfs::makeFlowStats();
    auto tp = traffic::TrafficProfile::defaults();
    auto small = f.profileOf(
        *nf, tp.withAttribute(traffic::Attribute::PacketSize, 64.0));
    auto big = f.profileOf(
        *nf,
        tp.withAttribute(traffic::Attribute::PacketSize, 1500.0));
    double ts = f.bed.runSolo(small).truthThroughput;
    double tb = f.bed.runSolo(big).truthThroughput;
    EXPECT_NEAR(ts, tb, ts * 0.05);
}

TEST(Testbed, MtbrSlowsRegexNfs)
{
    Fixture f;
    auto nf = nfs::makeNids(f.dev);
    auto tp = traffic::TrafficProfile::defaults();
    auto lo = f.profileOf(
        *nf, tp.withAttribute(traffic::Attribute::Mtbr, 100.0));
    auto hi = f.profileOf(
        *nf, tp.withAttribute(traffic::Attribute::Mtbr, 1000.0));
    EXPECT_GT(f.bed.runSolo(lo).truthThroughput,
              1.3 * f.bed.runSolo(hi).truthThroughput);
}

TEST(Testbed, PensandoRunsFirewall)
{
    Fixture f;
    Testbed pen(hw::pensando(), kNoiseless);
    auto nf = nfs::makeFirewall(f.dev);
    auto m = pen.runSolo(f.profileOf(*nf));
    EXPECT_GT(m.truthThroughput, 50e3);
}

} // namespace
} // namespace tomur::sim
