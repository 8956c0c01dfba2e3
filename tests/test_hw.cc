/**
 * @file
 * Tests for the hardware model: cache sharing fixed point, DRAM
 * congestion, round-robin accelerator solver vs discrete-event
 * simulation, performance counters.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "hw/accel.hh"
#include "hw/accel_des.hh"
#include "hw/cache.hh"
#include "hw/config.hh"
#include "hw/counters.hh"
#include "hw/dram.hh"

namespace tomur::hw {
namespace {

constexpr double MB = 1024.0 * 1024.0;

TEST(Config, Factories)
{
    NicConfig bf2 = blueField2();
    EXPECT_EQ(bf2.cores, 8);
    EXPECT_TRUE(bf2.accelerator(AccelKind::Regex).present);
    EXPECT_TRUE(bf2.accelerator(AccelKind::Compression).present);

    NicConfig pen = pensando();
    EXPECT_NE(pen.name, bf2.name);
    EXPECT_FALSE(pen.accelerator(AccelKind::Compression).present);
    EXPECT_STREQ(accelName(AccelKind::Regex), "regex");
}

TEST(Cache, SoloFitsInCache)
{
    std::vector<CacheWorkload> w = {{1 * MB, 10e6, 1.0}};
    auto r = solveCacheSharing(6 * MB, 0.02, w);
    EXPECT_NEAR(r[0].occupancyBytes, 1 * MB, 1.0);
    EXPECT_DOUBLE_EQ(r[0].missRatio, 0.02);
}

TEST(Cache, SoloExceedsCache)
{
    std::vector<CacheWorkload> w = {{12 * MB, 10e6, 1.0}};
    auto r = solveCacheSharing(6 * MB, 0.02, w);
    EXPECT_NEAR(r[0].occupancyBytes, 6 * MB, 1e4);
    EXPECT_NEAR(r[0].missRatio, 0.5, 0.01);
}

TEST(Cache, AllFitNoContention)
{
    std::vector<CacheWorkload> w = {{1 * MB, 50e6, 1.0},
                                    {2 * MB, 5e6, 1.0}};
    auto r = solveCacheSharing(6 * MB, 0.02, w);
    EXPECT_DOUBLE_EQ(r[0].missRatio, 0.02);
    EXPECT_DOUBLE_EQ(r[1].missRatio, 0.02);
}

TEST(Cache, CompetitorWssRaisesMissRatio)
{
    // Property: the victim's miss ratio rises monotonically with
    // competitor working-set size.
    double prev = 0.0;
    for (double comp_wss : {2.0, 6.0, 10.0, 20.0, 40.0}) {
        std::vector<CacheWorkload> w = {{4 * MB, 20e6, 1.0},
                                        {comp_wss * MB, 20e6, 1.0}};
        auto r = solveCacheSharing(6 * MB, 0.02, w);
        EXPECT_GE(r[0].missRatio, prev - 1e-9)
            << "comp_wss=" << comp_wss;
        prev = r[0].missRatio;
    }
    EXPECT_GT(prev, 0.1); // big competitor hurts noticeably
}

TEST(Cache, CompetitorRateRaisesMissRatio)
{
    double prev = 0.0;
    for (double rate : {1e6, 10e6, 40e6, 100e6}) {
        std::vector<CacheWorkload> w = {{4 * MB, 20e6, 1.0},
                                        {12 * MB, rate, 1.0}};
        auto r = solveCacheSharing(6 * MB, 0.02, w);
        EXPECT_GE(r[0].missRatio, prev - 1e-9) << "rate=" << rate;
        prev = r[0].missRatio;
    }
}

TEST(Cache, OccupanciesWithinCapacity)
{
    std::vector<CacheWorkload> w = {{8 * MB, 30e6, 1.0},
                                    {10 * MB, 10e6, 1.0},
                                    {4 * MB, 50e6, 0.5}};
    auto r = solveCacheSharing(6 * MB, 0.02, w);
    double total = 0.0;
    for (const auto &s : r) {
        EXPECT_GE(s.occupancyBytes, 0.0);
        total += s.occupancyBytes;
    }
    EXPECT_LE(total, 6 * MB * 1.01);
}

TEST(Cache, StreamingNeverHits)
{
    std::vector<CacheWorkload> w = {{4 * MB, 20e6, 0.0}};
    auto r = solveCacheSharing(6 * MB, 0.02, w);
    EXPECT_DOUBLE_EQ(r[0].missRatio, 1.0);
}

TEST(Dram, FactorMonotoneConvex)
{
    double peak = 4e9;
    EXPECT_DOUBLE_EQ(dramLatencyFactor(0, peak), 1.0);
    double prev = 1.0, prev_slope = 0.0;
    for (double d = 0.5e9; d <= 4e9; d += 0.5e9) {
        double f = dramLatencyFactor(d, peak);
        EXPECT_GE(f, prev);
        double slope = f - prev;
        EXPECT_GE(slope, prev_slope - 1e-9); // convex
        prev = f;
        prev_slope = slope;
    }
    // Saturates, never explodes to infinity.
    EXPECT_LT(dramLatencyFactor(100e9, peak), 100.0);
}

TEST(Accel, SingleClosedQueueGetsFullRate)
{
    std::vector<AccelQueue> qs = {{1e-6, 0.0, true}};
    auto r = solveRoundRobin(qs);
    EXPECT_NEAR(r[0].throughput, 1e6, 1e3);
    EXPECT_TRUE(r[0].backlogged);
    EXPECT_NEAR(r[0].sojournTime, 1e-6, 1e-9);
}

TEST(Accel, OpenUnderloadedKeepsOfferedRate)
{
    std::vector<AccelQueue> qs = {{1e-6, 2e5, false},
                                  {2e-6, 1e5, false}};
    auto r = solveRoundRobin(qs);
    EXPECT_DOUBLE_EQ(r[0].throughput, 2e5);
    EXPECT_DOUBLE_EQ(r[1].throughput, 1e5);
    EXPECT_FALSE(r[0].backlogged);
}

TEST(Accel, TwoClosedQueuesShareEqually)
{
    // Equal request rates regardless of service times (RR queue-level
    // fairness, paper §4.1.1).
    std::vector<AccelQueue> qs = {{1e-6, 0.0, true},
                                  {3e-6, 0.0, true}};
    auto r = solveRoundRobin(qs);
    EXPECT_NEAR(r[0].throughput, r[1].throughput, 1.0);
    EXPECT_NEAR(r[0].throughput, 1.0 / 4e-6, 1e3);
}

TEST(Accel, LinearDeclineThenEquilibrium)
{
    // Fig. 4's two observations: linear throughput decline of the
    // closed-loop NF as the open competitor's rate rises, then a
    // plateau at the equilibrium point.
    const double s_nf = 1e-6, s_bench = 1e-6;
    double equilibrium = 1.0 / (s_nf + s_bench);
    std::vector<double> thr;
    for (double rate = 0; rate <= 1e6; rate += 1e5) {
        std::vector<AccelQueue> qs = {{s_nf, 0.0, true},
                                      {s_bench, rate, false}};
        auto r = solveRoundRobin(qs);
        thr.push_back(r[0].throughput);
    }
    // Linear region: slope approx -1 (1 - rate*s)/s.
    double slope01 = thr[1] - thr[0];
    double slope12 = thr[2] - thr[1];
    EXPECT_NEAR(slope01, -1e5, 2e3);
    EXPECT_NEAR(slope12, -1e5, 2e3);
    // Plateau: beyond equilibrium arrival rate, throughput constant.
    EXPECT_NEAR(thr.back(), equilibrium, 1e3);
    EXPECT_NEAR(thr[thr.size() - 2], equilibrium, 1e3);
}

TEST(Accel, AllOpenOverloadBacklogsHeaviest)
{
    std::vector<AccelQueue> qs = {{1e-6, 9.5e5, false},
                                  {1e-6, 1e5, false}};
    auto r = solveRoundRobin(qs);
    EXPECT_TRUE(r[0].backlogged);
    EXPECT_FALSE(r[1].backlogged);
    EXPECT_DOUBLE_EQ(r[1].throughput, 1e5);
    EXPECT_NEAR(r[0].throughput, 9e5, 1e4);
    // Server fully utilised.
    double util = r[0].throughput * 1e-6 + r[1].throughput * 1e-6;
    EXPECT_NEAR(util, 1.0, 0.01);
}

struct RrCase
{
    std::vector<AccelQueue> queues;
    const char *name;
};

// Named by case: the default printer dumps the struct's bytes, heap
// pointers included, so the discovered test names would change from
// one run to the next.
void PrintTo(const RrCase &c, std::ostream *os)
{
    *os << c.name;
}

class AccelDesAgreement : public ::testing::TestWithParam<RrCase>
{
};

TEST_P(AccelDesAgreement, AnalyticMatchesDes)
{
    const auto &qs = GetParam().queues;
    auto analytic = solveRoundRobin(qs);
    DesOptions opts;
    opts.duration = 2.0;
    opts.warmup = 0.2;
    auto des = simulateRoundRobin(qs, opts);
    for (std::size_t i = 0; i < qs.size(); ++i) {
        double a = analytic[i].throughput;
        double d = des[i].throughput;
        ASSERT_GT(d, 0.0);
        EXPECT_NEAR(a / d, 1.0, 0.05)
            << GetParam().name << " queue " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    RoundRobin, AccelDesAgreement,
    ::testing::Values(
        RrCase{{{1e-6, 0.0, true}}, "solo_closed"},
        RrCase{{{1e-6, 0.0, true}, {1e-6, 0.0, true}}, "two_closed"},
        RrCase{{{1e-6, 0.0, true}, {3e-6, 0.0, true}},
               "two_closed_uneven"},
        RrCase{{{1e-6, 0.0, true}, {1e-6, 3e5, false}},
               "closed_vs_light_open"},
        RrCase{{{1e-6, 0.0, true}, {1e-6, 2e6, false}},
               "closed_vs_heavy_open"},
        RrCase{{{2e-6, 1e5, false}, {1e-6, 2e5, false}},
               "all_open_light"},
        RrCase{{{1e-6, 9e5, false}, {1e-6, 3e5, false}},
               "open_overload"},
        RrCase{{{1e-6, 0.0, true},
                {2e-6, 0.0, true},
                {0.5e-6, 4e5, false}},
               "three_mixed"}));

TEST(AccelDes, SojournGrowsWithContention)
{
    std::vector<AccelQueue> solo = {{1e-6, 0.0, true}};
    std::vector<AccelQueue> shared = {{1e-6, 0.0, true},
                                      {2e-6, 0.0, true}};
    auto a = simulateRoundRobin(solo);
    auto b = simulateRoundRobin(shared);
    EXPECT_GT(b[0].meanSojourn, a[0].meanSojourn * 2);
}

TEST(AccelDes, ExponentialServiceMatchesMeanRate)
{
    // With exponential service times the long-run throughput of a
    // solo closed-loop queue still equals 1/mean.
    std::vector<AccelQueue> qs = {{2e-6, 0.0, true}};
    DesOptions opts;
    opts.duration = 2.0;
    opts.warmup = 0.2;
    opts.exponentialService = true;
    auto res = simulateRoundRobin(qs, opts);
    EXPECT_NEAR(res[0].throughput, 5e5, 5e5 * 0.05);
}

TEST(AccelDes, NoArrivalsNoCompletions)
{
    std::vector<AccelQueue> qs = {{1e-6, 0.0, false}};
    auto res = simulateRoundRobin(qs);
    EXPECT_EQ(res[0].completions, 0u);
}

TEST(DramDeath, BadPeakPanics)
{
    EXPECT_DEATH(dramLatencyFactor(1e9, 0.0), "peak");
}

TEST(Counters, VectorOrderMatchesNames)
{
    PerfCounters c;
    c.ipc = 1;
    c.instrRetired = 2;
    c.l2ReadRate = 3;
    c.l2WriteRate = 4;
    c.memReadRate = 5;
    c.memWriteRate = 6;
    c.wssBytes = 7;
    auto v = c.toVector();
    ASSERT_EQ(v.size(), PerfCounters::featureNames().size());
    for (std::size_t i = 0; i < v.size(); ++i)
        EXPECT_DOUBLE_EQ(v[i], double(i + 1));
    EXPECT_DOUBLE_EQ(c.cacheAccessRate(), 7.0);
}

TEST(Counters, Aggregation)
{
    PerfCounters a, b;
    a.l2ReadRate = 10;
    a.wssBytes = 100;
    b.l2ReadRate = 5;
    b.wssBytes = 50;
    PerfCounters s = a + b;
    EXPECT_DOUBLE_EQ(s.l2ReadRate, 15);
    EXPECT_DOUBLE_EQ(s.wssBytes, 150);
}

} // namespace
} // namespace tomur::hw
