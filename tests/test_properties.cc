/**
 * @file
 * Cross-module property tests: invariants checked over parameterized
 * and randomized sweeps rather than single examples.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <unordered_map>

#include "common/rng.hh"
#include "framework/flow_table.hh"
#include "hw/accel.hh"
#include "hw/cache.hh"
#include "hw/config.hh"
#include "net/packet.hh"
#include "tomur/composition.hh"

namespace tomur {
namespace {

namespace fw = framework;

// ---------------------------------------------------------------
// Round-robin solver invariants
// ---------------------------------------------------------------

class RrInvariants : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RrInvariants, ConservationAndFairness)
{
    Rng rng(GetParam());
    for (int iter = 0; iter < 40; ++iter) {
        std::vector<hw::AccelQueue> queues;
        int n = 1 + static_cast<int>(rng.uniformInt(5u));
        bool any_closed = false;
        for (int q = 0; q < n; ++q) {
            hw::AccelQueue a;
            a.serviceTime = rng.uniform(0.2e-6, 5e-6);
            a.closedLoop = rng.chance(0.4);
            any_closed |= a.closedLoop;
            if (!a.closedLoop)
                a.arrivalRate = rng.uniform(1e4, 1.5e6);
            queues.push_back(a);
        }
        auto res = hw::solveRoundRobin(queues);

        // Work conservation: total utilisation never exceeds 1, and
        // equals 1 when any queue is backlogged.
        double util = 0.0;
        bool any_backlogged = false;
        for (std::size_t q = 0; q < queues.size(); ++q) {
            util += res[q].throughput * queues[q].serviceTime;
            any_backlogged |= res[q].backlogged;
            // No open queue exceeds its offered rate.
            if (!queues[q].closedLoop) {
                EXPECT_LE(res[q].throughput,
                          queues[q].arrivalRate * 1.0001);
            }
            EXPECT_GE(res[q].throughput, 0.0);
            EXPECT_GT(res[q].sojournTime, 0.0);
        }
        EXPECT_LE(util, 1.0001);
        if (any_closed) {
            EXPECT_TRUE(any_backlogged);
        }
        if (any_backlogged) {
            EXPECT_NEAR(util, 1.0, 0.01);
        }

        // Queue-level fairness: all backlogged queues complete at
        // the same rate (RR serves one request per round each).
        double r = -1.0;
        for (std::size_t q = 0; q < queues.size(); ++q) {
            if (!res[q].backlogged)
                continue;
            if (r < 0.0) {
                r = res[q].throughput;
            } else {
                EXPECT_NEAR(res[q].throughput, r, r * 0.01);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RrInvariants,
                         ::testing::Values(1u, 17u, 99u, 12345u));

// ---------------------------------------------------------------
// Cache-sharing invariants
// ---------------------------------------------------------------

class CacheInvariants : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(CacheInvariants, CapacityAndBounds)
{
    Rng rng(GetParam());
    const double llc = 6.0 * 1024 * 1024;
    for (int iter = 0; iter < 60; ++iter) {
        std::vector<hw::CacheWorkload> ws;
        int n = 1 + static_cast<int>(rng.uniformInt(5u));
        for (int i = 0; i < n; ++i) {
            hw::CacheWorkload w;
            w.wssBytes = rng.uniform(0.1, 64.0) * 1024 * 1024;
            w.accessRate = rng.uniform(1e5, 2e8);
            w.reuse = rng.chance(0.2) ? 0.0 : rng.uniform(0.3, 1.0);
            ws.push_back(w);
        }
        auto res = hw::solveCacheSharing(llc, 0.02, ws);
        double total = 0.0;
        for (int i = 0; i < n; ++i) {
            EXPECT_GE(res[i].occupancyBytes, -1.0);
            EXPECT_LE(res[i].occupancyBytes,
                      ws[i].wssBytes * 1.0001);
            EXPECT_GE(res[i].missRatio, 0.02 - 1e-12);
            EXPECT_LE(res[i].missRatio, 1.0 + 1e-12);
            total += res[i].occupancyBytes;
        }
        EXPECT_LE(total, llc * 1.01);
    }
}

TEST_P(CacheInvariants, VictimMonotoneInCompetitorPressure)
{
    Rng rng(GetParam() + 1);
    for (int iter = 0; iter < 20; ++iter) {
        hw::CacheWorkload victim;
        victim.wssBytes = rng.uniform(1.0, 8.0) * 1024 * 1024;
        victim.accessRate = rng.uniform(1e6, 5e7);
        hw::CacheWorkload comp;
        comp.wssBytes = rng.uniform(4.0, 32.0) * 1024 * 1024;
        double prev = 0.0;
        for (double rate = 1e6; rate <= 2e8; rate *= 4) {
            comp.accessRate = rate;
            auto res = hw::solveCacheSharing(6.0 * 1024 * 1024, 0.02,
                                             {victim, comp});
            EXPECT_GE(res[0].missRatio, prev - 1e-9)
                << "iter " << iter << " rate " << rate;
            prev = res[0].missRatio;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheInvariants,
                         ::testing::Values(3u, 71u, 2024u));

// ---------------------------------------------------------------
// Composition invariants (Eq. 7)
// ---------------------------------------------------------------

TEST(CompositionInvariants, BoundedAndMonotone)
{
    Rng rng(5);
    for (auto pattern : {fw::ExecutionPattern::Pipeline,
                         fw::ExecutionPattern::RunToCompletion}) {
        for (int iter = 0; iter < 200; ++iter) {
            double t0 = rng.uniform(1e3, 1e7);
            std::vector<double> drops;
            int r = 1 + static_cast<int>(rng.uniformInt(3u));
            for (int k = 0; k < r; ++k)
                drops.push_back(rng.uniform(0.0, t0 * 0.95));
            double base =
                core::compose(core::CompositionKind::ExecutionPattern,
                              pattern, t0, drops);
            EXPECT_GE(base, 0.0);
            EXPECT_LE(base, t0);
            // Raising any single drop never raises the prediction.
            int k = static_cast<int>(rng.uniformInt(
                static_cast<std::uint64_t>(r)));
            auto worse = drops;
            worse[k] = std::min(t0 * 0.99,
                                worse[k] + rng.uniform(0, t0 * 0.3));
            double worse_pred =
                core::compose(core::CompositionKind::ExecutionPattern,
                              pattern, t0, worse);
            EXPECT_LE(worse_pred, base + 1e-6);
        }
    }
}

TEST(CompositionInvariants, ZeroDropsIdentity)
{
    for (auto pattern : {fw::ExecutionPattern::Pipeline,
                         fw::ExecutionPattern::RunToCompletion}) {
        double t = core::compose(
            core::CompositionKind::ExecutionPattern, pattern, 1e6,
            std::vector<double>{0.0, 0.0, 0.0});
        EXPECT_NEAR(t, 1e6, 1.0);
    }
}

// ---------------------------------------------------------------
// Packet round-trip sweep
// ---------------------------------------------------------------

struct PacketCase
{
    std::size_t payload;
    net::IpProto proto;
};

// Named by value: the default printer dumps the struct's bytes,
// padding included, so the discovered test names would change from
// one run to the next.
void PrintTo(const PacketCase &c, std::ostream *os)
{
    *os << (c.proto == net::IpProto::Tcp ? "tcp" : "udp") << "_payload_"
        << c.payload;
}

class PacketRoundTrip : public ::testing::TestWithParam<PacketCase>
{
};

TEST_P(PacketRoundTrip, BuildParseConsistent)
{
    auto [payload_len, proto] = GetParam();
    net::FiveTuple t;
    t.srcIp = net::Ipv4Addr::fromOctets(172, 16, 0, 9);
    t.dstIp = net::Ipv4Addr::fromOctets(10, 10, 10, 10);
    t.srcPort = 40000;
    t.dstPort = 53;
    t.proto = static_cast<std::uint8_t>(proto);
    std::vector<std::uint8_t> payload(payload_len);
    for (std::size_t i = 0; i < payload_len; ++i)
        payload[i] = static_cast<std::uint8_t>(i * 31 + 7);

    auto pkt = net::PacketBuilder::build(t, payload);
    EXPECT_EQ(pkt.size(),
              net::PacketBuilder::frameSize(payload_len, proto));
    ASSERT_TRUE(pkt.fiveTuple());
    EXPECT_EQ(*pkt.fiveTuple(), t);
    EXPECT_TRUE(pkt.ipv4ChecksumOk());
    auto got = pkt.payload();
    ASSERT_EQ(got.size(), payload_len);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), payload.begin()));
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, PacketRoundTrip,
    ::testing::Values(PacketCase{0, net::IpProto::Udp},
                      PacketCase{1, net::IpProto::Udp},
                      PacketCase{64, net::IpProto::Tcp},
                      PacketCase{733, net::IpProto::Udp},
                      PacketCase{1458, net::IpProto::Udp},
                      PacketCase{1444, net::IpProto::Tcp}));

// ---------------------------------------------------------------
// FlowTable against a reference model
// ---------------------------------------------------------------

TEST(FlowTableProperty, MatchesUnorderedMapReference)
{
    fw::FlowTable<int> table("ref");
    std::unordered_map<net::FiveTuple, int> reference;
    fw::CostContext ctx;
    Rng rng(21);
    for (int op = 0; op < 5000; ++op) {
        net::FiveTuple t;
        t.srcIp.value = 0x0a000000u |
                        static_cast<std::uint32_t>(rng.uniformInt(64u));
        t.dstIp.value = 0xc0a80001u;
        t.srcPort = static_cast<std::uint16_t>(rng.uniformInt(256u));
        t.dstPort = 80;
        t.proto = 17;
        if (rng.chance(0.7)) {
            int &v = table.findOrInsert(t, ctx);
            ++v;
            ++reference[t];
        } else {
            int *v = table.find(t, ctx);
            auto it = reference.find(t);
            if (it == reference.end()) {
                EXPECT_EQ(v, nullptr);
            } else {
                ASSERT_NE(v, nullptr);
                EXPECT_EQ(*v, it->second);
            }
        }
    }
    EXPECT_EQ(table.size(), reference.size());
    // Every reference entry is visible via forEach.
    std::size_t seen = 0;
    table.forEach([&](const net::FiveTuple &k, const int &v) {
        auto it = reference.find(k);
        ASSERT_NE(it, reference.end());
        EXPECT_EQ(v, it->second);
        ++seen;
    });
    EXPECT_EQ(seen, reference.size());
}

} // namespace
} // namespace tomur
