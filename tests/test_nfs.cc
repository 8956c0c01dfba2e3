/**
 * @file
 * Functional tests for the network functions: each NF genuinely
 * transforms/classifies packets, plus catalog and LPM substrate
 * coverage.
 */

#include <gtest/gtest.h>

#include "framework/profile.hh"
#include "nfs/bench_nfs.hh"
#include "nfs/common_elements.hh"
#include "nfs/flowstats.hh"
#include "nfs/lpm.hh"
#include "nfs/registry.hh"
#include "nfs/synthetic.hh"
#include "regex/generator.hh"
#include "regex/ruleset.hh"
#include "traffic/generator.hh"

namespace tomur::nfs {
namespace {

namespace fw = framework;

fw::DeviceSet
devices()
{
    return fw::DeviceSet(regex::defaultRuleSet());
}

net::Packet
packetFor(std::uint16_t src_port, std::size_t payload_len = 64,
          std::uint8_t fill = 0x80)
{
    net::FiveTuple t;
    t.srcIp = net::Ipv4Addr::fromOctets(10, 1, 2, 3);
    t.dstIp = net::Ipv4Addr::fromOctets(192, 168, 9, 9);
    t.srcPort = src_port;
    t.dstPort = 443;
    std::vector<std::uint8_t> pl(payload_len, fill);
    return net::PacketBuilder::build(t, pl);
}

TEST(Lpm, LongestPrefixWins)
{
    LpmTable t;
    t.insert(net::Ipv4Addr::fromOctets(10, 0, 0, 0), 8, 1);
    t.insert(net::Ipv4Addr::fromOctets(10, 1, 0, 0), 16, 2);
    t.insert(net::Ipv4Addr::fromOctets(10, 1, 2, 0), 24, 3);
    std::size_t steps = 0;
    EXPECT_EQ(*t.lookup(net::Ipv4Addr::fromOctets(10, 1, 2, 9), steps),
              3u);
    EXPECT_EQ(*t.lookup(net::Ipv4Addr::fromOctets(10, 1, 9, 9), steps),
              2u);
    EXPECT_EQ(*t.lookup(net::Ipv4Addr::fromOctets(10, 9, 9, 9), steps),
              1u);
    EXPECT_FALSE(
        t.lookup(net::Ipv4Addr::fromOctets(11, 0, 0, 1), steps));
}

TEST(Lpm, DefaultRouteCatchesAll)
{
    LpmTable t = LpmTable::synthetic(100);
    std::size_t steps = 0;
    auto hop = t.lookup(net::Ipv4Addr::fromOctets(1, 2, 3, 4), steps);
    ASSERT_TRUE(hop);
    EXPECT_GE(steps, 1u);
}

TEST(FlowStatsNf, CountsPerFlow)
{
    FlowStatsElement el;
    fw::CostContext ctx;
    auto p1 = packetFor(100);
    auto p2 = packetFor(200);
    el.process(p1, ctx);
    el.process(p1, ctx);
    el.process(p2, ctx);
    const auto *e1 = el.peek(*p1.fiveTuple());
    const auto *e2 = el.peek(*p2.fiveTuple());
    ASSERT_NE(e1, nullptr);
    ASSERT_NE(e2, nullptr);
    EXPECT_EQ(e1->packets, 2u);
    EXPECT_EQ(e2->packets, 1u);
    EXPECT_EQ(e1->bytes, 2 * p1.size());
    EXPECT_EQ(el.flowsTracked(), 2u);
}

TEST(NatNf, RewritesConsistently)
{
    auto nf = makeNat();
    fw::CostContext ctx;
    auto p1 = packetFor(1111);
    auto p1_again = packetFor(1111);
    auto p2 = packetFor(2222);
    ASSERT_EQ(nf->processPacket(p1, ctx), fw::Verdict::Forward);
    ASSERT_EQ(nf->processPacket(p1_again, ctx), fw::Verdict::Forward);
    ASSERT_EQ(nf->processPacket(p2, ctx), fw::Verdict::Forward);

    auto t1 = *p1.fiveTuple();
    auto t1a = *p1_again.fiveTuple();
    auto t2 = *p2.fiveTuple();
    // Same flow -> same binding; different flow -> different port.
    EXPECT_EQ(t1, t1a);
    EXPECT_NE(t1.srcPort, t2.srcPort);
    // External address space applied.
    EXPECT_EQ(t1.srcIp.toString().substr(0, 7), "100.64.");
    EXPECT_TRUE(p1.ipv4ChecksumOk());
}

TEST(NidsNf, BlocksAlertTraffic)
{
    auto dev = devices();
    auto nf = makeNids(dev);
    fw::CostContext ctx;

    // Benign payload passes.
    auto benign = packetFor(1, 200, 0x81);
    EXPECT_EQ(nf->processPacket(benign, ctx), fw::Verdict::Forward);

    // Payload carrying an alert-rule signature is dropped. Rule ids
    // in kAlertMask include bittorrent (id 3).
    Rng rng(1);
    auto pat = dev.regex->matcher().patterns()[3].root->clone();
    auto sig = regex::generateMatch(*pat, rng);
    std::vector<std::uint8_t> payload(300, 0x82);
    std::copy(sig.begin(), sig.end(), payload.begin() + 10);
    net::FiveTuple t = *benign.fiveTuple();
    auto evil = net::PacketBuilder::build(t, payload);
    EXPECT_EQ(nf->processPacket(evil, ctx), fw::Verdict::Drop);
}

TEST(PacketFilterNf, DropsOnAnyMatch)
{
    auto dev = devices();
    auto nf = makePacketFilter(dev);
    fw::CostContext ctx;
    auto benign = packetFor(1, 128, 0x90);
    EXPECT_EQ(nf->processPacket(benign, ctx), fw::Verdict::Forward);

    std::string sig = "ssh-2.0-openssh_8";
    std::vector<std::uint8_t> payload(sig.begin(), sig.end());
    auto evil =
        net::PacketBuilder::build(*benign.fiveTuple(), payload);
    EXPECT_EQ(nf->processPacket(evil, ctx), fw::Verdict::Drop);
}

TEST(IpRouterNf, ForwardsAndDecrementsTtl)
{
    auto nf = makeIpRouter();
    fw::CostContext ctx;
    auto pkt = packetFor(5);
    auto ttl_before = pkt.ipv4()->ttl;
    ASSERT_EQ(nf->processPacket(pkt, ctx), fw::Verdict::Forward);
    EXPECT_EQ(pkt.ipv4()->ttl, ttl_before - 1);
    EXPECT_TRUE(pkt.ipv4ChecksumOk());
}

TEST(IpTunnelNf, MarksFragments)
{
    auto nf = makeIpTunnel();
    fw::CostContext ctx;
    auto big = packetFor(5, 1400);
    ASSERT_EQ(nf->processPacket(big, ctx), fw::Verdict::Forward);
    EXPECT_TRUE(big.ipv4()->moreFragments());

    auto small = packetFor(6, 100);
    ASSERT_EQ(nf->processPacket(small, ctx), fw::Verdict::Forward);
    EXPECT_FALSE(small.ipv4()->moreFragments());
}

TEST(AclNf, DeterministicVerdicts)
{
    auto nf = makeAcl();
    fw::CostContext ctx;
    int drops = 0, total = 0;
    for (std::uint16_t p = 0; p < 300; ++p) {
        auto pkt = packetFor(1000 + p);
        ++total;
        if (nf->processPacket(pkt, ctx) == fw::Verdict::Drop)
            ++drops;
    }
    // Same packets replay to identical verdicts.
    auto nf2 = makeAcl();
    int drops2 = 0;
    for (std::uint16_t p = 0; p < 300; ++p) {
        auto pkt = packetFor(1000 + p);
        if (nf2->processPacket(pkt, ctx) == fw::Verdict::Drop)
            ++drops2;
    }
    EXPECT_EQ(drops, drops2);
    EXPECT_LT(drops, total); // not everything denied
}

TEST(Catalog, AllEntriesInstantiate)
{
    auto dev = devices();
    for (const auto &info : catalog()) {
        auto nf = makeByName(info.name, dev);
        ASSERT_NE(nf, nullptr) << info.name;
        EXPECT_EQ(nf->name(), info.name);
        // Process a packet without crashing.
        fw::CostContext ctx;
        auto pkt = packetFor(7, 256, 0x85);
        nf->processPacket(pkt, ctx);
        // Regex usage flag matches profiled behaviour.
        traffic::TrafficProfile p;
        p.flowCount = 64;
        auto rules = regex::defaultRuleSet();
        auto w = fw::profileWorkload(*nf, p, &rules);
        EXPECT_EQ(w.usesAccel(hw::AccelKind::Regex), info.usesRegex)
            << info.name;
        EXPECT_EQ(w.usesAccel(hw::AccelKind::Compression),
                  info.usesCompression)
            << info.name;
    }
}

TEST(Catalog, EvaluationSetIsNineKnownNfs)
{
    auto names = evaluationNfNames();
    EXPECT_EQ(names.size(), 9u);
    auto dev = devices();
    for (const auto &n : names)
        EXPECT_NE(makeByName(n, dev), nullptr);
}

TEST(BenchNfs, MemBenchPacing)
{
    MemBenchConfig cfg;
    cfg.targetAccessRate = 32e6;
    cfg.accessesPerIteration = 64;
    auto nf = makeMemBench(cfg);
    EXPECT_DOUBLE_EQ(nf->pacedRate(), 32e6 / 64);

    traffic::TrafficProfile p;
    p.flowCount = 16;
    p.mtbr = 0;
    auto w = fw::profileWorkload(*nf, p, nullptr);
    EXPECT_NEAR(w.llcReadsPerPacket + w.llcWritesPerPacket, 64.0,
                1e-6);
    EXPECT_NEAR(w.wssBytes, cfg.wssBytes, cfg.wssBytes * 0.01);
}

TEST(BenchNfs, StreamModeHasLowReuse)
{
    MemBenchConfig stream;
    stream.mode = MemAccessMode::Stream;
    MemBenchConfig random;
    random.mode = MemAccessMode::Random;
    traffic::TrafficProfile p;
    p.flowCount = 16;
    p.mtbr = 0;
    auto ws = fw::profileWorkload(*makeMemBench(stream), p, nullptr);
    auto wr = fw::profileWorkload(*makeMemBench(random), p, nullptr);
    EXPECT_LT(ws.reuse, 0.3);
    EXPECT_GT(wr.reuse, 0.8);
}

TEST(BenchNfs, RegexBenchConfiguration)
{
    auto dev = devices();
    RegexBenchConfig cfg;
    cfg.requestRate = 250e3;
    cfg.queues = 2;
    auto nf = makeRegexBench(dev, cfg);
    EXPECT_DOUBLE_EQ(nf->pacedRate(), 250e3);
    EXPECT_EQ(nf->queueCount(hw::AccelKind::Regex), 2);
}

TEST(SyntheticNfs, PatternsApplied)
{
    auto dev = devices();
    auto p = makeSyntheticNf1(dev, fw::ExecutionPattern::Pipeline);
    auto r =
        makeSyntheticNf1(dev, fw::ExecutionPattern::RunToCompletion);
    EXPECT_EQ(p->pattern(), fw::ExecutionPattern::Pipeline);
    EXPECT_EQ(r->pattern(), fw::ExecutionPattern::RunToCompletion);

    traffic::TrafficProfile tp;
    tp.flowCount = 128;
    auto rules = regex::defaultRuleSet();
    auto w2 = fw::profileWorkload(
        *makeSyntheticNf2(dev, fw::ExecutionPattern::Pipeline), tp,
        &rules);
    EXPECT_TRUE(w2.usesAccel(hw::AccelKind::Regex));
    EXPECT_TRUE(w2.usesAccel(hw::AccelKind::Compression));
}

} // namespace
} // namespace tomur::nfs
