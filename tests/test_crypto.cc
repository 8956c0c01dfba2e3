/**
 * @file
 * Tests for the crypto accelerator extension: ChaCha20 correctness
 * (RFC 7539 test vector), device round trips, the IPsecGateway NF,
 * and the queue model's applicability to the crypto engine.
 */

#include <gtest/gtest.h>

#include "framework/accel_dev.hh"
#include "framework/profile.hh"
#include "nfs/bench_nfs.hh"
#include "nfs/registry.hh"
#include "regex/ruleset.hh"
#include "sim/testbed.hh"
#include "tomur/lab.hh"

namespace tomur {
namespace {

namespace fw = framework;

fw::CryptoDevice::Key
rfc7539Key()
{
    // RFC 7539 §2.3.2: key bytes 00 01 02 ... 1f, nonce
    // 00:00:00:09 00:00:00:4a 00:00:00:00 (words little-endian).
    fw::CryptoDevice::Key key;
    for (int w = 0; w < 8; ++w) {
        key.words[w] = 0;
        for (int b = 3; b >= 0; --b)
            key.words[w] = (key.words[w] << 8) |
                           static_cast<std::uint32_t>(4 * w + b);
    }
    key.nonce[0] = 0x09000000;
    key.nonce[1] = 0x4a000000;
    key.nonce[2] = 0x00000000;
    return key;
}

TEST(ChaCha20, Rfc7539BlockVector)
{
    std::uint8_t out[64];
    fw::CryptoDevice::block(rfc7539Key(), 1, out);
    const std::uint8_t expected[16] = {
        0x10, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15,
        0x50, 0x0f, 0xdd, 0x1f, 0xa3, 0x20, 0x71, 0xc4};
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(out[i], expected[i]) << "byte " << i;
}

TEST(ChaCha20, RoundTrip)
{
    Rng rng(9);
    fw::CryptoDevice::Key key;
    for (int iter = 0; iter < 20; ++iter) {
        std::vector<std::uint8_t> data(1 + rng.uniformInt(500u));
        for (auto &b : data)
            b = static_cast<std::uint8_t>(rng.uniformInt(256u));
        auto cipher = fw::CryptoDevice::chacha20(data, key, 7);
        EXPECT_NE(cipher, data);
        auto plain = fw::CryptoDevice::chacha20(cipher, key, 7);
        EXPECT_EQ(plain, data);
    }
}

TEST(ChaCha20, CounterAndKeyMatter)
{
    fw::CryptoDevice::Key a, b;
    b.words[0] ^= 1;
    std::vector<std::uint8_t> data(100, 0x55);
    EXPECT_NE(fw::CryptoDevice::chacha20(data, a, 1),
              fw::CryptoDevice::chacha20(data, a, 2));
    EXPECT_NE(fw::CryptoDevice::chacha20(data, a, 1),
              fw::CryptoDevice::chacha20(data, b, 1));
}

TEST(CryptoDevice, RecordsRequests)
{
    fw::CryptoDevice dev;
    fw::CostContext ctx;
    std::vector<std::uint8_t> data(256, 1);
    auto out = dev.encrypt(data, ctx);
    EXPECT_EQ(out.size(), data.size());
    ASSERT_EQ(ctx.offloads().size(), 1u);
    EXPECT_EQ(ctx.offloads()[0].kind, hw::AccelKind::Crypto);
    EXPECT_DOUBLE_EQ(ctx.offloads()[0].bytes, 256.0);

    // Non-functional mode skips work and accounting.
    fw::CostContext off;
    off.setAccelFunctional(false);
    auto same = dev.encrypt(data, off);
    EXPECT_EQ(same, data);
    EXPECT_TRUE(off.offloads().empty());
}

constexpr sim::TestbedOptions kNoiseless{.noiseSigma = 0.0};

/** The devices and a noiseless testbed (no bench library). */
struct Fixture
{
    regex::RuleSet rules = regex::defaultRuleSet();
    fw::DeviceSet dev{rules};
    sim::Testbed bed{hw::blueField2(), kNoiseless};
};

TEST(IpsecNf, EncryptsPayloadInPlace)
{
    Fixture f;
    auto nf = nfs::makeIpsecGateway(f.dev);
    fw::CostContext ctx;
    net::FiveTuple t;
    t.srcIp = net::Ipv4Addr::fromOctets(10, 0, 0, 1);
    t.dstIp = net::Ipv4Addr::fromOctets(10, 0, 0, 2);
    t.srcPort = 1000;
    t.dstPort = 2000;
    std::vector<std::uint8_t> payload(200, 0x41);
    auto pkt = net::PacketBuilder::build(t, payload);
    auto before = pkt.bytes();
    ASSERT_EQ(nf->processPacket(pkt, ctx), fw::Verdict::Forward);
    // Payload transformed, headers intact.
    EXPECT_NE(pkt.bytes(), before);
    EXPECT_EQ(*pkt.fiveTuple(), t);

    // Same flow, next packet: different keystream (sequence moved).
    auto pkt2 = net::PacketBuilder::build(t, payload);
    nf->processPacket(pkt2, ctx);
    EXPECT_NE(pkt.bytes(), pkt2.bytes());
}

TEST(IpsecNf, WorkloadUsesCryptoOnly)
{
    Fixture f;
    auto nf = nfs::makeIpsecGateway(f.dev);
    traffic::TrafficProfile p;
    p.flowCount = 256;
    auto w = fw::profileWorkload(*nf, p, &f.rules);
    EXPECT_TRUE(w.usesAccel(hw::AccelKind::Crypto));
    EXPECT_FALSE(w.usesAccel(hw::AccelKind::Regex));
    EXPECT_FALSE(w.usesAccel(hw::AccelKind::Compression));
    EXPECT_NEAR(
        w.accelUse(hw::AccelKind::Crypto).requestsPerPacket, 1.0,
        1e-9);
}

TEST(IpsecNf, CryptoContentionDegrades)
{
    Fixture f;
    auto nf = nfs::makeIpsecGateway(f.dev);
    auto w = fw::profileWorkload(
        *nf, traffic::TrafficProfile::defaults(), &f.rules);
    double solo = f.bed.runSolo(w).truthThroughput;
    EXPECT_GT(solo, 100e3);

    nfs::CryptoBenchConfig cfg;
    cfg.requestBytes = 16000;
    auto bench = nfs::makeCryptoBench(f.dev, cfg); // closed loop
    auto wb = fw::profileWorkload(
        *bench, traffic::TrafficProfile{16, 1500, 0.0}, &f.rules);
    auto ms = f.bed.run({w, wb});
    EXPECT_LT(ms[0].truthThroughput, solo * 0.8);
}

TEST(IpsecNf, TomurModelsCryptoAccelerator)
{
    // The queue model carries over to the crypto engine (§4.1.1
    // "other accelerators"): calibrate on IPsecGateway and predict
    // under crypto-bench contention.
    core::Lab lab(hw::blueField2(), kNoiseless);
    auto defaults = traffic::TrafficProfile::defaults();
    auto nf = nfs::makeIpsecGateway(lab.dev);
    core::TrainOptions opts;
    opts.adaptive.quota = 60;
    auto model = lab.trainer->train(*nf, defaults, opts);
    ASSERT_TRUE(model.accelModel(hw::AccelKind::Crypto).has_value());
    EXPECT_FALSE(model.accelModel(hw::AccelKind::Regex).has_value());

    const auto &bench =
        lab.lib->accelBench(hw::AccelKind::Crypto, 150e3, 24000.0);
    const auto &w = lab.trainer->workloadOf(*nf, defaults);
    auto ms = lab.bed.run({w, bench.workload});
    double solo = lab.bed.runSolo(w).truthThroughput;
    double pred = model.predict({bench.level}, defaults, solo);
    EXPECT_NEAR(pred / ms[0].truthThroughput, 1.0, 0.12);
}

} // namespace
} // namespace tomur
