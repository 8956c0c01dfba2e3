/**
 * @file
 * Tests for the Click-like framework: cost accounting, flow table,
 * accelerator devices, NF chains, and workload profiling.
 */

#include <gtest/gtest.h>

#include <unordered_map>

#include "framework/accel_dev.hh"
#include "framework/flow_table.hh"
#include "framework/nf.hh"
#include "framework/profile.hh"
#include "net/headers.hh"
#include "regex/ruleset.hh"
#include "traffic/generator.hh"

namespace tomur::framework {
namespace {

net::Packet
makePacket(std::uint16_t src_port, std::size_t payload = 64)
{
    net::FiveTuple t;
    t.srcIp = net::Ipv4Addr::fromOctets(10, 0, 0, 1);
    t.dstIp = net::Ipv4Addr::fromOctets(192, 168, 0, 1);
    t.srcPort = src_port;
    t.dstPort = 80;
    std::vector<std::uint8_t> pl(payload, 'x');
    return net::PacketBuilder::build(t, pl);
}

TEST(CostContext, AccumulatesAndResets)
{
    CostContext ctx;
    MemRegion r{"tbl", 1024.0, 1.0};
    ctx.addInstructions(100);
    ctx.addMemAccess(r, 3, 1);
    ctx.offload({hw::AccelKind::Regex, 500.0, 2.0});
    EXPECT_DOUBLE_EQ(ctx.instructions(), 100.0);
    EXPECT_DOUBLE_EQ(ctx.memReads(), 3.0);
    EXPECT_DOUBLE_EQ(ctx.memWrites(), 1.0);
    ASSERT_EQ(ctx.offloads().size(), 1u);
    EXPECT_EQ(ctx.regions().at("tbl").accesses, 4.0);
    ctx.reset();
    EXPECT_DOUBLE_EQ(ctx.instructions(), 0.0);
    EXPECT_TRUE(ctx.offloads().empty());
}

TEST(FlowTable, InsertFindGrow)
{
    FlowTable<int> table("t", 4);
    CostContext ctx;
    for (std::uint16_t p = 0; p < 200; ++p) {
        auto pkt = makePacket(1000 + p);
        bool inserted = false;
        int &v = table.findOrInsert(*pkt.fiveTuple(), ctx, &inserted);
        EXPECT_TRUE(inserted);
        v = p;
    }
    EXPECT_EQ(table.size(), 200u);
    // Lookups find the right values after growth.
    for (std::uint16_t p = 0; p < 200; ++p) {
        auto pkt = makePacket(1000 + p);
        int *v = table.find(*pkt.fiveTuple(), ctx);
        ASSERT_NE(v, nullptr);
        EXPECT_EQ(*v, p);
    }
    // Missing key.
    auto pkt = makePacket(9999);
    EXPECT_EQ(table.find(*pkt.fiveTuple(), ctx), nullptr);
    // Footprint grows with entries.
    EXPECT_GT(table.bytes(), 200 * 8.0);
    table.clear();
    EXPECT_EQ(table.size(), 0u);
}

TEST(FlowTable, CostsRecorded)
{
    FlowTable<int> table("cost_t");
    CostContext ctx;
    auto pkt = makePacket(42);
    table.findOrInsert(*pkt.fiveTuple(), ctx);
    EXPECT_GT(ctx.instructions(), 0.0);
    EXPECT_GT(ctx.memReads(), 0.0);
    EXPECT_GT(ctx.memWrites(), 0.0); // insertion writes
}

TEST(RegexDevice, ScansAndRecords)
{
    RegexDevice dev(regex::tinyRuleSet());
    CostContext ctx;
    std::string s = "zzabcdzz";
    std::vector<std::uint8_t> payload(s.begin(), s.end());
    auto res = dev.scan(payload, ctx);
    EXPECT_EQ(res.matchCount, 1u);
    EXPECT_EQ(res.matchedRules, 1u);
    ASSERT_EQ(ctx.offloads().size(), 1u);
    EXPECT_DOUBLE_EQ(ctx.offloads()[0].bytes, 8.0);
    EXPECT_DOUBLE_EQ(ctx.offloads()[0].matches, 1.0);
}

TEST(RegexDevice, NonFunctionalSkips)
{
    RegexDevice dev(regex::tinyRuleSet());
    CostContext ctx;
    ctx.setAccelFunctional(false);
    std::vector<std::uint8_t> payload = {'a', 'b', 'c', 'd'};
    auto res = dev.scan(payload, ctx);
    EXPECT_EQ(res.matchCount, 0u);
    EXPECT_TRUE(ctx.offloads().empty());
}

TEST(CompressionDevice, RoundTrip)
{
    Rng rng(5);
    for (int iter = 0; iter < 20; ++iter) {
        std::vector<std::uint8_t> data(100 + rng.uniformInt(1000u));
        for (auto &b : data) {
            // Compressible: small alphabet with repeats.
            b = static_cast<std::uint8_t>('a' + rng.uniformInt(4u));
        }
        auto compressed = CompressionDevice::lzCompress(data);
        auto restored = CompressionDevice::lzDecompress(compressed);
        ASSERT_EQ(restored, data) << "iter " << iter;
        EXPECT_LT(compressed.size(), data.size());
    }
}

TEST(CompressionDevice, IncompressibleDataSurvives)
{
    Rng rng(6);
    std::vector<std::uint8_t> data(512);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.uniformInt(256u));
    auto compressed = CompressionDevice::lzCompress(data);
    auto restored = CompressionDevice::lzDecompress(compressed);
    EXPECT_EQ(restored, data);
}

TEST(CompressionDevice, EmptyInput)
{
    auto c = CompressionDevice::lzCompress({});
    EXPECT_TRUE(CompressionDevice::lzDecompress(c).empty());
}

/** lzCompress as first written, over a std::unordered_map: the bytes
 *  the table-based version must reproduce exactly. */
std::vector<std::uint8_t>
referenceLzCompress(std::span<const std::uint8_t> input)
{
    std::vector<std::uint8_t> out;
    std::unordered_map<std::uint32_t, std::size_t> table;
    std::size_t lit_start = 0;
    auto flushLiterals = [&](std::size_t end) {
        std::size_t pos = lit_start;
        while (pos < end) {
            std::size_t run = std::min<std::size_t>(128, end - pos);
            out.push_back(static_cast<std::uint8_t>(run - 1));
            out.insert(out.end(), input.begin() + pos,
                       input.begin() + pos + run);
            pos += run;
        }
        lit_start = end;
    };
    std::size_t i = 0;
    while (i + 4 <= input.size()) {
        std::uint32_t h = (std::uint32_t(input[i]) << 16) ^
                          (std::uint32_t(input[i + 1]) << 8) ^
                          input[i + 2];
        auto it = table.find(h);
        std::size_t match_len = 0;
        std::size_t match_pos = 0;
        if (it != table.end()) {
            std::size_t cand = it->second;
            std::size_t dist = i - cand;
            if (dist >= 1 && dist <= 0xffff) {
                std::size_t len = 0;
                std::size_t max_len =
                    std::min<std::size_t>(131, input.size() - i);
                while (len < max_len &&
                       input[cand + len] == input[i + len]) {
                    ++len;
                }
                if (len >= 4) {
                    match_len = len;
                    match_pos = cand;
                }
            }
        }
        table[h] = i;
        if (match_len) {
            flushLiterals(i);
            out.push_back(static_cast<std::uint8_t>(0x80 | (match_len - 4)));
            out.resize(out.size() + 2);
            net::storeBe16(out.data() + out.size() - 2,
                           static_cast<std::uint16_t>(i - match_pos));
            i += match_len;
            lit_start = i;
        } else {
            ++i;
        }
    }
    flushLiterals(input.size());
    return out;
}

TEST(CompressionDevice, BytesEqualHashMapReference)
{
    Rng rng(21);
    std::vector<std::vector<std::uint8_t>> inputs = {{}, {7}};
    for (std::size_t n = 2; n <= 4; ++n) {
        inputs.emplace_back(n, 'a');
        inputs.emplace_back();
        for (std::size_t k = 0; k < n; ++k)
            inputs.back().push_back(static_cast<std::uint8_t>(k));
    }
    inputs.emplace_back(3000, 0);
    std::string text;
    while (text.size() < 5000)
        text += "GET /index.html HTTP/1.1 host: a.example ";
    inputs.emplace_back(text.begin(), text.end());
    for (std::size_t n : {100u, 1500u, 9000u}) {
        inputs.emplace_back(n);
        for (auto &b : inputs.back())
            b = static_cast<std::uint8_t>(rng.uniformInt(256u));
    }
    auto rules = regex::defaultRuleSet();
    traffic::TrafficProfile p;
    p.mtbr = 3000;
    p.packetSize = 1542;
    traffic::TrafficGen gen(p, &rules, 4);
    for (int k = 0; k < 20; ++k)
        inputs.push_back(gen.makePayload());
    // Past 0xffff the distance check decides: a random block repeated
    // twice and a small-alphabet run, both longer than a match can
    // reach back.
    std::vector<std::uint8_t> block(70000);
    for (auto &b : block)
        b = static_cast<std::uint8_t>(rng.uniformInt(256u));
    inputs.push_back(block);
    inputs.back().insert(inputs.back().end(), block.begin(), block.end());
    inputs.emplace_back(200000);
    for (auto &b : inputs.back())
        b = static_cast<std::uint8_t>('a' + rng.uniformInt(3u));

    for (std::size_t k = 0; k < inputs.size(); ++k) {
        auto got = CompressionDevice::lzCompress(inputs[k]);
        EXPECT_EQ(got, referenceLzCompress(inputs[k]))
            << "input " << k << " (" << inputs[k].size() << " bytes)";
        EXPECT_EQ(CompressionDevice::lzDecompress(got), inputs[k])
            << "input " << k;
    }
}

TEST(Nf, ChainStopsOnDrop)
{
    class DropAll : public Element
    {
      public:
        DropAll() : Element("DropAll") {}
        Verdict
        process(net::Packet &, CostContext &) override
        {
            return Verdict::Drop;
        }
    };
    class Counter : public Element
    {
      public:
        Counter() : Element("Counter") {}
        Verdict
        process(net::Packet &, CostContext &) override
        {
            ++count;
            return Verdict::Forward;
        }
        int count = 0;
    };

    NetworkFunction nf("test", ExecutionPattern::RunToCompletion);
    nf.add(std::make_unique<DropAll>());
    auto counter = std::make_unique<Counter>();
    Counter *cp = counter.get();
    nf.add(std::move(counter));

    CostContext ctx;
    auto pkt = makePacket(1);
    EXPECT_EQ(nf.processPacket(pkt, ctx), Verdict::Drop);
    EXPECT_EQ(cp->count, 0);
}

TEST(Nf, MetadataValidation)
{
    NetworkFunction nf("m", ExecutionPattern::Pipeline);
    nf.setCores(4);
    EXPECT_EQ(nf.cores(), 4);
    nf.setQueueCount(hw::AccelKind::Regex, 3);
    EXPECT_EQ(nf.queueCount(hw::AccelKind::Regex), 3);
    EXPECT_EQ(nf.queueCount(hw::AccelKind::Compression), 1);
    nf.setPacedRate(5e6);
    EXPECT_DOUBLE_EQ(nf.pacedRate(), 5e6);
    EXPECT_STREQ(patternName(nf.pattern()), "pipeline");
}

class CountingNf
{
  public:
    /** NF with one flow table, to exercise profiling. */
    static std::unique_ptr<NetworkFunction>
    make()
    {
        class TableElement : public Element
        {
          public:
            TableElement() : Element("T"), table_("profile_table") {}
            Verdict
            process(net::Packet &pkt, CostContext &ctx) override
            {
                auto t = pkt.fiveTuple();
                if (!t)
                    return Verdict::Drop;
                ++table_.findOrInsert(*t, ctx);
                ctx.addInstructions(100);
                return Verdict::Forward;
            }
            void reset() override { table_.clear(); }
            std::vector<MemRegion>
            regions() const override
            {
                return {table_.region()};
            }

          private:
            FlowTable<int> table_;
        };
        auto nf = std::make_unique<NetworkFunction>(
            "counting", ExecutionPattern::RunToCompletion);
        nf->add(std::make_unique<TableElement>());
        return nf;
    }
};

TEST(Profiling, WssTracksFlowCount)
{
    auto nf = CountingNf::make();
    traffic::TrafficProfile small;
    small.flowCount = 1000;
    small.mtbr = 0;
    traffic::TrafficProfile big = small;
    big.flowCount = 100000;

    auto w_small = profileWorkload(*nf, small, nullptr);
    auto w_big = profileWorkload(*nf, big, nullptr);
    EXPECT_GT(w_big.wssBytes, 10 * w_small.wssBytes);
    EXPECT_GT(w_small.instrPerPacket, 0.0);
    EXPECT_GT(w_small.llcReadsPerPacket, 0.0);
}

TEST(Profiling, FrameBytesMatchProfile)
{
    auto nf = CountingNf::make();
    traffic::TrafficProfile p;
    p.packetSize = 512;
    p.mtbr = 0;
    auto w = profileWorkload(*nf, p, nullptr);
    EXPECT_NEAR(w.frameBytes, 512.0, 1.0);
}

TEST(Profiling, RegexUseCaptured)
{
    auto rules = regex::defaultRuleSet();
    DeviceSet dev;
    dev.regex = std::make_shared<RegexDevice>(rules);

    class ScanNf : public Element
    {
      public:
        explicit ScanNf(std::shared_ptr<RegexDevice> d)
            : Element("S"), dev_(std::move(d))
        {
        }
        Verdict
        process(net::Packet &pkt, CostContext &ctx) override
        {
            dev_->scan(pkt.payload(), ctx);
            return Verdict::Forward;
        }

      private:
        std::shared_ptr<RegexDevice> dev_;
    };

    NetworkFunction nf("scan", ExecutionPattern::Pipeline);
    nf.add(std::make_unique<ScanNf>(dev.regex));

    traffic::TrafficProfile p;
    p.mtbr = 600;
    auto w = profileWorkload(nf, p, &rules);
    ASSERT_TRUE(w.usesAccel(hw::AccelKind::Regex));
    const auto &use = w.accelUse(hw::AccelKind::Regex);
    EXPECT_NEAR(use.requestsPerPacket, 1.0, 1e-9);
    EXPECT_GT(use.bytesPerRequest, 1000.0);
    EXPECT_GT(use.matchesPerRequest, 0.1);
    EXPECT_FALSE(w.usesAccel(hw::AccelKind::Compression));
}

TEST(Profiling, MtbrScalesMatches)
{
    auto rules = regex::defaultRuleSet();
    DeviceSet dev;
    dev.regex = std::make_shared<RegexDevice>(rules);
    NetworkFunction nf("scan", ExecutionPattern::Pipeline);
    class ScanNf : public Element
    {
      public:
        explicit ScanNf(std::shared_ptr<RegexDevice> d)
            : Element("S"), dev_(std::move(d))
        {
        }
        Verdict
        process(net::Packet &pkt, CostContext &ctx) override
        {
            dev_->scan(pkt.payload(), ctx);
            return Verdict::Forward;
        }

      private:
        std::shared_ptr<RegexDevice> dev_;
    };
    nf.add(std::make_unique<ScanNf>(dev.regex));

    traffic::TrafficProfile lo, hi;
    lo.mtbr = 100;
    hi.mtbr = 1000;
    auto wl = profileWorkload(nf, lo, &rules);
    auto wh = profileWorkload(nf, hi, &rules);
    EXPECT_GT(wh.accelUse(hw::AccelKind::Regex).matchesPerRequest,
              3 * wl.accelUse(hw::AccelKind::Regex).matchesPerRequest);
}

} // namespace
} // namespace tomur::framework
