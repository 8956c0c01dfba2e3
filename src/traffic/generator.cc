#include "traffic/generator.hh"

#include <algorithm>

#include "common/logging.hh"
#include "regex/generator.hh"

namespace tomur::traffic {

TrafficGen::TrafficGen(const TrafficProfile &profile,
                       const regex::RuleSet *ruleset,
                       std::uint64_t seed)
    : profile_(profile), rng_(seed)
{
    if (profile_.flowCount == 0)
        fatal("TrafficGen: zero flows");
    payloadLen_ = net::PacketBuilder::payloadForFrame(
        profile_.packetSize, net::IpProto::Udp);
    if (profile_.mtbr > 0.0) {
        if (!ruleset)
            fatal("TrafficGen: MTBR > 0 requires a ruleset");
        for (const auto &r : ruleset->rules) {
            regex::ParseOptions o;
            o.caseInsensitive = r.caseInsensitive;
            patterns_.push_back(
                regex::parseOrDie(r.pattern, o));
        }
    }
}

net::FiveTuple
TrafficGen::flowTuple(std::uint64_t index) const
{
    // Deterministic mapping index -> tuple via splitmix hashing so
    // flows are stable across generator instances with equal seeds.
    std::uint64_t h = index * 0x9e3779b97f4a7c15ULL + 0x1234567;
    std::uint64_t a = splitmix64(h);
    std::uint64_t b = splitmix64(h);
    net::FiveTuple t;
    t.srcIp.value = 0x0a000000u | (a & 0x00ffffffu); // 10.x.x.x
    t.dstIp.value = 0xc0a80000u | ((a >> 24) & 0xffffu); // 192.168.x.x
    t.srcPort = static_cast<std::uint16_t>(1024 + (b & 0x7fff));
    t.dstPort = static_cast<std::uint16_t>(1024 + ((b >> 16) & 0x7fff));
    t.proto = static_cast<std::uint8_t>(net::IpProto::Udp);
    return t;
}

std::vector<std::uint8_t>
TrafficGen::makePayload()
{
    std::vector<std::uint8_t> payload(payloadLen_);
    // Background filler: high bytes that protocol signatures never
    // match (validated by RegexRuleset.RandomBinaryRarelyMatches).
    // Drawn from a local copy: a byte store may alias a member, so
    // drawing from rng_ would reload and store its state per byte.
    Rng filler = rng_;
    for (auto &b : payload)
        b = static_cast<std::uint8_t>(filler.uniformInt(0x80, 0xff));
    rng_ = filler;

    if (profile_.mtbr <= 0.0 || patterns_.empty() || payload.empty())
        return payload;

    // Expected matches for this packet; carry fractions across
    // packets so the long-run density hits the target MTBR.
    double expected =
        profile_.mtbr * static_cast<double>(payloadLen_) / 1e6;
    matchCarry_ += expected;
    int inserts = static_cast<int>(matchCarry_);
    matchCarry_ -= inserts;

    for (int k = 0; k < inserts; ++k) {
        const regex::Pattern &pat =
            patterns_[rng_.uniformInt(patterns_.size())];
        auto sig = regex::generateMatch(pat, rng_);
        if (sig.empty() || sig.size() > payload.size())
            continue;
        std::size_t pos = pat.anchorStart
            ? 0
            : rng_.uniformInt(payload.size() - sig.size() + 1);
        if (pat.anchorEnd)
            pos = payload.size() - sig.size();
        std::copy(sig.begin(), sig.end(), payload.begin() + pos);
    }
    return payload;
}

net::Packet
TrafficGen::next()
{
    std::uint64_t flow = rng_.uniformInt(profile_.flowCount);
    lastFlow_ = flowTuple(flow);
    auto payload = makePayload();
    return net::PacketBuilder::build(lastFlow_, payload, ipId_++);
}

} // namespace tomur::traffic
