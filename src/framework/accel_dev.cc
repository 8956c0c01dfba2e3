#include "framework/accel_dev.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"
#include "net/headers.hh"

namespace tomur::framework {

RegexDevice::RegexDevice(const regex::RuleSet &rules)
    : matcher_(rules)
{
}

RegexScanResult
RegexDevice::scan(std::span<const std::uint8_t> payload,
                  CostContext &ctx)
{
    RegexScanResult res;
    if (!ctx.accelFunctional())
        return res;
    const auto found = matcher_.scan(payload);
    res.matchCount = found.count;
    res.matchedRules = found.rules;
    AccelRequest req;
    req.kind = hw::AccelKind::Regex;
    req.bytes = static_cast<double>(payload.size());
    req.matches = static_cast<double>(res.matchCount);
    ctx.offload(req);
    return res;
}

namespace {

constexpr std::size_t minMatchLen = 4;
constexpr std::size_t maxMatchLen = 131;
constexpr std::size_t maxLiteralRun = 128;

std::uint32_t
hash3(const std::uint8_t *p)
{
    return (std::uint32_t(p[0]) << 16) ^ (std::uint32_t(p[1]) << 8) ^
           p[2];
}

} // namespace

std::vector<std::uint8_t>
CompressionDevice::lzCompress(std::span<const std::uint8_t> input)
{
    std::vector<std::uint8_t> out;
    out.reserve(input.size() + input.size() / 64 + 16);
    // The last position of each exact 24-bit hash3 key, in a linear
    // probing table at most half full: a lookup finds what a hash map
    // would, without a heap node per byte. A tag is key + 1; 0 is empty.
    struct Slot
    {
        std::size_t pos;
        std::uint32_t tag;
    };
    const std::size_t slots = std::bit_ceil(std::max<std::size_t>(
        16, 2 * std::min<std::size_t>(input.size(), 1u << 24)));
    const int shift = 64 - std::countr_zero(slots);
    std::vector<Slot> table(slots);

    std::size_t lit_start = 0;
    auto flushLiterals = [&](std::size_t end) {
        std::size_t pos = lit_start;
        while (pos < end) {
            std::size_t run = std::min(maxLiteralRun, end - pos);
            out.push_back(static_cast<std::uint8_t>(run - 1));
            out.insert(out.end(), input.begin() + pos,
                       input.begin() + pos + run);
            pos += run;
        }
        lit_start = end;
    };

    std::size_t i = 0;
    while (i + minMatchLen <= input.size()) {
        const std::uint32_t tag = hash3(input.data() + i) + 1;
        std::size_t s = (tag * 0x9e3779b97f4a7c15ULL) >> shift;
        while (table[s].tag && table[s].tag != tag)
            s = (s + 1) & (slots - 1);
        std::size_t match_len = 0;
        std::size_t match_pos = 0;
        if (table[s].tag) {
            std::size_t cand = table[s].pos;
            std::size_t dist = i - cand;
            if (dist >= 1 && dist <= 0xffff) {
                std::size_t len = 0;
                std::size_t max_len =
                    std::min(maxMatchLen, input.size() - i);
                while (len < max_len &&
                       input[cand + len] == input[i + len]) {
                    ++len;
                }
                if (len >= minMatchLen) {
                    match_len = len;
                    match_pos = cand;
                }
            }
        }
        table[s] = {i, tag};
        if (match_len) {
            flushLiterals(i);
            out.push_back(static_cast<std::uint8_t>(
                0x80 | (match_len - minMatchLen)));
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

std::vector<std::uint8_t>
CompressionDevice::lzDecompress(std::span<const std::uint8_t> input)
{
    std::vector<std::uint8_t> out;
    std::size_t i = 0;
    while (i < input.size()) {
        std::uint8_t ctl = input[i++];
        if (ctl < 0x80) {
            std::size_t run = std::size_t(ctl) + 1;
            if (i + run > input.size())
                fatal("lzDecompress: truncated literal run");
            out.insert(out.end(), input.begin() + i,
                       input.begin() + i + run);
            i += run;
        } else {
            if (i + 2 > input.size())
                fatal("lzDecompress: truncated match token");
            std::size_t len = std::size_t(ctl & 0x7f) + minMatchLen;
            std::size_t dist = net::loadBe16(input.data() + i);
            i += 2;
            if (dist == 0 || dist > out.size())
                fatal("lzDecompress: bad match distance");
            std::size_t from = out.size() - dist;
            for (std::size_t k = 0; k < len; ++k)
                out.push_back(out[from + k]);
        }
    }
    return out;
}

CompressResult
CompressionDevice::compress(std::span<const std::uint8_t> payload,
                            CostContext &ctx)
{
    CompressResult res;
    res.compressedSize = payload.size();
    if (!ctx.accelFunctional())
        return res;
    auto compressed = lzCompress(payload);
    res.compressedSize = compressed.size();
    res.ratio = payload.empty()
        ? 1.0
        : static_cast<double>(compressed.size()) / payload.size();
    AccelRequest req;
    req.kind = hw::AccelKind::Compression;
    req.bytes = static_cast<double>(payload.size());
    req.matches = 0.0;
    ctx.offload(req);
    return res;
}

namespace {

inline std::uint32_t
rotl32(std::uint32_t x, int k)
{
    return (x << k) | (x >> (32 - k));
}

inline void
quarterRound(std::uint32_t s[16], int a, int b, int c, int d)
{
    s[a] += s[b];
    s[d] = rotl32(s[d] ^ s[a], 16);
    s[c] += s[d];
    s[b] = rotl32(s[b] ^ s[c], 12);
    s[a] += s[b];
    s[d] = rotl32(s[d] ^ s[a], 8);
    s[c] += s[d];
    s[b] = rotl32(s[b] ^ s[c], 7);
}

} // namespace

void
CryptoDevice::block(const Key &key, std::uint32_t counter,
                    std::uint8_t out[64])
{
    // RFC 7539 state: constants, 256-bit key, counter, 96-bit nonce.
    std::uint32_t state[16] = {
        0x61707865, 0x3320646e, 0x79622d32, 0x6b206574,
        key.words[0], key.words[1], key.words[2], key.words[3],
        key.words[4], key.words[5], key.words[6], key.words[7],
        counter, key.nonce[0], key.nonce[1], key.nonce[2],
    };
    std::uint32_t working[16];
    for (int i = 0; i < 16; ++i)
        working[i] = state[i];
    for (int round = 0; round < 10; ++round) {
        quarterRound(working, 0, 4, 8, 12);
        quarterRound(working, 1, 5, 9, 13);
        quarterRound(working, 2, 6, 10, 14);
        quarterRound(working, 3, 7, 11, 15);
        quarterRound(working, 0, 5, 10, 15);
        quarterRound(working, 1, 6, 11, 12);
        quarterRound(working, 2, 7, 8, 13);
        quarterRound(working, 3, 4, 9, 14);
    }
    for (int i = 0; i < 16; ++i) {
        std::uint32_t v = working[i] + state[i];
        out[4 * i + 0] = static_cast<std::uint8_t>(v);
        out[4 * i + 1] = static_cast<std::uint8_t>(v >> 8);
        out[4 * i + 2] = static_cast<std::uint8_t>(v >> 16);
        out[4 * i + 3] = static_cast<std::uint8_t>(v >> 24);
    }
}

std::vector<std::uint8_t>
CryptoDevice::chacha20(std::span<const std::uint8_t> input,
                       const Key &key, std::uint32_t counter)
{
    std::vector<std::uint8_t> out(input.begin(), input.end());
    std::uint8_t keystream[64];
    for (std::size_t off = 0; off < out.size(); off += 64) {
        block(key, counter++, keystream);
        std::size_t n = std::min<std::size_t>(64, out.size() - off);
        for (std::size_t i = 0; i < n; ++i)
            out[off + i] ^= keystream[i];
    }
    return out;
}

std::vector<std::uint8_t>
CryptoDevice::encrypt(std::span<const std::uint8_t> payload,
                      CostContext &ctx)
{
    return encrypt(payload, ctx, Key{}, 1);
}

std::vector<std::uint8_t>
CryptoDevice::encrypt(std::span<const std::uint8_t> payload,
                      CostContext &ctx, const Key &key,
                      std::uint32_t counter)
{
    if (!ctx.accelFunctional())
        return {payload.begin(), payload.end()};
    auto out = chacha20(payload, key, counter);
    AccelRequest req;
    req.kind = hw::AccelKind::Crypto;
    req.bytes = static_cast<double>(payload.size());
    req.matches = 0.0;
    ctx.offload(req);
    return out;
}

DeviceSet::DeviceSet(const regex::RuleSet &rules)
    : regex(std::make_shared<RegexDevice>(rules)),
      compression(std::make_shared<CompressionDevice>()),
      crypto(std::make_shared<CryptoDevice>())
{
}

} // namespace tomur::framework
