/**
 * @file
 * Unit tests for common utilities: RNG, statistics, strings, tables,
 * and the strict JSON reader.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <limits>
#include <set>
#include <sstream>

#include "common/json.hh"
#include "common/ring.hh"
#include "common/rng.hh"
#include "common/serial.hh"
#include "common/stats.hh"
#include "common/strutil.hh"
#include "common/table.hh"

namespace tomur {
namespace {

TEST(Rng, Deterministic)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a(), b());
}

TEST(Rng, SeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a() == b());
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange)
{
    Rng r(5);
    for (int i = 0; i < 1000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
    for (int i = 0; i < 1000; ++i) {
        auto v = r.uniformInt(std::int64_t(-3), std::int64_t(7));
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 7);
    }
}

TEST(Rng, UniformIntCoversAll)
{
    Rng r(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 500; ++i)
        seen.insert(r.uniformInt(std::uint64_t(5)));
    EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformIntDrawsArePinned)
{
    // The draw sequence is part of the determinism contract (goldens,
    // model bytes). Each digest covers 64 draws of uniformInt(n) from
    // a fresh Rng(2026) plus the next raw word, which also pins how
    // many words the draws consumed; 2^63 + 1 rejects about half.
    struct Pin
    {
        std::uint64_t n;
        std::uint64_t digest;
    };
    const std::uint64_t half = std::uint64_t(1) << 63;
    const Pin pins[] = {
        {1, 0x6bb61284f18e72e1},    {2, 0x0b3264e8f4e58c29},
        {3, 0xf3a4bfbee3355d49},    {128, 0x77d5484b7399732c},
        {1000, 0xd87ce2958a179f72}, {half, 0xeb117cfe4bd7cf7e},
        {half + 1, 0x41d14bd430344061},
        {~std::uint64_t(0), 0xcb18dc50e94995f3},
    };
    for (const Pin &p : pins) {
        Rng r(2026);
        std::string draws;
        for (int i = 0; i < 64; ++i)
            draws += std::to_string(r.uniformInt(p.n)) + ' ';
        draws += std::to_string(r());
        EXPECT_EQ(fnv1a64(draws), p.digest) << "n = " << p.n;
    }

    // The payload filler draw, value by value.
    const std::int64_t filler[64] = {
        201, 164, 232, 242, 231, 228, 234, 234, 238, 158, 251,
        168, 239, 221, 188, 223, 155, 151, 222, 179, 138, 161,
        213, 155, 243, 144, 245, 182, 233, 159, 212, 195, 166,
        154, 158, 137, 206, 130, 184, 199, 169, 212, 193, 231,
        224, 152, 174, 146, 240, 203, 231, 147, 242, 234, 243,
        219, 163, 150, 254, 215, 137, 180, 169, 129,
    };
    Rng r(2026);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(r.uniformInt(0x80, 0xff), filler[i]) << "draw " << i;
}

TEST(Rng, NormalMoments)
{
    Rng r(11);
    std::vector<double> xs(20000);
    for (auto &x : xs)
        x = r.normal();
    EXPECT_NEAR(mean(xs), 0.0, 0.05);
    EXPECT_NEAR(stddev(xs), 1.0, 0.05);
}

TEST(Rng, LognormalMedianNearOne)
{
    Rng r(13);
    std::vector<double> xs(20001);
    for (auto &x : xs)
        x = r.lognormalFactor(0.1);
    EXPECT_NEAR(median(xs), 1.0, 0.02);
    for (double x : xs)
        EXPECT_GT(x, 0.0);
}

TEST(Rng, SplitIndependence)
{
    Rng a(17);
    Rng c = a.split();
    EXPECT_NE(a(), c());
}

TEST(Stats, MeanStd)
{
    std::vector<double> xs = {1, 2, 3, 4, 5};
    EXPECT_DOUBLE_EQ(mean(xs), 3.0);
    EXPECT_NEAR(stddev(xs), std::sqrt(2.5), 1e-12);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Stats, Percentiles)
{
    std::vector<double> xs = {10, 20, 30, 40};
    EXPECT_DOUBLE_EQ(percentile(xs, 0), 10.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 100), 40.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 50), 25.0);
    EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
}

TEST(Stats, BoxStatsOrdered)
{
    Rng r(23);
    std::vector<double> xs(1000);
    for (auto &x : xs)
        x = r.uniform();
    BoxStats b = BoxStats::from(xs);
    EXPECT_LE(b.p5, b.p25);
    EXPECT_LE(b.p25, b.p50);
    EXPECT_LE(b.p50, b.p75);
    EXPECT_LE(b.p75, b.p95);
}

TEST(Stats, RunningStats)
{
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    s.add(3);
    s.add(-1);
    s.add(4);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), -1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
}

TEST(Stats, PercentileBadRangePanics)
{
    EXPECT_DEATH(percentile({1.0, 2.0}, 150.0), "out of range");
}

TEST(Strutil, StrfLongOutput)
{
    std::string big(5000, 'y');
    EXPECT_EQ(strf("%s!", big.c_str()).size(), 5001u);
}

TEST(Strutil, Strf)
{
    EXPECT_EQ(strf("x=%d y=%.2f", 3, 1.5), "x=3 y=1.50");
    EXPECT_EQ(strf("%s", ""), "");
}

TEST(Strutil, SplitJoin)
{
    auto parts = split("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(join(parts, "-"), "a-b--c");
}

TEST(BoundedRing, KeepsTheNewestAndCountsEvictions)
{
    BoundedRing<int> ring(3);
    EXPECT_EQ(ring.size(), 0u);
    EXPECT_FALSE(ring.push(1));
    EXPECT_FALSE(ring.push(2));
    EXPECT_FALSE(ring.push(3));
    EXPECT_EQ(ring.evicted(), 0u);
    EXPECT_EQ(ring.snapshot(), (std::vector<int>{1, 2, 3}));
    // Each push past capacity evicts the oldest item.
    EXPECT_TRUE(ring.push(4));
    EXPECT_TRUE(ring.push(5));
    EXPECT_EQ(ring.size(), 3u);
    EXPECT_EQ(ring.evicted(), 2u);
    EXPECT_EQ(ring.snapshot(), (std::vector<int>{3, 4, 5}));
    for (int i = 6; i <= 10; ++i)
        ring.push(i);
    EXPECT_EQ(ring.evicted(), 7u);
    EXPECT_EQ(ring.snapshot(), (std::vector<int>{8, 9, 10}));
    for (std::size_t i = 0; i < ring.size(); ++i)
        EXPECT_EQ(ring[i], static_cast<int>(8 + i)); // oldest first
}

TEST(BoundedRing, CapacityOneKeepsTheLastItem)
{
    BoundedRing<std::string> ring(1);
    ring.push("a");
    ring.push("b");
    ring.push("c");
    EXPECT_EQ(ring.size(), 1u);
    EXPECT_EQ(ring.evicted(), 2u);
    EXPECT_EQ(ring[0], "c");
    // A capacity of 0 is taken as 1.
    BoundedRing<int> zero(0);
    EXPECT_EQ(zero.capacity(), 1u);
    zero.push(1);
    zero.push(2);
    EXPECT_EQ(zero.snapshot(), (std::vector<int>{2}));
}

TEST(BoundedRing, ClearForgetsItemsAndEvictions)
{
    BoundedRing<int> ring(2);
    for (int i = 0; i < 5; ++i)
        ring.push(i);
    ring.clear();
    EXPECT_EQ(ring.size(), 0u);
    EXPECT_EQ(ring.evicted(), 0u);
    EXPECT_EQ(ring.capacity(), 2u);
    // After a clear the ring fills from empty again, in order.
    ring.push(7);
    ring.push(8);
    ring.push(9);
    EXPECT_EQ(ring.snapshot(), (std::vector<int>{8, 9}));
    EXPECT_EQ(ring.evicted(), 1u);
}

TEST(Table, RendersAligned)
{
    AsciiTable t({"NF", "MAPE"});
    t.addRow({"NIDS", "1.5"});
    t.addRow({"FlowMonitor", "4.5"});
    std::string s = t.toString();
    EXPECT_NE(s.find("NIDS"), std::string::npos);
    EXPECT_NE(s.find("FlowMonitor"), std::string::npos);
    // All lines have equal width.
    auto lines = split(s, '\n');
    std::size_t w = lines[0].size();
    for (const auto &l : lines) {
        if (!l.empty()) {
            EXPECT_EQ(l.size(), w);
        }
    }
}

TEST(TableDeath, ArityMismatch)
{
    AsciiTable t({"a", "b"});
    EXPECT_DEATH(t.addRow({"only-one"}), "arity");
}

TEST(Serial, DoubleBytesMatchPrintfAndStream)
{
    // Model files and checkpoint digests depend on these bytes: the
    // to_chars writer must print exactly what %.17g and a stream at
    // precision 17 print.
    using lim = std::numeric_limits<double>;
    std::vector<double> corpus = {
        0.0, -0.0, lim::infinity(), -lim::infinity(), lim::quiet_NaN(),
        -lim::quiet_NaN(), lim::denorm_min(), -lim::denorm_min(),
        lim::min() / 3.0, lim::min(), lim::max(), -lim::max(),
        lim::epsilon(), 1.0, -1.0, 42.0, 1e15, 1e16, 1e17, 123456789.0,
        9007199254740993.0, 0.1, 1.0 / 3.0, 2.5e-300, -7.25e300};
    Rng rng(17);
    for (int i = 0; i < 5000; ++i) {
        std::uint64_t bits = rng();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        corpus.push_back(v);
        corpus.push_back(static_cast<double>(
            static_cast<std::int64_t>(rng.uniformInt(-1000000, 1000000))));
    }
    for (double v : corpus) {
        std::string ours;
        appendSerialDouble(ours, v);
        std::ostringstream stream;
        stream << std::setprecision(17) << v;
        EXPECT_EQ(ours, strf("%.17g", v));
        EXPECT_EQ(ours, stream.str());
    }
}

// ---------------------------------------------------------------
// Strict JSON reader
// ---------------------------------------------------------------

/** The parse error message, or "" when `text` parses. */
std::string
jsonError(const std::string &text)
{
    auto doc = parseJson(text);
    return doc ? "" : doc.status().message();
}

TEST(Json, ParsesEveryKind)
{
    auto doc = parseJson(
        " {\"n\":null,\"t\":true,\"f\":false,\"x\":-1.5e2,"
        "\"s\":\"hi\",\"a\":[1,[2],{}],\"o\":{\"k\":\"v\"}} \n");
    ASSERT_TRUE(doc) << doc.status().toString();
    const JsonValue &v = doc.value();
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.keys(),
              (std::vector<std::string>{"n", "t", "f", "x", "s", "a",
                                        "o"}));
    const JsonValue *null = v.find("n");
    EXPECT_FALSE(null->isNumber() || null->isString() ||
                 null->isObject() || null->asBool());
    EXPECT_TRUE(null->items().empty());
    EXPECT_TRUE(v.find("t")->asBool());
    EXPECT_FALSE(v.find("f")->asBool());
    EXPECT_DOUBLE_EQ(v.find("x")->asNumber(), -150.0);
    EXPECT_EQ(v.find("s")->asString(), "hi");
    ASSERT_EQ(v.find("a")->items().size(), 3u);
    EXPECT_TRUE(v.find("a")->keys().empty());
    EXPECT_EQ(v.find("a")->items()[1].items().size(), 1u);
    EXPECT_TRUE(v.find("a")->items()[2].isObject());
    EXPECT_EQ(v.find("o")->find("k")->asString(), "v");
    EXPECT_EQ(v.find("missing"), nullptr);

    for (const char *scalar : {"0", "-0", "\"\"", "true", "null",
                               "[]", "{}", "1E-2", "12.5e+3"})
        EXPECT_EQ(jsonError(scalar), "") << scalar;
}

TEST(Json, FindLooksOnlyAtTheTopLevel)
{
    auto doc = parseJson("{\"x\":{\"flows\":5},\"y\":[{\"flows\":6}]}");
    ASSERT_TRUE(doc);
    EXPECT_EQ(doc.value().find("flows"), nullptr);
    EXPECT_DOUBLE_EQ(
        doc.value().find("x")->find("flows")->asNumber(), 5.0);
    // find() on a non-object finds nothing.
    EXPECT_EQ(doc.value().find("y")->find("flows"), nullptr);
}

TEST(Json, RefusesWhatRfc8259Refuses)
{
    const std::pair<const char *, const char *> cases[] = {
        {"{\"a\":1,\"a\":2}", "duplicate key 'a'"},
        {"{\"a\":{\"b\":1,\"b\":1}}", "duplicate key 'b'"},
        {"{\"flows\":5}xyz", "trailing characters"},
        {"{\"flows\":5x}", "expected ',' or '}'"},
        {"[1,2] 3", "trailing characters"},
        {"NaN", "unexpected character"},
        {"{\"a\":nan}", "invalid literal"},
        {"{\"a\":Infinity}", "unexpected character"},
        {"-Infinity", "expected a digit"},
        {"+1", "may not start with '+'"},
        {"1e999", "overflows"},
        {"-1e999", "overflows"},
        {"01", "trailing characters"},
        {"1.", "after '.'"},
        {".5", "unexpected character"},
        {"1e", "exponent"},
        {"\"abc", "unterminated string"},
        {"\"a\\", "unterminated string"},
        {"\"\\x\"", "bad escape"},
        {"\"\\u12\"", "four hex digits"},
        {"\"\\ud800\"", "unpaired UTF-16 surrogate"},
        {"\"\\udc00\"", "unpaired UTF-16 surrogate"},
        {"\"a\nb\"", "unescaped control character"},
        {"{\"a\" 1}", "expected ':'"},
        {"{1:2}", "expected a string key"},
        {"{\"a\":1,}", "expected a string key"},
        {"[1,]", "unexpected character"},
        {"[1 2]", "expected ',' or ']'"},
        {"{\"a\":1", "unterminated object"},
        {"[", "unexpected end of input"},
        {"", "unexpected end of input"},
        {"   ", "unexpected end of input"},
        {"tru", "invalid literal"},
    };
    // Duplicates are found among many keys as among few.
    std::string wide = "{";
    for (int i = 0; i < 40; ++i)
        wide += strf("\"k%d\":%d,", i, i);
    EXPECT_EQ(jsonError(wide + "\"k40\":0}"), "");
    EXPECT_NE(jsonError(wide + "\"k17\":0}").find("duplicate key 'k17'"),
              std::string::npos);
    for (const auto &[text, reason] : cases) {
        std::string err = jsonError(text);
        EXPECT_NE(err.find(reason), std::string::npos)
            << "input: " << text << "\nerror: " << err;
        EXPECT_NE(err.find("malformed JSON at byte"),
                  std::string::npos)
            << text;
    }
}

TEST(Json, DepthBombIsAnError)
{
    std::string bomb(100000, '[');
    EXPECT_NE(jsonError(bomb).find("nesting deeper than"),
              std::string::npos);
    std::string objects;
    for (int i = 0; i < 100000; ++i)
        objects += "{\"a\":";
    EXPECT_NE(jsonError(objects).find("nesting deeper than"),
              std::string::npos);

    // The bound itself: kJsonMaxDepth levels parse, one more fails.
    auto nested = [](int depth) {
        return std::string(depth, '[') + std::string(depth, ']');
    };
    EXPECT_EQ(jsonError(nested(kJsonMaxDepth)), "");
    EXPECT_NE(jsonError(nested(kJsonMaxDepth + 1)), "");
}

/** This process's peak resident set in KiB (VmHWM), 0 off Linux. */
long
peakRssKb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtol(line.c_str() + 6, nullptr, 10);
    }
    return 0;
}

TEST(Json, ValueCountBoundsTheTree)
{
    // The bound itself: kJsonMaxValues values parse, one more fails.
    auto zeros = [](std::size_t values) { // the array is value 1
        std::string s = "[0";
        for (std::size_t i = 2; i < values; ++i)
            s += ",0";
        return s + "]";
    };
    EXPECT_EQ(jsonError(zeros(kJsonMaxValues)), "");
    EXPECT_NE(jsonError(zeros(kJsonMaxValues + 1))
                  .find(strf("more than %zu values", kJsonMaxValues)),
              std::string::npos);

    // The largest body the HTTP parser admits by default (1 MiB) as
    // one array of zeros: half a million values. Parsed in full, each
    // would be a tree node of sizeof(JsonValue) bytes, about 50 MB.
    // At the bound the tree is under half the body, and the peak
    // resident set grows by less than twice the body (sanitizer
    // builds keep freed vector buffers and add shadow memory).
    const std::size_t maxBody = 1 << 20;
    EXPECT_LT(kJsonMaxValues * sizeof(JsonValue), maxBody / 2);
    std::string body = "{\"flows\":[0";
    body.reserve(maxBody);
    while (body.size() + 4 <= maxBody)
        body += ",0";
    body += "]}";
    long before = peakRssKb();
    std::string err = jsonError(body);
    long grownKb = peakRssKb() - before;
    RecordProperty("peak_rss_growth_kb", std::to_string(grownKb));
    EXPECT_NE(err.find("more than"), std::string::npos) << err;
    EXPECT_LT(grownKb, static_cast<long>(2 * maxBody / 1024))
        << "peak RSS grew by " << grownKb << " KiB";
}

TEST(Json, DecodesEscapes)
{
    auto doc = parseJson("\"\\\" \\\\ \\/ \\b \\f \\n \\r \\t "
                         "\\u0041 \\u00e9 \\u20ac \\ud83d\\ude00\"");
    ASSERT_TRUE(doc) << doc.status().toString();
    EXPECT_EQ(doc.value().asString(),
              "\" \\ / \b \f \n \r \t A \xc3\xa9 \xe2\x82\xac "
              "\xf0\x9f\x98\x80");
    // Raw bytes >= 0x80 pass through undecoded and unvalidated.
    auto raw = parseJson("\"\xff\xfe\x80\"");
    ASSERT_TRUE(raw);
    EXPECT_EQ(raw.value().asString(), "\xff\xfe\x80");
}

TEST(Json, NumbersFollowTheGrammar)
{
    auto num = [](const char *text) {
        auto doc = parseJson(text);
        EXPECT_TRUE(doc) << text;
        return doc ? doc.value().asNumber() : -1.0;
    };
    EXPECT_DOUBLE_EQ(num("0"), 0.0);
    EXPECT_TRUE(std::signbit(num("-0")));
    EXPECT_DOUBLE_EQ(num("1.25e3"), 1250.0);
    EXPECT_DOUBLE_EQ(num("-7E-1"), -0.7);
    EXPECT_DOUBLE_EQ(num("18446744073709551615"), 18446744073709551615.0);
    // Underflow rounds toward zero; only overflow is refused.
    EXPECT_EQ(num("1e-400"), 0.0);
    EXPECT_DOUBLE_EQ(num("1.7976931348623157e308"), 1.7976931348623157e308);
}

TEST(Json, EscapeRoundTripsRandomBytes)
{
    Rng rng(20261017);
    for (int iter = 0; iter < 2000; ++iter) {
        std::string s;
        std::size_t len = rng.uniformInt(std::uint64_t(48));
        for (std::size_t i = 0; i < len; ++i)
            s.push_back(static_cast<char>(rng.uniformInt(std::uint64_t(256))));
        const std::string escaped = jsonEscape(s);
        auto doc = parseJson(strf("\"%s\"", escaped.c_str()));
        ASSERT_TRUE(doc) << doc.status().toString();
        EXPECT_EQ(doc.value().asString(), s);
        // The same bytes as an object key.
        auto obj = parseJson(strf("{\"%s\":1}", escaped.c_str()));
        ASSERT_TRUE(obj);
        EXPECT_NE(obj.value().find(s), nullptr);
    }
}

TEST(Json, ByteSoupNeverCrashes)
{
    // Seeded and deterministic: the same hostile inputs every run.
    // The property is "no crash, no hang, and a refusal is a
    // positioned InvalidArgument" — not that any soup parses.
    using namespace std::string_literals;
    Rng rng(20260808);
    const std::string alphabet =
        "{}[]:,\"\\/ \t\n0123456789-+.eEtruefalsnulNI\\u00ffd8\x01\x7f\x00"s;
    const std::string seeds[] = {
        "{\"flows\":20000,\"size\":512,\"mtbr\":400}",
        "{\"slo_summary\":{\"objectives\":[{\"name\":\"a\","
        "\"bad\":4,\"burning\":false}],\"events\":2}}",
        "[1,-2.5e3,\"\\u00e9\\n\",true,null,{\"a\":[{}]}]",
    };
    for (int iter = 0; iter < 3000; ++iter) {
        std::string soup;
        if (iter % 2 == 0) {
            std::size_t len = 1 + rng.uniformInt(std::uint64_t(200));
            for (std::size_t i = 0; i < len; ++i)
                soup.push_back(
                    alphabet[rng.uniformInt(alphabet.size())]);
        } else {
            // Mutate a valid document: flip, insert or delete bytes.
            soup = seeds[rng.uniformInt(std::uint64_t(3))];
            std::size_t edits = 1 + rng.uniformInt(std::uint64_t(4));
            for (std::size_t e = 0; e < edits && !soup.empty(); ++e) {
                std::size_t at = rng.uniformInt(soup.size());
                char c = alphabet[rng.uniformInt(alphabet.size())];
                switch (rng.uniformInt(std::uint64_t(3))) {
                  case 0:
                    soup[at] = c;
                    break;
                  case 1:
                    soup.insert(soup.begin() + at, c);
                    break;
                  default:
                    soup.erase(at, 1);
                }
            }
        }
        auto doc = parseJson(soup);
        if (!doc) {
            EXPECT_EQ(doc.status().code(), StatusCode::InvalidArgument);
            EXPECT_EQ(doc.status().message().rfind(
                          "malformed JSON at byte ", 0),
                      0u)
                << soup;
        }
    }
}

} // namespace
} // namespace tomur
