/**
 * @file
 * Unit and property tests for the regex engine: parser, NFA, DFA,
 * generator, and rulesets.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/rng.hh"
#include "regex/dfa.hh"
#include "regex/generator.hh"
#include "regex/matcher.hh"
#include "regex/parser.hh"
#include "regex/ruleset.hh"
#include "traffic/generator.hh"

namespace tomur::regex {
namespace {

std::vector<std::uint8_t>
bytes(const std::string &s)
{
    return {s.begin(), s.end()};
}

std::uint64_t
countIn(const std::string &pattern, const std::string &text,
        bool ci = false)
{
    RuleSet rs;
    rs.name = "test";
    rs.rules = {{"r", pattern, ci}};
    MultiMatcher m(rs);
    auto b = bytes(text);
    return m.scan(b).count;
}

TEST(RegexParser, RejectsBadSyntax)
{
    EXPECT_FALSE(parse("a(b").ok);
    EXPECT_FALSE(parse("[a-").ok);
    EXPECT_FALSE(parse("*a").ok);
    EXPECT_FALSE(parse("a\\").ok);
    EXPECT_FALSE(parse("[z-a]").ok);
}

TEST(RegexParser, AcceptsDialect)
{
    EXPECT_TRUE(parse("abc").ok);
    EXPECT_TRUE(parse("a|b|c").ok);
    EXPECT_TRUE(parse("(ab)+c?").ok);
    EXPECT_TRUE(parse("[a-z0-9_]{2,5}").ok);
    EXPECT_TRUE(parse("\\x13bittorrent").ok);
    EXPECT_TRUE(parse("^anchored$").ok);
    EXPECT_TRUE(parse("a{3}").ok);
    EXPECT_TRUE(parse("a{3,}").ok);
}

TEST(RegexParser, AnchorsDetected)
{
    auto p = parse("^abc$");
    ASSERT_TRUE(p.ok);
    EXPECT_TRUE(p.pattern.anchorStart);
    EXPECT_TRUE(p.pattern.anchorEnd);

    auto q = parse("a$b");
    ASSERT_TRUE(q.ok);
    EXPECT_FALSE(q.pattern.anchorEnd); // '$' mid-pattern is literal
}

TEST(RegexMatch, LiteralCounts)
{
    EXPECT_EQ(countIn("abc", "xxabcxxabc"), 2u);
    EXPECT_EQ(countIn("abc", "ababab"), 0u);
    EXPECT_EQ(countIn("abc", ""), 0u);
}

TEST(RegexMatch, OverlappingEndPositions)
{
    // One event per (rule, end-position): "aa" in "aaaa" ends at
    // positions 2,3,4.
    EXPECT_EQ(countIn("aa", "aaaa"), 3u);
    // "a+" also yields one event per end position.
    EXPECT_EQ(countIn("a+", "aaa"), 3u);
}

TEST(RegexMatch, Alternation)
{
    EXPECT_EQ(countIn("foo|bar", "foo bar foobar"), 4u);
}

TEST(RegexMatch, Classes)
{
    EXPECT_EQ(countIn("[0-9]{3}", "abc123def4567"), 3u); // 123,456,567
    EXPECT_EQ(countIn("[^a]b", "ab bb cb"), 3u); // " b", "bb", "cb"
    EXPECT_EQ(countIn("\\d\\d", "a12b34"), 2u);
    EXPECT_EQ(countIn("\\s", "a b\tc"), 2u);
}

TEST(RegexMatch, Repeats)
{
    EXPECT_EQ(countIn("ab{2,3}c", "abbc abbbc abc abbbbc"), 2u);
    EXPECT_EQ(countIn("ab?c", "ac abc abbc"), 2u);
    EXPECT_EQ(countIn("ab*c", "ac abc abbbbc"), 3u);
}

TEST(RegexMatch, Anchors)
{
    EXPECT_EQ(countIn("^abc", "abcabc"), 1u);
    EXPECT_EQ(countIn("abc$", "abcabc"), 1u);
    EXPECT_EQ(countIn("^abc$", "abc"), 1u);
    EXPECT_EQ(countIn("^abc$", "abcx"), 0u);
    EXPECT_EQ(countIn("^abc$", "xabc"), 0u);
}

TEST(RegexMatch, CaseInsensitive)
{
    EXPECT_EQ(countIn("http", "HTTP http HtTp", true), 3u);
    EXPECT_EQ(countIn("http", "HTTP http HtTp", false), 1u);
}

TEST(RegexMatch, HexEscapes)
{
    std::string text = "x";
    text += '\x13';
    text += "bittorrent";
    EXPECT_EQ(countIn("\\x13bittorrent", text), 1u);
}

TEST(RegexMatch, DotExcludesNewline)
{
    EXPECT_EQ(countIn("a.c", "abc a\nc adc"), 2u);
}

TEST(RegexMatch, MultiRuleCounts)
{
    RuleSet rs = tinyRuleSet();
    MultiMatcher m(rs);
    auto b = bytes("abcd x12y foobaz zzz end");
    // alpha: abcd (1), beta: x12y (1), gamma: foobaz (1),
    // delta: 'end' at end (1)
    EXPECT_EQ(m.scan(b).count, 4u);
    EXPECT_EQ(m.scan(b).rules, 0xfu);
}

TEST(RegexMatch, EmptyPatternRejected)
{
    RuleSet rs;
    rs.name = "bad";
    rs.rules = {{"empty", "a*", false}};
    EXPECT_DEATH({ MultiMatcher m(rs); }, "empty string");
}

TEST(RegexMatch, MoreThan64RulesFatal)
{
    // A rule's bit in the 64-bit mask is its index, so rule 64 would
    // have none. (Death tests run threadsafe-style; see CMakeLists.)
    RuleSet rs;
    rs.name = "wide";
    for (int i = 0; i < 64; ++i)
        rs.rules.push_back({"r" + std::to_string(i), "abc", false});
    EXPECT_EQ(MultiMatcher(rs).numRules(), 64);
    rs.rules.push_back({"r64", "abc", false});
    EXPECT_DEATH({ MultiMatcher m(rs); },
                 "has 65 rules; a matcher takes at most 64");
}

TEST(RegexDfa, AgreesWithNfa)
{
    // Property: per rule, DFA and NFA report identical counts on
    // random inputs (the matcher's fast path equals the reference
    // semantics).
    RuleSet rs = defaultRuleSet();
    Rng rng(42);
    for (const auto &rule : rs.rules) {
        ParseOptions o;
        o.caseInsensitive = rule.caseInsensitive;
        std::vector<Pattern> pats;
        pats.push_back(parseOrDie(rule.pattern, o));
        Nfa nfa(pats);
        auto dfa = Dfa::build(nfa, 4096);
        ASSERT_NE(dfa, nullptr) << rule.name;

        for (int iter = 0; iter < 10; ++iter) {
            std::vector<std::uint8_t> data(200 + rng.uniformInt(400u));
            for (auto &b : data) {
                // Mix printable text and binary to exercise both.
                b = rng.chance(0.7)
                    ? static_cast<std::uint8_t>(
                          rng.uniformInt(0x20, 0x7e))
                    : static_cast<std::uint8_t>(
                          rng.uniformInt(std::int64_t(0), 255));
            }
            // Sometimes embed a signature of this very rule.
            if (rng.chance(0.6)) {
                auto sig = generateMatch(pats[0], rng);
                if (sig.size() < data.size()) {
                    std::size_t pos =
                        rng.uniformInt(data.size() - sig.size());
                    std::copy(sig.begin(), sig.end(),
                              data.begin() + pos);
                }
            }
            EXPECT_EQ(dfa->countMatches(data.data(), data.size()),
                      nfa.countMatches(data.data(), data.size()))
                << rule.name << " iter " << iter;
            EXPECT_EQ(dfa->matchedRules(data.data(), data.size()),
                      nfa.matchedRules(data.data(), data.size()))
                << rule.name << " iter " << iter;
        }
    }
}

/** Every rule's own automaton run alone, as the matcher compiles it
 *  (the DFA within budget, else the NFA): the reference for scan. */
class PerEngineReference
{
  public:
    PerEngineReference(const RuleSet &rs, std::size_t budget)
    {
        for (const auto &rule : rs.rules) {
            ParseOptions o;
            o.caseInsensitive = rule.caseInsensitive;
            std::vector<Pattern> pats;
            pats.push_back(parseOrDie(rule.pattern, o));
            nfas_.push_back(std::make_unique<Nfa>(pats));
            dfas_.push_back(Dfa::build(*nfas_.back(), budget));
        }
    }

    /** Rules that fell back to the NFA. */
    std::size_t
    nfaRules() const
    {
        return std::count(dfas_.begin(), dfas_.end(), nullptr);
    }

    MultiMatcher::ScanResult
    scan(const std::vector<std::uint8_t> &d) const
    {
        MultiMatcher::ScanResult res;
        for (std::size_t i = 0; i < nfas_.size(); ++i) {
            const Dfa *dfa = dfas_[i].get();
            res.count += dfa ? dfa->countMatches(d.data(), d.size())
                             : nfas_[i]->countMatches(d.data(), d.size());
            if (dfa ? dfa->matchedRules(d.data(), d.size())
                    : nfas_[i]->matchedRules(d.data(), d.size()))
                res.rules |= std::uint64_t(1) << i;
        }
        return res;
    }

  private:
    std::vector<std::unique_ptr<Nfa>> nfas_;
    std::vector<std::unique_ptr<Dfa>> dfas_;
};

TEST(RegexScan, EqualsPerEngineReference)
{
    // The interleaved pass must report what each rule's automaton
    // reports alone. The small budgets mix NFA fallback engines in
    // among the DFA lanes.
    struct Case
    {
        RuleSet rules;
        std::size_t budget;
        std::size_t nfaRules;
    };
    const Case cases[] = {
        {defaultRuleSet(), 4096, 0},
        {tinyRuleSet(), 4096, 0},
        {defaultRuleSet(), 100, 7},
        {tinyRuleSet(), 5, 1},
    };
    for (const Case &c : cases) {
        MultiMatcher m(c.rules, c.budget);
        PerEngineReference ref(c.rules, c.budget);
        ASSERT_EQ(ref.nfaRules(), c.nfaRules)
            << c.rules.name << " budget " << c.budget;
        EXPECT_EQ(m.usesDfa(), c.nfaRules == 0);

        std::vector<std::vector<std::uint8_t>> inputs = {
            {}, bytes("end"), bytes("abcd end"), bytes("x12y endend"),
            bytes("get /a http/1.1"), bytes("end\n")};
        Rng rng(c.budget);
        for (int i = 0; i < 500; ++i) {
            // Mixed text and binary, sometimes ending in a '$' match.
            std::vector<std::uint8_t> d(rng.uniformInt(1500u));
            for (auto &b : d) {
                b = rng.chance(0.7)
                    ? static_cast<std::uint8_t>(
                          rng.uniformInt(0x20, 0x7e))
                    : static_cast<std::uint8_t>(
                          rng.uniformInt(std::int64_t(0), 255));
            }
            if (rng.chance(0.3))
                d.insert(d.end(), {'e', 'n', 'd'});
            inputs.push_back(std::move(d));
        }
        for (int i = 0; i < 500; ++i) {
            traffic::TrafficProfile p;
            p.mtbr = rng.uniform(0.0, 20000.0);
            p.packetSize = 64 + rng.uniformInt(1437u);
            traffic::TrafficGen gen(p, &c.rules, i);
            inputs.push_back(gen.makePayload());
        }

        for (std::size_t k = 0; k < inputs.size(); ++k) {
            auto want = ref.scan(inputs[k]);
            auto got = m.scan(inputs[k]);
            EXPECT_EQ(got.count, want.count)
                << c.rules.name << " budget " << c.budget << " input " << k;
            EXPECT_EQ(got.rules, want.rules)
                << c.rules.name << " budget " << c.budget << " input " << k;
        }
    }
}

TEST(RegexGenerator, OutputAlwaysMatches)
{
    // Property: a string generated from pattern P matches P.
    const char *patterns[] = {
        "abc+d",
        "(get|post|head) [\\x21-\\x7e]{1,16} http/1\\.[01]",
        "ssh-[12]\\.[0-9]+-[\\x21-\\x7e]{2,12}",
        "[a-f]{2,8}[0-9]?z",
        "x(y|z){3}w",
    };
    Rng rng(7);
    for (const char *ps : patterns) {
        Pattern p = parseOrDie(ps);
        RuleSet rs;
        rs.name = "gen";
        rs.rules = {{"r", ps, false}};
        MultiMatcher m(rs);
        for (int i = 0; i < 40; ++i) {
            auto s = generateMatch(p, rng);
            ASSERT_FALSE(s.empty());
            EXPECT_GE(m.scan(s).count, 1u)
                << ps << " generated non-matching string";
        }
    }
}

TEST(RegexGenerator, DefaultRulesGenerate)
{
    // Every default rule can synthesize a matching string, and the
    // compiled set detects it.
    RuleSet rs = defaultRuleSet();
    MultiMatcher m(rs);
    Rng rng(99);
    for (std::size_t r = 0; r < rs.rules.size(); ++r) {
        const auto &pat = m.patterns()[r];
        for (int i = 0; i < 10; ++i) {
            auto s = generateMatch(pat, rng);
            std::uint64_t rules = m.scan(s).rules;
            EXPECT_TRUE(rules & (std::uint64_t(1) << r))
                << "rule " << rs.rules[r].name << " iteration " << i;
        }
    }
}

TEST(RegexParser, NonCapturingGroup)
{
    EXPECT_EQ(countIn("(?:ab)+c", "ababc abc xc"), 2u);
}

TEST(RegexParser, RepeatExpansionCapFatal)
{
    // Counted repeats are expanded into the automaton; a cap keeps
    // hostile patterns from exploding it.
    RuleSet rs;
    rs.name = "cap";
    rs.rules = {{"big", "a{1000}", false}};
    EXPECT_DEATH({ MultiMatcher m(rs); }, "expansion cap");
}

TEST(RegexMatch, ClassWithHexRange)
{
    EXPECT_EQ(countIn("[\\x41-\\x43]+z", "ABCz Dz"), 1u);
}

TEST(RegexRuleset, CompilesWithDfa)
{
    MultiMatcher m(defaultRuleSet());
    EXPECT_TRUE(m.usesDfa());
    EXPECT_EQ(m.numRules(), 20);
}

TEST(RegexRuleset, RandomBinaryRarelyMatches)
{
    // Background filler must stay low-MTBR: random high bytes should
    // almost never trigger protocol signatures.
    MultiMatcher m(defaultRuleSet());
    Rng rng(3);
    std::uint64_t total = 0;
    const int kIters = 30;
    for (int i = 0; i < kIters; ++i) {
        std::vector<std::uint8_t> data(1400);
        for (auto &b : data)
            b = static_cast<std::uint8_t>(rng.uniformInt(0x80, 0xff));
        total += m.scan(data).count;
    }
    EXPECT_EQ(total, 0u);
}

} // namespace
} // namespace tomur::regex
