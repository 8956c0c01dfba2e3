/**
 * @file
 * Multi-pattern matcher: the functional model of a hardware regex
 * engine. Compiles a ruleset once, then scans payloads counting match
 * events exactly as rxpbench-style tooling reports them.
 */

#ifndef TOMUR_REGEX_MATCHER_HH
#define TOMUR_REGEX_MATCHER_HH

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "regex/dfa.hh"
#include "regex/nfa.hh"
#include "regex/parser.hh"

namespace tomur::regex {

/** One named rule of a ruleset. */
struct Rule
{
    std::string name;
    std::string pattern;
    bool caseInsensitive = false;
};

/** A named collection of rules (e.g. the L7-filter protocol set). */
struct RuleSet
{
    std::string name;
    std::vector<Rule> rules;
};

/**
 * Compiled multi-pattern matcher.
 *
 * Each rule compiles to its own NFA and (budget permitting) DFA; a
 * scan runs every rule's automaton over the payload. Per-rule DFAs
 * stay small even when a combined automaton would blow up, which is
 * also how multi-engine hardware matchers partition rule groups.
 * Counts are one event per (rule, end-offset).
 */
class MultiMatcher
{
  public:
    /** Compile a ruleset (fatal() on any parse error). */
    explicit MultiMatcher(const RuleSet &rules,
                          std::size_t dfa_state_budget = 4096);

    /** Number of rules compiled. */
    int numRules() const { return static_cast<int>(engines_.size()); }

    /** Most rules a matcher takes: one bit each in a rule mask. */
    static constexpr std::size_t maxRules = 64;

    /** True when every rule uses the DFA fast path. */
    bool usesDfa() const;

    /** What one scan of a payload finds. */
    struct ScanResult
    {
        std::uint64_t count = 0; ///< match events
        std::uint64_t rules = 0; ///< bitmask of rules that matched
    };

    /**
     * Scan a payload once. Every DFA rule is a lane stepped on each
     * byte, so the lanes' table walks overlap instead of running one
     * after another; rules on the NFA fallback are simulated after.
     */
    ScanResult scan(std::span<const std::uint8_t> data) const;

    /** Access the parsed patterns (e.g. for payload generation). */
    const std::vector<Pattern> &patterns() const { return patterns_; }

    /** Rule names, index-aligned with pattern/rule ids. */
    const std::vector<std::string> &ruleNames() const { return names_; }

  private:
    static std::vector<Pattern> parseAll(const RuleSet &rules);

    /** One rule's compiled automata. */
    struct Engine
    {
        std::unique_ptr<Nfa> nfa;
        std::unique_ptr<Dfa> dfa; ///< null if over budget
    };

    /** A DFA engine's slot in the scan loop. */
    struct Lane
    {
        const Dfa *dfa;
        std::size_t rule;
    };

    std::vector<Pattern> patterns_;
    std::vector<std::string> names_;
    std::vector<Engine> engines_;
    std::vector<Lane> lanes_;
};

} // namespace tomur::regex

#endif // TOMUR_REGEX_MATCHER_HH
