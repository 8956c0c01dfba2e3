/**
 * @file
 * Thompson NFA construction for one or many patterns.
 *
 * Multiple patterns are combined into one automaton whose accept
 * states are tagged with rule ids, so a single scan over a payload
 * reports matches for the whole ruleset (as a hardware regex engine
 * such as the BlueField RXP does).
 */

#ifndef TOMUR_REGEX_NFA_HH
#define TOMUR_REGEX_NFA_HH

#include <cstdint>
#include <vector>

#include "regex/ast.hh"

namespace tomur::regex {

/** Maximum rules in one combined automaton (accept masks are 64-bit). */
constexpr int maxRules = 64;

/** One NFA state. */
struct NfaState
{
    enum class Kind : std::uint8_t { Split, Byte, Accept };

    Kind kind = Kind::Split;
    ByteSet bytes;     ///< for Byte states
    int next = -1;     ///< Byte target / Split first branch
    int next2 = -1;    ///< Split second branch
    int rule = -1;     ///< for Accept states
    bool atEnd = false; ///< accept only at end of input ('$')
};

/**
 * Combined Thompson NFA over a ruleset.
 *
 * Unanchored patterns are prefixed with an implicit ".*" self-loop so
 * matches may start anywhere; '^'-anchored patterns are reachable only
 * from the initial closure.
 */
class Nfa
{
  public:
    /** Build from parsed patterns (at most maxRules). */
    explicit Nfa(const std::vector<Pattern> &patterns);

    int start() const { return start_; }
    const std::vector<NfaState> &states() const { return states_; }
    std::size_t numStates() const { return states_.size(); }
    int numRules() const { return numRules_; }

    /** True if rule accepts the empty string (match count would be
     *  ill-defined; such rules are rejected at build time). */
    static bool matchesEmpty(const Node &n);

    /**
     * Epsilon closure of a state set (bitset representation, one bit
     * per state packed into 64-bit words).
     */
    void closure(std::vector<std::uint64_t> &set) const;

    /**
     * Count match events by direct NFA simulation: one event per
     * (rule, end-position) pair. Used as the reference semantics and
     * as fallback when DFA construction exceeds its state budget.
     */
    std::uint64_t countMatches(const std::uint8_t *data,
                               std::size_t len) const;

    /** Bitmask of rules that match at least once in the input. */
    std::uint64_t matchedRules(const std::uint8_t *data,
                               std::size_t len) const;

    /** Both of the above in one pass; either output may be null. */
    void simulate(const std::uint8_t *data, std::size_t len,
                  std::uint64_t *match_count,
                  std::uint64_t *matched_rules) const;

  private:
    /** Fragment under construction: entry state + dangling outs. */
    struct Frag
    {
        int start = -1;
        /** (state index, slot): slot 0 patches next, 1 patches next2 */
        std::vector<std::pair<int, int>> outs;
    };

    int addState(NfaState s);
    void patch(const Frag &f, int target);
    Frag build(const Node &n);

    std::vector<NfaState> states_;
    int start_ = -1;
    int numRules_ = 0;
};

} // namespace tomur::regex

#endif // TOMUR_REGEX_NFA_HH
