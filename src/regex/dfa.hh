/**
 * @file
 * Subset-construction DFA with byte equivalence classes.
 *
 * The DFA is the fast path for payload scanning. Construction is
 * bounded by a state budget; when a ruleset blows past the budget the
 * caller falls back to NFA simulation (see matcher.hh).
 */

#ifndef TOMUR_REGEX_DFA_HH
#define TOMUR_REGEX_DFA_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "regex/nfa.hh"

namespace tomur::regex {

/**
 * Deterministic automaton over byte equivalence classes.
 */
class Dfa
{
  public:
    /**
     * Attempt subset construction.
     * @param nfa source automaton
     * @param max_states state budget
     * @return the DFA, or nullptr when the budget is exceeded
     */
    static std::unique_ptr<Dfa> build(const Nfa &nfa,
                                      std::size_t max_states = 8192);

    /** Number of DFA states. */
    std::size_t numStates() const { return accept_.size(); }

    /** Number of byte equivalence classes. */
    int numClasses() const { return numClasses_; }

    /**
     * Count match events: one per (rule, end-position) pair, plus
     * end-anchored accepts at the final byte.
     */
    std::uint64_t countMatches(const std::uint8_t *data,
                               std::size_t len) const;

    /** Bitmask of rules matching at least once. */
    std::uint64_t matchedRules(const std::uint8_t *data,
                               std::size_t len) const;

    /** Start state; with next() and the accept views below, one step
     *  of the scan loops (MultiMatcher::scan runs many at once). */
    std::uint32_t start() const { return start_; }

    std::uint32_t
    next(std::uint32_t state, std::uint8_t byte) const
    {
        return trans_[state * numClasses_ + byteClass_[byte]];
    }

    /** Unanchored-end match events on entering state. */
    unsigned acceptCount(std::uint32_t s) const { return acceptCount_[s]; }

    /** '$'-anchored rules accepting when the input ends in state s. */
    std::uint64_t acceptAtEnd(std::uint32_t s) const { return acceptAtEnd_[s]; }

  private:
    Dfa() = default;

    /** byte -> equivalence class */
    std::array<std::uint16_t, 256> byteClass_{};
    int numClasses_ = 0;
    /** state*numClasses + class -> next state */
    std::vector<std::uint32_t> trans_;
    /** per-state rule accept mask (unanchored-end rules) */
    std::vector<std::uint64_t> accept_;
    /** per-state rule accept mask for '$'-anchored rules */
    std::vector<std::uint64_t> acceptAtEnd_;
    /** per-state popcount(accept_) cached for the counting loop */
    std::vector<std::uint8_t> acceptCount_;
    std::uint32_t start_ = 0;
};

} // namespace tomur::regex

#endif // TOMUR_REGEX_DFA_HH
