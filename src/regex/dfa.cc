#include "regex/dfa.hh"

#include <algorithm>
#include <bit>
#include <map>

namespace tomur::regex {

namespace {

/**
 * Compute byte equivalence classes: two bytes are equivalent when every
 * Byte state in the NFA either accepts both or rejects both.
 */
int
computeByteClasses(const Nfa &nfa, std::array<std::uint16_t, 256> &cls)
{
    // Signature per byte: membership bit per distinct ByteSet.
    std::vector<const ByteSet *> sets;
    for (const auto &s : nfa.states())
        if (s.kind == NfaState::Kind::Byte)
            sets.push_back(&s.bytes);

    std::map<std::vector<bool>, std::uint16_t> sig_to_class;
    for (int b = 0; b < 256; ++b) {
        std::vector<bool> sig;
        sig.reserve(sets.size());
        for (const ByteSet *s : sets)
            sig.push_back(s->test(b));
        auto [it, inserted] = sig_to_class.try_emplace(
            std::move(sig),
            static_cast<std::uint16_t>(sig_to_class.size()));
        cls[b] = it->second;
    }
    return static_cast<int>(sig_to_class.size());
}

} // namespace

std::unique_ptr<Dfa>
Dfa::build(const Nfa &nfa, std::size_t max_states)
{
    std::unique_ptr<Dfa> dfa(new Dfa);
    dfa->numClasses_ = computeByteClasses(nfa, dfa->byteClass_);

    // Pick one representative byte per class for transition probing.
    std::vector<int> repr(dfa->numClasses_, -1);
    for (int b = 0; b < 256; ++b)
        if (repr[dfa->byteClass_[b]] < 0)
            repr[dfa->byteClass_[b]] = b;

    const std::size_t words = (nfa.numStates() + 63) / 64;
    using StateSet = std::vector<std::uint64_t>;

    std::map<StateSet, std::uint32_t> ids;
    std::vector<StateSet> pending;

    auto intern = [&](StateSet set) -> std::uint32_t {
        auto it = ids.find(set);
        if (it != ids.end())
            return it->second;
        std::uint32_t id = static_cast<std::uint32_t>(ids.size());
        ids.emplace(set, id);
        pending.push_back(std::move(set));
        return id;
    };

    StateSet init(words, 0);
    init[nfa.start() >> 6] |= std::uint64_t(1) << (nfa.start() & 63);
    nfa.closure(init);
    dfa->start_ = intern(std::move(init));

    const auto &states = nfa.states();

    for (std::size_t cur = 0; cur < pending.size(); ++cur) {
        if (pending.size() > max_states)
            return nullptr;
        // Copy: intern() may reallocate pending while we iterate.
        StateSet set = pending[cur];

        std::uint64_t acc = 0, acc_end = 0;
        for (std::size_t w = 0; w < words; ++w) {
            std::uint64_t bits = set[w];
            while (bits) {
                int b = std::countr_zero(bits);
                bits &= bits - 1;
                const NfaState &s = states[w * 64 + b];
                if (s.kind == NfaState::Kind::Accept) {
                    if (s.atEnd)
                        acc_end |= std::uint64_t(1) << s.rule;
                    else
                        acc |= std::uint64_t(1) << s.rule;
                }
            }
        }
        dfa->accept_.push_back(acc);
        dfa->acceptAtEnd_.push_back(acc_end);
        dfa->acceptCount_.push_back(
            static_cast<std::uint8_t>(std::popcount(acc)));

        for (int c = 0; c < dfa->numClasses_; ++c) {
            int byte = repr[c];
            StateSet nxt(words, 0);
            for (std::size_t w = 0; w < words; ++w) {
                std::uint64_t bits = set[w];
                while (bits) {
                    int b = std::countr_zero(bits);
                    bits &= bits - 1;
                    const NfaState &s = states[w * 64 + b];
                    if (s.kind == NfaState::Kind::Byte &&
                        s.bytes.test(byte) && s.next >= 0) {
                        nxt[s.next >> 6] |=
                            std::uint64_t(1) << (s.next & 63);
                    }
                }
            }
            nfa.closure(nxt);
            dfa->trans_.push_back(intern(std::move(nxt)));
        }
    }
    return dfa;
}

std::uint64_t
Dfa::countMatches(const std::uint8_t *data, std::size_t len) const
{
    std::uint64_t count = 0;
    std::uint32_t state = start_;
    for (std::size_t i = 0; i < len; ++i) {
        state = next(state, data[i]);
        count += acceptCount_[state];
    }
    if (len)
        count += std::popcount(acceptAtEnd_[state]);
    return count;
}

std::uint64_t
Dfa::matchedRules(const std::uint8_t *data, std::size_t len) const
{
    std::uint64_t rules = 0;
    std::uint32_t state = start_;
    for (std::size_t i = 0; i < len; ++i) {
        state = next(state, data[i]);
        rules |= accept_[state];
    }
    if (len)
        rules |= acceptAtEnd_[state];
    return rules;
}

} // namespace tomur::regex
