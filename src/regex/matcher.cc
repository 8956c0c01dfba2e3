#include "regex/matcher.hh"

#include <array>
#include <bit>

#include "common/logging.hh"
#include "common/strutil.hh"

namespace tomur::regex {

std::vector<Pattern>
MultiMatcher::parseAll(const RuleSet &rules)
{
    std::vector<Pattern> out;
    out.reserve(rules.rules.size());
    for (const Rule &r : rules.rules) {
        ParseOptions opts;
        opts.caseInsensitive = r.caseInsensitive;
        auto res = parse(r.pattern, opts);
        if (!res.ok) {
            fatal(strf("ruleset '%s', rule '%s': %s",
                       rules.name.c_str(), r.name.c_str(),
                       res.error.c_str()));
        }
        out.push_back(std::move(res.pattern));
    }
    return out;
}

MultiMatcher::MultiMatcher(const RuleSet &rules,
                           std::size_t dfa_state_budget)
    : patterns_(parseAll(rules))
{
    if (patterns_.empty())
        fatal(strf("ruleset '%s' is empty", rules.name.c_str()));
    if (patterns_.size() > maxRules) {
        fatal(strf("ruleset '%s' has %zu rules; a matcher takes at "
                   "most %zu",
                   rules.name.c_str(), patterns_.size(), maxRules));
    }
    names_.reserve(rules.rules.size());
    for (const Rule &r : rules.rules)
        names_.push_back(r.name);

    engines_.reserve(patterns_.size());
    for (std::size_t i = 0; i < patterns_.size(); ++i) {
        Engine e;
        // Single-pattern NFA: the automaton still tags accepts with
        // rule id 0; the engine index supplies the real rule id.
        std::vector<Pattern> one;
        one.push_back(Pattern{patterns_[i].root->clone(),
                              patterns_[i].anchorStart,
                              patterns_[i].anchorEnd,
                              patterns_[i].source});
        e.nfa = std::make_unique<Nfa>(one);
        e.dfa = Dfa::build(*e.nfa, dfa_state_budget);
        if (e.dfa) {
            lanes_.push_back({e.dfa.get(), i});
        } else {
            warn(strf("rule '%s': DFA budget exceeded, using NFA path",
                      names_[i].c_str()));
        }
        engines_.push_back(std::move(e));
    }
}

bool
MultiMatcher::usesDfa() const
{
    return lanes_.size() == engines_.size();
}

MultiMatcher::ScanResult
MultiMatcher::scan(std::span<const std::uint8_t> data) const
{
    ScanResult res;
    const std::size_t n = lanes_.size();
    std::array<std::uint32_t, maxRules> state{};
    std::array<std::uint64_t, maxRules> count{};
    for (std::size_t l = 0; l < n; ++l)
        state[l] = lanes_[l].dfa->start();
    for (std::uint8_t byte : data) {
        for (std::size_t l = 0; l < n; ++l) {
            state[l] = lanes_[l].dfa->next(state[l], byte);
            count[l] += lanes_[l].dfa->acceptCount(state[l]);
        }
    }
    for (std::size_t l = 0; l < n; ++l) {
        if (!data.empty())
            count[l] +=
                std::popcount(lanes_[l].dfa->acceptAtEnd(state[l]));
        res.count += count[l];
        if (count[l])
            res.rules |= std::uint64_t(1) << lanes_[l].rule;
    }
    for (std::size_t i = 0; i < engines_.size(); ++i) {
        if (engines_[i].dfa)
            continue;
        std::uint64_t c = 0, r = 0;
        engines_[i].nfa->simulate(data.data(), data.size(), &c, &r);
        res.count += c;
        if (r)
            res.rules |= std::uint64_t(1) << i;
    }
    return res;
}

} // namespace tomur::regex
