/**
 * @file
 * Text serialization of the ML models: the field walks behind
 * GradientBoostingRegressor::save() and load() (common/serial.hh).
 * Doubles are written with max_digits10, so reloaded models predict
 * bit-identically.
 */

#include <istream>
#include <limits>
#include <ostream>
#include <type_traits>

#include "common/logging.hh"
#include "common/serial.hh"
#include "ml/gbr.hh"
#include "ml/tree.hh"

namespace tomur::ml {

namespace {

/** Bounds on declared counts. Far above any trained model, they
 *  reject corrupt or hostile counts. */
constexpr std::size_t kMaxTreeNodes = 10'000'000;
constexpr std::size_t kMaxTrees = 1'000'000;

} // namespace

template <class Self, class Sink>
void
RegressionTree::walk(Self &self, Sink &s, std::size_t numFeatures)
{
    s.tag("tree");
    std::size_t n = s.count(self.nodes_, kMaxTreeNodes);
    s.check(n > 0, "empty tree");
    s.endLine();
    // Children must stay in range (or be absent on leaves), and a
    // split's children follow it, as the builder appends nodes in
    // pre-order: then every prediction walk ends at a leaf.
    auto inRange = [&](int idx) {
        return idx >= -1 && idx < static_cast<int>(n);
    };
    s.elements(self.nodes_, n, [&](auto &node) {
        const auto index = &node - self.nodes_.data();
        s.integer(node.feature);
        s.real(node.threshold);
        s.real(node.value);
        s.integer(node.left);
        s.integer(node.right);
        s.check(inRange(node.left) && inRange(node.right),
                "child index out of range");
        s.check(node.feature < 0 ||
                    (node.left > index && node.right > index),
                "split child does not follow the split");
        s.check(node.feature < 0 ||
                    static_cast<std::size_t>(node.feature) <
                        numFeatures,
                "split feature index out of range");
        s.endLine();
    });
}

template <class Self, class Sink>
void
GradientBoostingRegressor::walk(Self &self, Sink &s,
                                std::size_t numFeatures)
{
    s.tag("gbr");
    std::size_t n = s.count(self.trees_, kMaxTrees);
    s.real(self.base_);
    s.real(self.params_.learningRate);
    s.check(self.params_.learningRate > 0.0,
            "learning rate must be positive");
    s.endLine();
    s.elements(self.trees_, n,
               [&](auto &t) { RegressionTree::walk(t, s, numFeatures); });
    // A loaded ensemble is fitted, with the trees it read, and
    // compiled from them.
    s.loaded(self.params_.numTrees, static_cast<int>(n));
    s.loaded(self.fitted_, true);
    if constexpr (!std::is_const_v<Self>) {
        if (s.ok())
            self.compile();
    }
}

template void
GradientBoostingRegressor::walk(const GradientBoostingRegressor &,
                                SerialWriter &, std::size_t);
template void
GradientBoostingRegressor::walk(const GradientBoostingRegressor &,
                                SerialDigest &, std::size_t);
template void
GradientBoostingRegressor::walk(GradientBoostingRegressor &,
                                SerialReader &, std::size_t);

void
GradientBoostingRegressor::save(std::ostream &out) const
{
    if (!fitted_)
        panic("GradientBoostingRegressor::save before fit");
    std::string text;
    SerialWriter w(text);
    // The writer checks nothing, so any width will do.
    walk(*this, w, 0);
    out << text;
}

bool
GradientBoostingRegressor::load(std::istream &in)
{
    // A fresh model keeps this one's other params and drops the
    // warm-start caches: a loaded model matches no in-memory dataset.
    GradientBoostingRegressor m(params_);
    SerialReader r(in);
    walk(m, r, std::numeric_limits<std::size_t>::max());
    if (!r.ok())
        return false;
    *this = std::move(m);
    return true;
}

} // namespace tomur::ml
