#include "ml/dataset.hh"

#include <cstring>
#include <numeric>

#include "common/logging.hh"
#include "common/strutil.hh"

namespace tomur::ml {

namespace {

/** FNV-1a over the raw bytes of a double. */
inline std::uint64_t
fnvMix(std::uint64_t h, double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    for (int i = 0; i < 8; ++i) {
        h ^= (bits >> (8 * i)) & 0xff;
        h *= 0x100000001b3ULL;
    }
    return h;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

} // namespace

Dataset::Dataset(std::vector<std::string> feature_names)
    : names_(std::move(feature_names))
{
}

void
Dataset::ensureCapacity(std::size_t rows)
{
    if (rows <= stride_)
        return;
    std::size_t grown = stride_ == 0 ? 64 : stride_ * 2;
    while (grown < rows)
        grown *= 2;
    // Repack: every column moves to its new stride-aligned slot (an
    // empty dataset has nothing to move, and no buffer to move from).
    std::vector<double> next(grown * names_.size());
    for (std::size_t f = 0; f < names_.size() && size() > 0; ++f) {
        std::memcpy(next.data() + f * grown,
                    cols_.data() + f * stride_,
                    size() * sizeof(double));
    }
    cols_ = std::move(next);
    stride_ = grown;
}

void
Dataset::add(const std::vector<double> &features, double label)
{
    if (names_.empty() && y_.empty()) {
        // Unnamed dataset: adopt arity from the first row.
        names_.resize(features.size());
        for (std::size_t i = 0; i < names_.size(); ++i)
            names_[i] = strf("f%zu", i);
    }
    if (features.size() != names_.size())
        panic(strf("Dataset::add: arity %zu != %zu", features.size(),
                   names_.size()));
    std::size_t i = size();
    ensureCapacity(i + 1);
    for (std::size_t f = 0; f < names_.size(); ++f)
        cols_[f * stride_ + i] = features[f];
    y_.push_back(label);
}

std::vector<double>
Dataset::row(std::size_t i) const
{
    std::vector<double> out(names_.size());
    for (std::size_t f = 0; f < names_.size(); ++f)
        out[f] = cols_[f * stride_ + i];
    return out;
}

std::uint64_t
Dataset::featureFingerprint() const
{
    std::uint64_t h = fnvMix(kFnvBasis,
                             static_cast<double>(size()));
    h = fnvMix(h, static_cast<double>(numFeatures()));
    for (std::size_t i = 0; i < size(); ++i) {
        for (std::size_t f = 0; f < names_.size(); ++f)
            h = fnvMix(h, cols_[f * stride_ + i]);
    }
    return h;
}

std::uint64_t
Dataset::labelFingerprint() const
{
    std::uint64_t h = fnvMix(kFnvBasis,
                             static_cast<double>(size()));
    for (double v : y_)
        h = fnvMix(h, v);
    return h;
}

std::pair<Dataset, Dataset>
Dataset::split(double test_fraction, Rng &rng) const
{
    if (test_fraction < 0.0 || test_fraction > 1.0)
        panic("Dataset::split: bad fraction");
    std::vector<std::size_t> idx(size());
    std::iota(idx.begin(), idx.end(), 0);
    rng.shuffle(idx);
    std::size_t n_test =
        static_cast<std::size_t>(test_fraction * size());
    Dataset train(names_), test(names_);
    for (std::size_t k = 0; k < idx.size(); ++k) {
        auto &dst = k < n_test ? test : train;
        dst.add(row(idx[k]), y_[idx[k]]);
    }
    return {std::move(train), std::move(test)};
}

void
Dataset::append(const Dataset &other)
{
    if (!other.empty() && !empty() &&
        other.numFeatures() != numFeatures()) {
        panic("Dataset::append: arity mismatch");
    }
    if (empty())
        names_ = other.names_;
    for (std::size_t i = 0; i < other.size(); ++i)
        add(other.row(i), other.y_[i]);
}

} // namespace tomur::ml
