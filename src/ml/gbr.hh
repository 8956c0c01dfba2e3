/**
 * @file
 * Gradient-boosting regressor with least-squares loss — the model
 * family SLOMO [42] uses (sklearn's GradientBoostingRegressor) and
 * that Tomur adopts for the memory-subsystem per-resource model.
 */

#ifndef TOMUR_ML_GBR_HH
#define TOMUR_ML_GBR_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <vector>

#include "ml/tree.hh"

namespace tomur::ml {

/** Boosting hyper-parameters (sklearn-like defaults). */
struct GbrParams
{
    int numTrees = 150;
    double learningRate = 0.1;
    int maxDepth = 3;
    std::size_t minSamplesLeaf = 2;
    /** Row subsample fraction per tree (stochastic gradient boosting;
     *  also what makes different seeds yield different models). */
    double subsample = 0.8;
    std::uint64_t seed = 1;
};

/** Two parameter sets that produce identical fits — the guard for
 *  reusing a fitted regressor object as a warm-start seed. */
bool operator==(const GbrParams &a, const GbrParams &b);

/**
 * Least-squares gradient boosting: F_0 = mean(y);
 * F_m = F_{m-1} + lr * tree_m(residuals).
 *
 * Refits warm-start on dataset fingerprints without ever changing
 * the result: a fit on byte-identical features and labels is a
 * no-op (the fitted model already is the answer), a fit on the same
 * features with new labels reuses the cached histogram binning (a
 * pure function of the features), and anything else falls back to a
 * cold fit. Model bytes are identical to a cold fit in every case.
 */
class GradientBoostingRegressor
{
  public:
    explicit GradientBoostingRegressor(GbrParams params = {});

    /** Fit on a dataset (labels taken from the dataset). */
    void fit(const Dataset &data);

    /**
     * Fit sharing a pre-built binning of data's features (the
     * seed-ensemble case: bin once, fit many members). The binning
     * is used only if its fingerprint matches the dataset.
     */
    void fit(const Dataset &data,
             std::shared_ptr<const BinnedMatrix> binned);

    /** Predict one sample, from the compiled node pool. Bit-identical
     *  to summing the per-tree walks in tree order. */
    double predict(std::span<const double> features) const;

    /** Predict many samples (the per-tree walk over dataset rows). */
    std::vector<double>
    predictAll(const Dataset &data) const;

    bool fitted() const { return fitted_; }
    const GbrParams &params() const { return params_; }

    /** Serialize the fitted ensemble to a text stream. */
    void save(std::ostream &out) const;

    /** Load from save() output. A bare ensemble does not know its
     *  feature width, so split indices are not bounded here; a model
     *  file's walk supplies the width. @return false on malformed
     *  input. */
    bool load(std::istream &in);

    /** The one definition of the format save() writes, load()
     *  reads and digests hash (common/serial.hh); instantiated for
     *  SerialWriter and SerialDigest over a const model and for
     *  SerialReader. `numFeatures` is the width of the vectors the
     *  model predicts on (the reader's split-index bound). */
    template <class Self, class Sink>
    static void walk(Self &self, Sink &sink, std::size_t numFeatures);

  private:
    /**
     * The inference form of trees_: every tree's reachable nodes in
     * one struct-of-arrays pool, numbered breadth-first so a split's
     * two children are adjacent (left at child[k], right at
     * child[k] + 1). A leaf stores its value premultiplied by the
     * learning rate and loops to itself (child k - 1, modulo 2^32,
     * and a NaN threshold, which sends every input right), so a
     * tree is walked a fixed `depth` steps with no leaf test.
     * Derived, never serialized or digested: trees_ stays the source
     * of truth, and compile() rebuilds this from it. Never changed
     * once built, so copies of the ensemble share it.
     */
    struct NodePool
    {
        std::vector<std::uint32_t> feature;
        std::vector<double> threshold;
        std::vector<std::uint32_t> child;
        std::vector<double> value;
        std::vector<std::uint32_t> root;  ///< per tree
        std::vector<std::uint32_t> depth; ///< per tree, longest path
    };

    /** Rebuild pool_ from trees_: run by every path that sets them
     *  (fit, and the reader walk behind load and model loads). */
    void compile();

    GbrParams params_;
    double base_ = 0.0;
    std::vector<RegressionTree> trees_;
    std::shared_ptr<const NodePool> pool_;
    bool fitted_ = false;

    /** Warm-start caches: what the fitted model was computed from. */
    std::shared_ptr<const BinnedMatrix> binned_;
    std::uint64_t fitFeatureFp_ = 0;
    std::uint64_t fitLabelFp_ = 0;
};

/** Seed-ensemble average: the members' predictions summed in member
 *  order, then divided by the member count. */
double meanPredict(const std::vector<GradientBoostingRegressor> &members,
                   std::span<const double> features);

} // namespace tomur::ml

#endif // TOMUR_ML_GBR_HH
