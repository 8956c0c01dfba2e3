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

    /** Predict one sample. */
    double predict(const std::vector<double> &features) const;

    /** Predict many samples. */
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
    GbrParams params_;
    double base_ = 0.0;
    std::vector<RegressionTree> trees_;
    bool fitted_ = false;

    /** Warm-start caches: what the fitted model was computed from. */
    std::shared_ptr<const BinnedMatrix> binned_;
    std::uint64_t fitFeatureFp_ = 0;
    std::uint64_t fitLabelFp_ = 0;
};

} // namespace tomur::ml

#endif // TOMUR_ML_GBR_HH
