/**
 * @file
 * Least-squares regression tree (CART), the base learner for the
 * gradient-boosting regressor. Growth runs on a histogram-binned
 * view of the dataset: per-node split search walks O(bins)
 * cumulative sums with the histogram-subtraction trick instead of
 * sorting row slices.
 */

#ifndef TOMUR_ML_TREE_HH
#define TOMUR_ML_TREE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ml/binned.hh"
#include "ml/dataset.hh"

namespace tomur::ml {

/** Tree growth parameters. */
struct TreeParams
{
    int maxDepth = 3;
    std::size_t minSamplesLeaf = 2;
};

/** One histogram cell: label sum + row count of a bin. */
struct HistBin
{
    double sum = 0.0;
    std::uint32_t count = 0;
};

/**
 * Reusable growth scratch: the histogram arena (one slot per live
 * node level) and the row-partition buffers. A boosting loop keeps
 * one TreeScratch and passes it to every fitBinned call, so no tree
 * after the first allocates.
 */
class TreeScratch
{
  private:
    friend class RegressionTree;
    std::vector<HistBin> hist_;     ///< slots_ * totalBins_ cells
    std::vector<std::size_t> rows_; ///< in-place partitioned rows
    std::vector<std::size_t> tmp_;  ///< stable-partition staging
    std::size_t totalBins_ = 0;
    int slots_ = 0;
};

/**
 * Binary regression tree fit by greedy least-squares splits over
 * histogram bins (lossless vs the exact-greedy scan when every
 * feature has at most max_bins distinct values).
 */
class RegressionTree
{
  public:
    /**
     * Fit on a subset of rows of a dataset. Convenience wrapper
     * that bins the dataset just for this fit — boosting loops
     * should bin once and call fitBinned per tree instead.
     * @param data feature matrix provider
     * @param labels regression targets (may differ from data labels,
     *        e.g. boosting residuals), index-aligned with data rows
     * @param rows indices of rows to train on
     */
    void fit(const Dataset &data, const std::vector<double> &labels,
             const std::vector<std::size_t> &rows,
             const TreeParams &params);

    /**
     * Fit on a pre-binned dataset view.
     * @param scratch optional reusable growth buffers (histograms,
     *        partitions); pass the same object across trees to
     *        amortize allocation. nullptr uses a local scratch.
     */
    void fitBinned(const BinnedMatrix &binned,
                   const std::vector<double> &labels,
                   const std::vector<std::size_t> &rows,
                   const TreeParams &params,
                   TreeScratch *scratch = nullptr);

    /** Predict one dataset row without materializing it (fitting
     *  and batch prediction; single samples go through the
     *  ensemble's compiled pool). */
    double predictRow(const Dataset &data, std::size_t i) const;

    /** Number of nodes (0 before fit). */
    std::size_t numNodes() const { return nodes_.size(); }

    /** Depth of the fitted tree. */
    int depth() const;

    /** The tree's field walk, run by its ensemble's
     *  (common/serial.hh). A load rejects a split on a feature index
     *  at or above `numFeatures`, so a prediction needs no bounds
     *  check. */
    template <class Self, class Sink>
    static void walk(Self &self, Sink &sink, std::size_t numFeatures);

  private:
    /** Compiles trees into its node pool. */
    friend class GradientBoostingRegressor;

    struct Node
    {
        int feature = -1;       ///< -1 for leaves
        double threshold = 0.0; ///< go left when x[feature] <= threshold
        double value = 0.0;     ///< leaf prediction
        int left = -1;
        int right = -1;
    };

    int growBinned(const BinnedMatrix &binned,
                   const std::vector<double> &labels,
                   std::size_t begin, std::size_t end, int depth,
                   int slot, double sum, const TreeParams &params,
                   TreeScratch &scratch);

    std::vector<Node> nodes_;
};

} // namespace tomur::ml

#endif // TOMUR_ML_TREE_HH
