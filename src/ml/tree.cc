#include "ml/tree.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"
#include "common/threadpool.hh"

namespace tomur::ml {

namespace {

/** Below this many row*feature cells histogram work stays serial. */
constexpr std::size_t kParallelSplitWork = 4096;

/** Row-block width for large-node histogram builds. The block
 *  decomposition is fixed (independent of pool width), so block
 *  merges sum partials in the same order at any TOMUR_THREADS. */
constexpr std::size_t kRowBlock = 4096;

/** A node needs at least this many rows before the histogram build
 *  fans out over fixed row blocks instead of features. */
constexpr std::size_t kRowParallelRows = 2 * kRowBlock;

/**
 * Accumulate one feature's histogram over a row set. Codes are
 * feature-contiguous, so the walk touches one code column.
 */
void
accumulateFeature(const BinnedMatrix &bm,
                  const std::vector<double> &labels,
                  const std::size_t *rows, std::size_t n,
                  std::size_t f, HistBin *hist)
{
    const std::uint16_t *codes = bm.codesOf(f);
    HistBin *h = hist + bm.binStart(f);
    for (std::size_t k = 0; k < n; ++k) {
        std::size_t r = rows[k];
        HistBin &cell = h[codes[r]];
        cell.sum += labels[r];
        ++cell.count;
    }
}

/**
 * Build a node's histogram (all features) into `hist`, which is
 * zeroed here. Large nodes fan out over fixed row blocks (partials
 * merged in block order), mid-size nodes over features; both
 * decompositions depend only on the node shape, never on the pool
 * width, so the result is bit-identical at any TOMUR_THREADS.
 */
void
buildHist(const BinnedMatrix &bm, const std::vector<double> &labels,
          const std::size_t *rows, std::size_t n, HistBin *hist)
{
    const std::size_t n_feat = bm.numFeatures();
    const std::size_t total = bm.totalBins();
    std::fill(hist, hist + total, HistBin{});

    if (n >= kRowParallelRows) {
        std::size_t n_blocks = (n + kRowBlock - 1) / kRowBlock;
        auto partials = parallelMap(n_blocks, [&](std::size_t b) {
            std::vector<HistBin> part(total);
            std::size_t lo = b * kRowBlock;
            std::size_t hi = std::min(n, lo + kRowBlock);
            for (std::size_t f = 0; f < n_feat; ++f) {
                accumulateFeature(bm, labels, rows + lo, hi - lo, f,
                                  part.data());
            }
            return part;
        });
        for (const auto &part : partials) {
            for (std::size_t c = 0; c < total; ++c) {
                hist[c].sum += part[c].sum;
                hist[c].count += part[c].count;
            }
        }
    } else if (n * n_feat >= kParallelSplitWork) {
        parallelFor(n_feat, [&](std::size_t f) {
            accumulateFeature(bm, labels, rows, n, f, hist);
        });
    } else {
        for (std::size_t f = 0; f < n_feat; ++f)
            accumulateFeature(bm, labels, rows, n, f, hist);
    }
}

/** Best split found by the bin scan (feature < 0 when none). */
struct BinnedSplit
{
    double gain = 1e-12; // minimum useful SSE reduction
    int feature = -1;
    double threshold = 0.0;
    std::uint16_t splitCode = 0; ///< rows with code <= this go left
    double leftSum = 0.0;
    std::size_t leftCount = 0;
};

/**
 * Scan one feature's histogram for the best split. Candidates sit
 * between adjacent occupied bins, walked in ascending value order
 * with a strict '>' — exactly the exact-greedy scan's candidate set
 * and tie-breaking, so on lossless binnings (one value per bin) the
 * chosen threshold 0.5 * (hi(left bin) + lo(right bin)) is the same
 * midpoint between adjacent node values the sort-based scan picked.
 */
void
scanFeature(const BinnedMatrix &bm, const HistBin *hist,
            std::size_t f, std::size_t n, double total_sum,
            const TreeParams &params, BinnedSplit &best)
{
    const std::size_t base = bm.binStart(f);
    const std::size_t n_bins = bm.numBins(f);
    const HistBin *h = hist + base;
    const double dn = static_cast<double>(n);

    double left_sum = 0.0;
    std::size_t left_cnt = 0;
    std::size_t prev = n_bins; // last occupied bin (none yet)
    for (std::size_t b = 0; b < n_bins; ++b) {
        if (h[b].count == 0)
            continue;
        if (prev != n_bins && left_cnt >= params.minSamplesLeaf &&
            n - left_cnt >= params.minSamplesLeaf) {
            double right_sum = total_sum - left_sum;
            std::size_t right_cnt = n - left_cnt;
            // SSE reduction = sum^2/n terms (constant part cancels).
            double gain = left_sum * left_sum / left_cnt +
                          right_sum * right_sum / right_cnt -
                          total_sum * total_sum / dn;
            if (gain > best.gain) {
                best.gain = gain;
                best.feature = static_cast<int>(f);
                best.threshold = 0.5 * (bm.binHi(base + prev) +
                                        bm.binLo(base + b));
                best.splitCode = static_cast<std::uint16_t>(prev);
                best.leftSum = left_sum;
                best.leftCount = left_cnt;
            }
        }
        left_sum += h[b].sum;
        left_cnt += h[b].count;
        prev = b;
    }
}

} // namespace

void
RegressionTree::fit(const Dataset &data,
                    const std::vector<double> &labels,
                    const std::vector<std::size_t> &rows,
                    const TreeParams &params)
{
    if (rows.empty())
        panic("RegressionTree::fit: no rows");
    BinnedMatrix binned = BinnedMatrix::build(data);
    fitBinned(binned, labels, rows, params);
}

void
RegressionTree::fitBinned(const BinnedMatrix &binned,
                          const std::vector<double> &labels,
                          const std::vector<std::size_t> &rows,
                          const TreeParams &params,
                          TreeScratch *scratch)
{
    nodes_.clear();
    if (rows.empty())
        panic("RegressionTree::fit: no rows");

    TreeScratch local;
    TreeScratch &sc = scratch ? *scratch : local;
    // Arena: one histogram slot for the root plus two child slots
    // per depth level of the DFS spine. Reused across nodes, trees
    // and fits; only grows.
    sc.totalBins_ = binned.totalBins();
    sc.slots_ = 1 + 2 * std::max(1, params.maxDepth);
    std::size_t arena =
        static_cast<std::size_t>(sc.slots_) * sc.totalBins_;
    if (sc.hist_.size() < arena)
        sc.hist_.resize(arena);
    sc.rows_.assign(rows.begin(), rows.end());
    if (sc.tmp_.size() < rows.size())
        sc.tmp_.resize(rows.size());

    // Root mean in row order, matching the pre-binned fit exactly.
    double sum = 0.0;
    for (std::size_t r : rows)
        sum += labels[r];

    buildHist(binned, labels, sc.rows_.data(), sc.rows_.size(),
              sc.hist_.data());
    growBinned(binned, labels, 0, sc.rows_.size(), 0, 0, sum, params,
               sc);
}

int
RegressionTree::growBinned(const BinnedMatrix &binned,
                           const std::vector<double> &labels,
                           std::size_t begin, std::size_t end,
                           int depth, int slot, double sum,
                           const TreeParams &params,
                           TreeScratch &scratch)
{
    const std::size_t n = end - begin;
    Node node;
    node.value = sum / static_cast<double>(n);
    int node_idx = static_cast<int>(nodes_.size());
    nodes_.push_back(node);

    if (depth >= params.maxDepth ||
        n < 2 * params.minSamplesLeaf) {
        return node_idx;
    }

    HistBin *hist =
        scratch.hist_.data() +
        static_cast<std::size_t>(slot) * scratch.totalBins_;

    // Features are scanned in index order with a strict '>', so ties
    // resolve to the lowest feature / lowest threshold exactly as
    // the exact-greedy reduction did. The scan is O(total bins).
    BinnedSplit best;
    for (std::size_t f = 0; f < binned.numFeatures(); ++f)
        scanFeature(binned, hist, f, n, sum, params, best);
    if (best.feature < 0)
        return node_idx;

    // Stable partition by bin code (equivalent to the threshold
    // test for every dataset row: bin value ranges are disjoint).
    const std::uint16_t *codes =
        binned.codesOf(static_cast<std::size_t>(best.feature));
    std::size_t *rows = scratch.rows_.data();
    std::size_t *tmp = scratch.tmp_.data();
    std::size_t nl = 0, nr = 0;
    for (std::size_t k = begin; k < end; ++k) {
        std::size_t r = rows[k];
        if (codes[r] <= best.splitCode)
            rows[begin + nl++] = r;
        else
            tmp[nr++] = r;
    }
    std::copy(tmp, tmp + nr, rows + begin + nl);
    if (nl == 0 || nr == 0)
        return node_idx; // cannot happen past the scan guards
    std::size_t mid = begin + nl;

    // Child histograms: scan the smaller side, subtract for the
    // larger (child = parent - sibling).
    int lslot = 1 + 2 * depth;
    int rslot = 2 + 2 * depth;
    HistBin *lh = scratch.hist_.data() +
                  static_cast<std::size_t>(lslot) *
                      scratch.totalBins_;
    HistBin *rh = scratch.hist_.data() +
                  static_cast<std::size_t>(rslot) *
                      scratch.totalBins_;
    HistBin *small_h = nl <= nr ? lh : rh;
    HistBin *large_h = nl <= nr ? rh : lh;
    const std::size_t small_begin = nl <= nr ? begin : mid;
    const std::size_t small_n = std::min(nl, nr);
    buildHist(binned, labels, rows + small_begin, small_n, small_h);
    for (std::size_t c = 0; c < scratch.totalBins_; ++c) {
        large_h[c].sum = hist[c].sum - small_h[c].sum;
        large_h[c].count = hist[c].count - small_h[c].count;
    }

    nodes_[node_idx].feature = best.feature;
    nodes_[node_idx].threshold = best.threshold;
    int l = growBinned(binned, labels, begin, mid, depth + 1, lslot,
                       best.leftSum, params, scratch);
    int r = growBinned(binned, labels, mid, end, depth + 1, rslot,
                       sum - best.leftSum, params, scratch);
    nodes_[node_idx].left = l;
    nodes_[node_idx].right = r;
    return node_idx;
}

double
RegressionTree::predictRow(const Dataset &data, std::size_t i) const
{
    if (nodes_.empty())
        panic("RegressionTree::predict before fit");
    int idx = 0;
    for (;;) {
        const Node &node = nodes_[idx];
        if (node.feature < 0)
            return node.value;
        idx = data.at(i, static_cast<std::size_t>(node.feature)) <=
                      node.threshold
                  ? node.left
                  : node.right;
    }
}

int
RegressionTree::depth() const
{
    // Depth via iterative traversal over the implicit structure.
    if (nodes_.empty())
        return 0;
    std::vector<std::pair<int, int>> stack = {{0, 1}};
    int max_depth = 0;
    while (!stack.empty()) {
        auto [idx, d] = stack.back();
        stack.pop_back();
        max_depth = std::max(max_depth, d);
        const Node &node = nodes_[idx];
        if (node.feature >= 0) {
            stack.push_back({node.left, d + 1});
            stack.push_back({node.right, d + 1});
        }
    }
    return max_depth;
}

} // namespace tomur::ml
