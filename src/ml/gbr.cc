#include "ml/gbr.hh"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/telemetry.hh"
#include "common/threadpool.hh"
#include "common/trace.hh"

namespace {

/** Below this many rows the per-row passes stay serial. */
constexpr std::size_t kParallelRows = 512;

/** Trees predict() walks side by side (the unroll below matches). */
constexpr std::size_t kBlock = 16;

} // namespace

namespace tomur::ml {

bool
operator==(const GbrParams &a, const GbrParams &b)
{
    return a.numTrees == b.numTrees &&
           a.learningRate == b.learningRate &&
           a.maxDepth == b.maxDepth &&
           a.minSamplesLeaf == b.minSamplesLeaf &&
           a.subsample == b.subsample && a.seed == b.seed;
}

GradientBoostingRegressor::GradientBoostingRegressor(GbrParams params)
    : params_(params)
{
}

void
GradientBoostingRegressor::fit(const Dataset &data)
{
    fit(data, nullptr);
}

void
GradientBoostingRegressor::fit(
    const Dataset &data, std::shared_ptr<const BinnedMatrix> binned)
{
    if (data.empty())
        fatal("GradientBoostingRegressor::fit: empty dataset");

    const std::uint64_t feature_fp = data.featureFingerprint();
    const std::uint64_t label_fp = data.labelFingerprint();
    if (fitted_ && feature_fp == fitFeatureFp_ &&
        label_fp == fitLabelFp_) {
        // Warm no-op: the fitted model was computed from this exact
        // dataset (a cold refit would reproduce it byte for byte).
        metrics().counter("tomur_gbr_warm_fits_total").inc();
        tracePoint("ml.gbr.warm", {{"reused", "model"}});
        return;
    }

    TraceSpan span("ml.gbr.fit");
    span.field("rows", static_cast<std::uint64_t>(data.size()));
    span.field("trees",
               static_cast<std::int64_t>(params_.numTrees));
    span.field("seed", static_cast<std::uint64_t>(params_.seed));
    metrics().counter("tomur_gbr_fits_total").inc();
    metrics().counter("tomur_gbr_trees_total")
        .inc(static_cast<std::uint64_t>(
            std::max(0, params_.numTrees)));

    // Binning is a pure function of the feature matrix: reuse a
    // caller-shared or cached one when the fingerprint proves it
    // describes these features, else (re)bin.
    if (binned && binned->fingerprint() == feature_fp &&
        binned->rows() == data.size()) {
        binned_ = std::move(binned);
        span.field("binning", "shared");
    } else if (binned_ && binned_->fingerprint() == feature_fp &&
               binned_->rows() == data.size()) {
        span.field("binning", "cached");
    } else {
        binned_ = std::make_shared<const BinnedMatrix>(
            BinnedMatrix::build(data));
        span.field("binning", "built");
    }
    const BinnedMatrix &bm = *binned_;

    trees_.clear();
    trees_.reserve(static_cast<std::size_t>(
        std::max(0, params_.numTrees)));

    base_ = 0.0;
    for (std::size_t i = 0; i < data.size(); ++i)
        base_ += data.label(i);
    base_ /= data.size();

    std::vector<double> pred(data.size(), base_);
    std::vector<double> residual(data.size());
    std::vector<std::size_t> all(data.size());
    std::iota(all.begin(), all.end(), 0);

    Rng rng(params_.seed);
    TreeParams tp;
    tp.maxDepth = params_.maxDepth;
    tp.minSamplesLeaf = params_.minSamplesLeaf;
    TreeScratch scratch;

    std::size_t n_sub = std::max<std::size_t>(
        2, static_cast<std::size_t>(params_.subsample * data.size()));

    for (int m = 0; m < params_.numTrees; ++m) {
        // Residuals and the per-round least-squares loss in one
        // pass: traced and untraced runs do the same work, tracing
        // only adds the emission.
        double loss = 0.0;
        for (std::size_t i = 0; i < data.size(); ++i) {
            residual[i] = data.label(i) - pred[i];
            loss += residual[i] * residual[i];
        }
        if (span.active()) {
            // Loss before this round's tree, keyed by the round as
            // the logical step: the boosting curve is diffable
            // without timing data.
            tracePoint("ml.gbr.round",
                       {{"loss",
                         traceFormat(
                             loss /
                             static_cast<double>(data.size()))}},
                       m);
        }

        std::vector<std::size_t> rows;
        if (n_sub >= data.size()) {
            rows = all;
        } else {
            std::vector<std::size_t> idx(all);
            rng.shuffle(idx);
            rows.assign(idx.begin(), idx.begin() + n_sub);
        }

        RegressionTree tree;
        tree.fitBinned(bm, residual, rows, tp, &scratch);
        // Per-row prediction updates are independent (each index
        // writes only pred[i]) — no reduction, so parallel execution
        // is bit-identical to the serial loop.
        if (data.size() >= kParallelRows) {
            parallelFor(data.size(), [&](std::size_t i) {
                pred[i] +=
                    params_.learningRate * tree.predictRow(data, i);
            });
        } else {
            for (std::size_t i = 0; i < data.size(); ++i) {
                pred[i] +=
                    params_.learningRate * tree.predictRow(data, i);
            }
        }
        trees_.push_back(std::move(tree));
    }
    compile();
    fitted_ = true;
    fitFeatureFp_ = feature_fp;
    fitLabelFp_ = label_fp;
}

void
GradientBoostingRegressor::compile()
{
    NodePool pool;
    std::size_t sourceNodes = 0;
    for (const auto &tree : trees_)
        sourceNodes += tree.nodes_.size();
    // A fitted tree compiles to as many slots as it has nodes; a
    // loaded one that shares subtrees may take a few more.
    pool.feature.reserve(sourceNodes);
    pool.threshold.reserve(sourceNodes);
    pool.child.reserve(sourceNodes);
    pool.value.reserve(sourceNodes);
    pool.root.reserve(trees_.size());
    pool.depth.reserve(trees_.size());
    const double lr = params_.learningRate;
    std::vector<std::uint32_t> pairOf, depth;
    std::vector<std::size_t> source;
    for (const auto &tree : trees_) {
        const auto &nodes = tree.nodes_;
        const std::size_t base = pool.feature.size();
        if (base + 2 * nodes.size() >
            std::numeric_limits<std::uint32_t>::max()) {
            panic("GradientBoostingRegressor: node pool overflow");
        }
        // Breadth-first over copies of the source nodes: a split
        // appends its children pair the first time it is seen, and
        // a node reached again (a loader-accepted tree may share a
        // subtree) reuses that pair, so the pool stays linear in the
        // source size. Children follow their split in the source, so
        // every walk ends at a leaf.
        pairOf.assign(nodes.size(), 0);
        source.assign(1, 0);
        for (std::size_t s = 0; s < source.size(); ++s) {
            const RegressionTree::Node &n = nodes[source[s]];
            const auto k = static_cast<std::uint32_t>(base + s);
            if (n.feature < 0) {
                pool.feature.push_back(0);
                pool.threshold.push_back(
                    std::numeric_limits<double>::quiet_NaN());
                pool.child.push_back(k - 1);
                pool.value.push_back(lr * n.value);
                continue;
            }
            // A pair never starts at slot 0 (the root is there).
            if (pairOf[source[s]] == 0) {
                pairOf[source[s]] =
                    static_cast<std::uint32_t>(base + source.size());
                source.push_back(static_cast<std::size_t>(n.left));
                source.push_back(static_cast<std::size_t>(n.right));
            }
            pool.feature.push_back(
                static_cast<std::uint32_t>(n.feature));
            pool.threshold.push_back(n.threshold);
            pool.child.push_back(pairOf[source[s]]);
            pool.value.push_back(0.0);
        }
        // Longest root-to-leaf path, children before parents.
        depth.assign(nodes.size(), 0);
        for (std::size_t i = nodes.size(); i-- > 0;) {
            const RegressionTree::Node &n = nodes[i];
            if (n.feature >= 0)
                depth[i] = 1 + std::max(depth[n.left], depth[n.right]);
        }
        pool.root.push_back(static_cast<std::uint32_t>(base));
        pool.depth.push_back(depth[0]);
    }
    pool_ = std::make_shared<const NodePool>(std::move(pool));
}

double
GradientBoostingRegressor::predict(
    std::span<const double> features) const
{
    if (!fitted_)
        panic("GradientBoostingRegressor::predict before fit");
    const NodePool &pool = *pool_;
    const double *x = features.data();
    const std::uint32_t *feature = pool.feature.data();
    const double *threshold = pool.threshold.data();
    const std::uint32_t *child = pool.child.data();
    auto step = [&](std::uint32_t k) {
        return child[k] + !(x[feature[k]] <= threshold[k]);
    };
    // A full block of trees walks level by level while every tree
    // still has a level to go: independent steps, so they overlap.
    // Deeper trees, and a short last block, finish one tree at a
    // time. The leaves are then summed in tree order, as the
    // per-tree accumulation did.
    double y = base_;
    const std::size_t n_trees = pool.root.size();
    for (std::size_t t0 = 0; t0 < n_trees; t0 += kBlock) {
        const std::size_t n = std::min(kBlock, n_trees - t0);
        const std::uint32_t *depth = pool.depth.data() + t0;
        std::uint32_t at[kBlock];
        std::copy_n(pool.root.data() + t0, n, at);
        const std::uint32_t shared =
            n == kBlock ? *std::min_element(depth, depth + n) : 0;
        for (std::uint32_t d = 0; d < shared; ++d) {
#pragma GCC unroll 16
            for (std::size_t i = 0; i < kBlock; ++i)
                at[i] = step(at[i]);
        }
        for (std::size_t i = 0; i < n; ++i) {
            for (std::uint32_t d = shared; d < depth[i]; ++d)
                at[i] = step(at[i]);
            y += pool.value[at[i]];
        }
    }
    return y;
}

double
meanPredict(const std::vector<GradientBoostingRegressor> &members,
            std::span<const double> features)
{
    double sum = 0.0;
    for (const auto &m : members)
        sum += m.predict(features);
    return sum / members.size();
}

std::vector<double>
GradientBoostingRegressor::predictAll(const Dataset &data) const
{
    if (!fitted_)
        panic("GradientBoostingRegressor::predict before fit");
    std::vector<double> out(data.size());
    auto one = [&](std::size_t i) {
        double y = base_;
        for (const auto &t : trees_)
            y += params_.learningRate * t.predictRow(data, i);
        out[i] = y;
    };
    if (data.size() >= kParallelRows) {
        parallelFor(data.size(), one);
    } else {
        for (std::size_t i = 0; i < data.size(); ++i)
            one(i);
    }
    return out;
}

} // namespace tomur::ml
