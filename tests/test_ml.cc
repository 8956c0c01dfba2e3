/**
 * @file
 * Tests for the ML library: dataset handling, regression trees,
 * gradient boosting, linear regression, metrics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>
#include <sstream>

#include "common/rng.hh"
#include "common/strutil.hh"
#include "ml/dataset.hh"
#include "ml/gbr.hh"
#include "ml/linreg.hh"
#include "ml/metrics.hh"
#include "ml/tree.hh"

namespace tomur::ml {
namespace {

Dataset
makeDataset(int n, std::uint64_t seed,
            double (*f)(double, double), double noise = 0.0)
{
    Rng rng(seed);
    Dataset d({"a", "b"});
    for (int i = 0; i < n; ++i) {
        double a = rng.uniform(0, 10);
        double b = rng.uniform(-5, 5);
        d.add({a, b}, f(a, b) + noise * rng.normal());
    }
    return d;
}

double
piecewise(double a, double b)
{
    // Piece-wise linear with an interaction, like the memory model's
    // target function.
    return (a < 5 ? 3 * a : 15.0) + (b > 0 ? 2 * b : 0.0);
}

double
linearFn(double a, double b)
{
    return 2.0 + 3.0 * a - 1.5 * b;
}

TEST(Dataset, AddAndArity)
{
    Dataset d({"x", "y"});
    d.add({1, 2}, 3);
    EXPECT_EQ(d.size(), 1u);
    EXPECT_EQ(d.numFeatures(), 2u);
    EXPECT_DOUBLE_EQ(d.label(0), 3.0);
    EXPECT_DEATH(d.add({1}, 0), "arity");
}

TEST(Dataset, SplitPreservesAll)
{
    Dataset d = makeDataset(100, 1, linearFn);
    Rng rng(2);
    auto [train, test] = d.split(0.3, rng);
    EXPECT_EQ(train.size() + test.size(), 100u);
    EXPECT_EQ(test.size(), 30u);
}

TEST(Dataset, AppendMergesRows)
{
    Dataset a = makeDataset(10, 1, linearFn);
    Dataset b = makeDataset(5, 2, linearFn);
    a.append(b);
    EXPECT_EQ(a.size(), 15u);
}

TEST(Tree, FitsConstant)
{
    Dataset d({"x"});
    for (int i = 0; i < 10; ++i)
        d.add({double(i)}, 7.0);
    std::vector<std::size_t> rows{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
    RegressionTree t;
    t.fit(d, d.labels(), rows, TreeParams{});
    EXPECT_DOUBLE_EQ(t.predictRow(d, 3), 7.0);
    EXPECT_EQ(t.numNodes(), 1u); // no split improves SSE
}

TEST(Tree, FitsStepFunction)
{
    Dataset d({"x"});
    std::vector<std::size_t> rows;
    for (int i = 0; i < 40; ++i) {
        d.add({double(i)}, i < 20 ? 1.0 : 9.0);
        rows.push_back(i);
    }
    RegressionTree t;
    TreeParams p;
    p.maxDepth = 2;
    t.fit(d, d.labels(), rows, p);
    EXPECT_NEAR(t.predictRow(d, 5), 1.0, 1e-9); // x = 5
    EXPECT_NEAR(t.predictRow(d, 30), 9.0, 1e-9); // x = 30
}

TEST(Tree, RespectsMaxDepth)
{
    Dataset d = makeDataset(200, 3, piecewise);
    std::vector<std::size_t> rows(d.size());
    for (std::size_t i = 0; i < rows.size(); ++i)
        rows[i] = i;
    RegressionTree t;
    TreeParams p;
    p.maxDepth = 4;
    t.fit(d, d.labels(), rows, p);
    EXPECT_LE(t.depth(), 5); // depth counts nodes on path
}

TEST(Gbr, LearnsPiecewiseFunction)
{
    Dataset train = makeDataset(800, 5, piecewise, 0.05);
    Dataset test = makeDataset(200, 6, piecewise);

    GbrParams p;
    p.numTrees = 200;
    GradientBoostingRegressor gbr(p);
    gbr.fit(train);

    std::vector<double> truth, pred;
    for (std::size_t i = 0; i < test.size(); ++i) {
        truth.push_back(test.label(i) + 20.0); // shift away from zero
        pred.push_back(gbr.predict(test.row(i)) + 20.0);
    }
    EXPECT_LT(mape(truth, pred), 2.0);
}

TEST(Gbr, SeedsProduceDifferentModels)
{
    Dataset train = makeDataset(300, 7, piecewise, 0.2);
    GbrParams p1, p2;
    p1.seed = 1;
    p2.seed = 2;
    GradientBoostingRegressor a(p1), b(p2);
    a.fit(train);
    b.fit(train);
    bool differs = false;
    for (double x = 0.5; x < 10; x += 0.7) {
        const std::vector<double> row = {x, 1.0};
        differs |= a.predict(row) != b.predict(row);
    }
    EXPECT_TRUE(differs);
}

TEST(Gbr, MoreTreesReduceTrainError)
{
    Dataset train = makeDataset(300, 9, piecewise, 0.0);
    GbrParams small, big;
    small.numTrees = 5;
    big.numTrees = 150;
    small.subsample = 1.0;
    big.subsample = 1.0;
    GradientBoostingRegressor a(small), b(big);
    a.fit(train);
    b.fit(train);
    std::vector<double> truth, pa, pb;
    for (std::size_t i = 0; i < train.size(); ++i) {
        truth.push_back(train.label(i) + 20.0);
        pa.push_back(a.predict(train.row(i)) + 20.0);
        pb.push_back(b.predict(train.row(i)) + 20.0);
    }
    EXPECT_LT(mape(truth, pb), mape(truth, pa));
}

TEST(Gbr, PredictBeforeFitPanics)
{
    GradientBoostingRegressor gbr;
    EXPECT_DEATH(gbr.predict(std::vector<double>{1.0}), "before fit");
}

TEST(LinReg, RecoversCoefficients)
{
    Dataset d = makeDataset(100, 11, linearFn, 0.0);
    LinearRegression lr;
    lr.fit(d);
    EXPECT_NEAR(lr.intercept(), 2.0, 1e-6);
    ASSERT_EQ(lr.coefficients().size(), 2u);
    EXPECT_NEAR(lr.coefficients()[0], 3.0, 1e-6);
    EXPECT_NEAR(lr.coefficients()[1], -1.5, 1e-6);
}

TEST(LinReg, Fit1d)
{
    LinearRegression lr;
    lr.fit1d({0, 1, 2, 3}, {1, 3, 5, 7});
    EXPECT_NEAR(lr.predict1d(10), 21.0, 1e-6);
    EXPECT_NEAR(lr.intercept(), 1.0, 1e-6);
}

TEST(LinReg, NoisyFitCloseEnough)
{
    Dataset d = makeDataset(500, 13, linearFn, 0.1);
    LinearRegression lr;
    lr.fit(d);
    EXPECT_NEAR(lr.coefficients()[0], 3.0, 0.05);
}

TEST(Tree, AllEqualFeatureValuesNoSplit)
{
    // Equal feature values admit no split point; the tree must stay
    // a single leaf rather than splitting on noise.
    Dataset d({"x"});
    std::vector<std::size_t> rows;
    Rng rng(31);
    for (int i = 0; i < 20; ++i) {
        d.add({5.0}, rng.uniform(0, 10));
        rows.push_back(i);
    }
    RegressionTree t;
    t.fit(d, d.labels(), rows, TreeParams{});
    EXPECT_EQ(t.numNodes(), 1u);
}

TEST(Dataset, SplitEdgeFractions)
{
    Dataset d = makeDataset(10, 21, linearFn);
    Rng rng(1);
    auto [train_all, test_none] = d.split(0.0, rng);
    EXPECT_EQ(train_all.size(), 10u);
    EXPECT_EQ(test_none.size(), 0u);
    auto [train_none, test_all] = d.split(1.0, rng);
    EXPECT_EQ(train_none.size(), 0u);
    EXPECT_EQ(test_all.size(), 10u);
}

TEST(Metrics, Mape)
{
    EXPECT_DOUBLE_EQ(mape({100, 200}, {110, 180}), 10.0);
    EXPECT_DOUBLE_EQ(mape({}, {}), 0.0);
    EXPECT_DEATH(absPctError(0.0, 1.0), "zero ground truth");
}

TEST(Metrics, AccWithin)
{
    std::vector<double> truth = {100, 100, 100, 100};
    std::vector<double> pred = {101, 104, 109, 120};
    EXPECT_DOUBLE_EQ(accWithin(truth, pred, 5), 50.0);
    EXPECT_DOUBLE_EQ(accWithin(truth, pred, 10), 75.0);
}

TEST(Metrics, Rmse)
{
    EXPECT_DOUBLE_EQ(rmse({1, 2}, {1, 2}), 0.0);
    EXPECT_DOUBLE_EQ(rmse({0, 0}, {3, 4}), std::sqrt(12.5));
}

// ---- Histogram-fit properties ----

/**
 * Reference exact-greedy tree: sorts each feature's node values and
 * scans candidate midpoints between adjacent distinct values with
 * the same gain measure, guards and tie-breaking (ascending
 * thresholds, features in index order, strict '>') the histogram
 * scan claims to reproduce. Integer-valued features and labels keep
 * every sum exact, so agreement must be bitwise.
 */
struct RefTree
{
    struct RefNode
    {
        int feature = -1;
        double threshold = 0.0;
        double value = 0.0;
        int left = -1, right = -1;
    };
    std::vector<RefNode> nodes;

    int grow(const Dataset &d, std::vector<std::size_t> rows,
             int depth, double sum, const TreeParams &p)
    {
        const std::size_t n = rows.size();
        int idx = static_cast<int>(nodes.size());
        nodes.push_back({});
        nodes[idx].value = sum / static_cast<double>(n);
        if (depth >= p.maxDepth || n < 2 * p.minSamplesLeaf)
            return idx;

        double best_gain = 1e-12, best_thr = 0.0;
        int best_f = -1;
        for (std::size_t f = 0; f < d.numFeatures(); ++f) {
            std::vector<std::pair<double, double>> vl; // (value,label)
            for (std::size_t r : rows)
                vl.push_back({d.at(r, f), d.labels()[r]});
            std::sort(vl.begin(), vl.end(),
                      [](const auto &a, const auto &b) {
                          return a.first < b.first;
                      });
            double ls = 0.0;
            std::size_t lc = 0;
            for (std::size_t k = 0; k + 1 < n; ++k) {
                ls += vl[k].second;
                ++lc;
                if (vl[k].first == vl[k + 1].first)
                    continue;
                if (lc < p.minSamplesLeaf ||
                    n - lc < p.minSamplesLeaf)
                    continue;
                double rs = sum - ls;
                double gain =
                    ls * ls / lc + rs * rs / (n - lc) -
                    sum * sum / static_cast<double>(n);
                if (gain > best_gain) {
                    best_gain = gain;
                    best_f = static_cast<int>(f);
                    best_thr =
                        0.5 * (vl[k].first + vl[k + 1].first);
                }
            }
        }
        if (best_f < 0)
            return idx;

        std::vector<std::size_t> lrows, rrows;
        double lsum = 0.0;
        for (std::size_t r : rows) {
            if (d.at(r, static_cast<std::size_t>(best_f)) <=
                best_thr) {
                lrows.push_back(r);
                lsum += d.labels()[r];
            } else {
                rrows.push_back(r);
            }
        }
        nodes[idx].feature = best_f;
        nodes[idx].threshold = best_thr;
        int l = grow(d, std::move(lrows), depth + 1, lsum, p);
        int r = grow(d, std::move(rrows), depth + 1, sum - lsum, p);
        nodes[idx].left = l;
        nodes[idx].right = r;
        return idx;
    }

    double predict(const std::vector<double> &x) const
    {
        int idx = 0;
        for (;;) {
            const RefNode &nd = nodes[idx];
            if (nd.feature < 0)
                return nd.value;
            idx = x[nd.feature] <= nd.threshold ? nd.left : nd.right;
        }
    }
};

TEST(TreeProperty, HistogramMatchesExactGreedyOnDistinctValues)
{
    // Fewer distinct values than bins -> binning is lossless (one
    // bin per value) and the histogram scan must reproduce the
    // exact-greedy tree: same structure, same thresholds, same leaf
    // values, bit for bit.
    for (std::uint64_t seed : {11u, 12u, 13u, 14u}) {
        Rng rng(seed);
        Dataset d({"a", "b", "c"});
        for (int i = 0; i < 300; ++i) {
            double a = rng.uniformInt(12);
            double b = rng.uniformInt(7);
            double c = rng.uniformInt(3);
            double y = rng.uniformInt(40);
            d.add({a, b, c}, y);
        }
        std::vector<std::size_t> rows(d.size());
        std::iota(rows.begin(), rows.end(), 0);

        TreeParams p;
        p.maxDepth = 5;
        RegressionTree t;
        t.fit(d, d.labels(), rows, p);

        RefTree ref;
        double sum = 0.0;
        for (std::size_t r : rows)
            sum += d.labels()[r];
        ref.grow(d, rows, 0, sum, p);

        ASSERT_EQ(t.numNodes(), ref.nodes.size()) << "seed " << seed;
        for (std::size_t i = 0; i < d.size(); ++i) {
            EXPECT_EQ(t.predictRow(d, i), ref.predict(d.row(i)))
                << "seed " << seed << " row " << i;
        }
    }
}

TEST(GbrProperty, WarmRefitOnUnchangedDataIsByteIdentical)
{
    Dataset d = makeDataset(400, 31, piecewise, 0.1);
    GbrParams gp;
    gp.numTrees = 25;

    ml::GradientBoostingRegressor cold(gp);
    cold.fit(d);
    std::ostringstream cold_bytes;
    cold.save(cold_bytes);

    // Warm path: refit the already-fitted model on the same data.
    ml::GradientBoostingRegressor warm(gp);
    warm.fit(d);
    warm.fit(d); // no-op: fingerprints match
    std::ostringstream warm_bytes;
    warm.save(warm_bytes);
    EXPECT_EQ(cold_bytes.str(), warm_bytes.str());

    // Same features, new labels: binning is reused, the boosting
    // rerun — and still byte-identical to a cold fit on that data.
    Dataset relabeled(d.featureNames());
    for (std::size_t i = 0; i < d.size(); ++i)
        relabeled.add(d.row(i), d.labels()[i] + 1.0);
    warm.fit(relabeled);
    ml::GradientBoostingRegressor cold2(gp);
    cold2.fit(relabeled);
    std::ostringstream warm2_bytes, cold2_bytes;
    warm.save(warm2_bytes);
    cold2.save(cold2_bytes);
    EXPECT_EQ(cold2_bytes.str(), warm2_bytes.str());
}

// ---------------------------------------------------------------
// Compiled inference form: predict() walks the flat node pool, and
// predictAll() keeps the per-tree walk, so it is the reference.
// ---------------------------------------------------------------

/** Every row of `probe`: predict(row) equals predictAll()[row] bit
 *  for bit. */
void
expectPoolMatchesTreeWalk(const GradientBoostingRegressor &gbr,
                          const Dataset &probe)
{
    const std::vector<double> ref = gbr.predictAll(probe);
    for (std::size_t i = 0; i < probe.size(); ++i) {
        const std::vector<double> row = probe.row(i);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(gbr.predict(row)),
                  std::bit_cast<std::uint64_t>(ref[i]))
            << "row " << i;
    }
}

/** Rows drawn from values that stress the split test: integers and
 *  half-integers (the thresholds of integer-valued training data sit
 *  on the half-integers, so x == threshold), NaN and infinities. */
Dataset
edgeProbe(std::size_t width, std::size_t rows, std::uint64_t seed)
{
    std::vector<double> values = {
        std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(), -0.0, -1.0, 50.0};
    for (int k = 0; k < 24; ++k)
        values.push_back(0.5 * k);
    Rng rng(seed);
    Dataset d;
    for (std::size_t i = 0; i < rows; ++i) {
        std::vector<double> x(width);
        for (double &v : x)
            v = values[rng.uniformInt(values.size())];
        d.add(x, 0.0);
    }
    return d;
}

TEST(CompiledGbr, MatchesTreeWalkOnTrainedEnsembles)
{
    for (int depth : {1, 3, 6}) {
        Rng rng(static_cast<std::uint64_t>(depth));
        Dataset train({"a", "b", "c"});
        for (int i = 0; i < 300; ++i) {
            double a = rng.uniformInt(12), b = rng.uniformInt(7),
                   c = rng.uniformInt(3);
            train.add({a, b, c}, a * b - 4 * c + rng.normal());
        }
        GbrParams p;
        p.maxDepth = depth;
        p.numTrees = 60;
        GradientBoostingRegressor gbr(p);
        gbr.fit(train);
        expectPoolMatchesTreeWalk(gbr, train);
        expectPoolMatchesTreeWalk(gbr, edgeProbe(3, 3000, 17));
    }
}

TEST(CompiledGbr, SingleLeafTrees)
{
    // Constant labels: no split reduces the error, so every tree is
    // one leaf, and a prediction reads no feature at all.
    Dataset train({"x"});
    for (int i = 0; i < 20; ++i)
        train.add({double(i)}, 3.0);
    GradientBoostingRegressor gbr;
    gbr.fit(train);
    expectPoolMatchesTreeWalk(gbr, edgeProbe(1, 64, 3));
    EXPECT_EQ(gbr.predict(std::span<const double>{}),
              gbr.predictAll(train)[0]);
}

TEST(CompiledGbr, HandWrittenUnbalancedAndSharedTrees)
{
    // Trees the loader accepts but the fitter never grows: a 40-split
    // chain, an unbalanced tree, a split whose two children are one
    // shared subtree, and a lone leaf.
    std::string text = "gbr 4 0.25 0.5\n";
    text += "tree 81\n";
    for (int i = 0; i < 40; ++i) {
        text += strf("%d %d 0 %d %d\n", i % 2, i, 2 * i + 1, 2 * i + 2);
        text += strf("-1 0 %d -1 -1\n", i);
    }
    text += "-1 0 1000 -1 -1\n";
    text += "tree 7\n"
            "0 1 0 1 2\n"
            "-1 0 10 -1 -1\n"
            "1 2 0 3 4\n"
            "-1 0 20 -1 -1\n"
            "0 3 0 5 6\n"
            "-1 0 30 -1 -1\n"
            "-1 0 40 -1 -1\n";
    text += "tree 4\n"
            "0 0.5 0 1 1\n"
            "1 -1 0 2 3\n"
            "-1 0 5 -1 -1\n"
            "-1 0 6 -1 -1\n";
    text += "tree 1\n"
            "-1 0 7 -1 -1\n";
    std::istringstream in(text);
    GradientBoostingRegressor gbr;
    ASSERT_TRUE(gbr.load(in));
    expectPoolMatchesTreeWalk(gbr, edgeProbe(2, 4000, 5));

    // Past every split of the chain: its last leaf, and the right
    // branches of the others (0.25 + 0.5 * (1000 + 40 + 6 + 7)).
    const std::vector<double> far = {100.0, 100.0};
    EXPECT_EQ(gbr.predict(far), 526.75);
}

} // namespace
} // namespace tomur::ml
