/**
 * @file
 * Parallel-engine tests: thread-pool semantics (exception
 * propagation, empty/nested loops, map ordering), per-task seed
 * derivation, the parallel-equals-serial determinism contract
 * (GBR fits, batched testbed runs, end-to-end training), the
 * deployment-measurement cache (hit/miss accounting, key
 * discrimination, fault-injection bypass), and the trained-model
 * digest golden: contentDigest() of six pinned trainings matches
 * tests/golden/model_digests.txt at pool widths 1 and 8
 * (regenerate with tools/update_goldens.sh).
 *
 * Every suite here except ModelDigestGolden is prefixed "Parallel"
 * so tools/run_sanitized_tests.sh can select exactly these tests for
 * the TSan pass (ctest -R '^Parallel'); the digest golden trains six
 * models and is too slow for it.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/rng.hh"
#include "common/serial.hh"
#include "common/threadpool.hh"
#include "framework/profile.hh"
#include "ml/gbr.hh"
#include "nfs/bench_nfs.hh"
#include "nfs/registry.hh"
#include "regex/ruleset.hh"
#include "sim/faults.hh"
#include "sim/measurement_cache.hh"
#include "sim/testbed.hh"
#include "tomur/profiler.hh"

namespace tomur {
namespace {

namespace fw = framework;

/** RAII global pool width (restores the configured width on exit). */
struct PoolWidth
{
    explicit PoolWidth(int threads) { setGlobalThreadCount(threads); }
    ~PoolWidth() { setGlobalThreadCount(configuredThreadCount()); }
};

// ---------------------------------------------------------------
// Pool semantics
// ---------------------------------------------------------------

TEST(ParallelPool, MapCollectsInIndexOrder)
{
    PoolWidth width(4);
    auto out = parallelMap(100, [](std::size_t i) {
        return static_cast<int>(i * i);
    });
    ASSERT_EQ(out.size(), 100u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], static_cast<int>(i * i));
}

TEST(ParallelPool, EmptyRangeIsANoOp)
{
    PoolWidth width(4);
    std::atomic<int> calls{0};
    parallelFor(0, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 0);
    EXPECT_TRUE(parallelMap(0, [](std::size_t i) { return i; })
                    .empty());
}

TEST(ParallelPool, SingleIterationRunsInline)
{
    PoolWidth width(4);
    auto caller = std::this_thread::get_id();
    std::thread::id ran;
    parallelFor(1, [&](std::size_t) {
        ran = std::this_thread::get_id();
    });
    EXPECT_EQ(ran, caller);
}

TEST(ParallelPool, LowestIndexExceptionPropagates)
{
    PoolWidth width(4);
    try {
        parallelFor(64, [](std::size_t i) {
            if (i == 7)
                throw std::runtime_error("boom at 7");
            if (i == 33)
                throw std::runtime_error("boom at 33");
        });
        FAIL() << "expected the loop to rethrow";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "boom at 7");
    }

    // The pool must stay usable after an exception drained through.
    std::atomic<int> sum{0};
    parallelFor(10, [&](std::size_t i) {
        sum += static_cast<int>(i);
    });
    EXPECT_EQ(sum.load(), 45);
}

TEST(ParallelPool, NestedLoopsRunInlineWithoutDeadlock)
{
    PoolWidth width(4);
    std::atomic<int> inner_total{0};
    parallelFor(8, [&](std::size_t) {
        // Inside a pool worker a nested loop must not queue new pool
        // jobs (a fixed-size pool would deadlock waiting on itself).
        parallelFor(8, [&](std::size_t) { ++inner_total; });
    });
    EXPECT_EQ(inner_total.load(), 64);
}

TEST(ParallelPool, GlobalWidthIsAdjustable)
{
    PoolWidth width(3);
    EXPECT_EQ(globalThreadCount(), 3);
    setGlobalThreadCount(1);
    EXPECT_EQ(globalThreadCount(), 1);
    // Values below 1 clamp rather than wedge the pool.
    setGlobalThreadCount(0);
    EXPECT_EQ(globalThreadCount(), 1);
}

TEST(ParallelPool, ThreadsEnvTakesOneWholeNumberInRange)
{
    // Reads the width only: no pool is built from a refused value.
    const char *set = std::getenv("TOMUR_THREADS");
    const std::string saved = set ? set : "";
    unsetenv("TOMUR_THREADS");
    const int fallback = configuredThreadCount();
    EXPECT_GE(fallback, 1);
    setenv("TOMUR_THREADS", "8", 1);
    EXPECT_EQ(configuredThreadCount(), 8);
    const std::string max = std::to_string(kMaxConfiguredThreads);
    setenv("TOMUR_THREADS", max.c_str(), 1);
    EXPECT_EQ(configuredThreadCount(), kMaxConfiguredThreads);
    const std::string over = std::to_string(kMaxConfiguredThreads + 1);
    for (const char *bad : {"12abc", "100000", over.c_str(), "0", "-3",
                            "+4", "0x8", "4.0", " 4", ""}) {
        setenv("TOMUR_THREADS", bad, 1);
        EXPECT_EQ(configuredThreadCount(), fallback) << bad;
    }
    if (set)
        setenv("TOMUR_THREADS", saved.c_str(), 1);
    else
        unsetenv("TOMUR_THREADS");
}

TEST(ParallelPool, DeriveSeedIsStatelessAndDistinct)
{
    std::set<std::uint64_t> seen;
    for (std::uint64_t i = 0; i < 1000; ++i) {
        std::uint64_t s = deriveSeed(42, i);
        EXPECT_EQ(s, deriveSeed(42, i)); // stateless
        seen.insert(s);
    }
    EXPECT_EQ(seen.size(), 1000u);
    // Streams from different bases do not collide at low indices.
    EXPECT_NE(deriveSeed(42, 0), deriveSeed(43, 0));
    EXPECT_NE(deriveSeed(42, 1), deriveSeed(43, 0));
}

// ---------------------------------------------------------------
// Determinism: parallel == serial, bit for bit
// ---------------------------------------------------------------

namespace {

ml::Dataset
syntheticDataset(std::size_t rows)
{
    ml::Dataset data(std::vector<std::string>{
        "a", "b", "c", "d", "e", "f", "g", "h"});
    Rng rng(7);
    for (std::size_t i = 0; i < rows; ++i) {
        std::vector<double> x;
        for (int j = 0; j < 8; ++j)
            x.push_back(rng.uniform(0, 1));
        double y = 3 * x[0] + (x[1] > 0.5 ? 2 : 0) + x[2] * x[3];
        data.add(x, y);
    }
    return data;
}

} // namespace

TEST(ParallelDeterminism, GbrFitIsBitIdenticalAcrossWidths)
{
    // Large enough to cross both parallel thresholds (row passes and
    // per-feature split search).
    auto data = syntheticDataset(1024);
    ml::GbrParams gp;
    gp.numTrees = 30;

    std::vector<double> serial, parallel;
    {
        PoolWidth width(1);
        ml::GradientBoostingRegressor gbr(gp);
        gbr.fit(data);
        serial = gbr.predictAll(data);
    }
    {
        PoolWidth width(4);
        ml::GradientBoostingRegressor gbr(gp);
        gbr.fit(data);
        parallel = gbr.predictAll(data);
    }
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i], parallel[i]) << "row " << i;
}

TEST(ParallelDeterminism, GbrModelBytesIdenticalAtWidths1And8)
{
    // Stronger than prediction equality: the serialized model bytes
    // (every threshold, leaf value and tree shape) must not depend
    // on the pool width. 8 threads exceeds this machine's cores on
    // purpose — oversubscription must not change the answer either.
    auto data = syntheticDataset(1024);
    ml::GbrParams gp;
    gp.numTrees = 30;

    auto fitBytes = [&](int width) {
        PoolWidth pool(width);
        ml::GradientBoostingRegressor gbr(gp);
        gbr.fit(data);
        std::ostringstream out;
        gbr.save(out);
        return out.str();
    };
    std::string at1 = fitBytes(1);
    std::string at8 = fitBytes(8);
    EXPECT_FALSE(at1.empty());
    EXPECT_EQ(at1, at8);
}

TEST(ParallelDeterminism, RunBatchMatchesSerialRunLoop)
{
    auto rules = regex::defaultRuleSet();
    auto defaults = traffic::TrafficProfile::defaults();
    std::vector<fw::WorkloadProfile> w;
    for (double wss : {1e6, 8e6, 32e6}) {
        nfs::MemBenchConfig cfg;
        cfg.wssBytes = wss;
        auto nf = nfs::makeMemBench(cfg);
        w.push_back(fw::profileWorkload(*nf, defaults, &rules));
    }
    // Duplicates on purpose: the batch path must hit the solve cache
    // without perturbing the noise stream.
    std::vector<std::vector<fw::WorkloadProfile>> batch = {
        {w[0]}, {w[1]}, {w[0], w[1]}, {w[0]}, {w[2]}, {w[0], w[1]}};

    sim::Testbed serial_bed(hw::blueField2(), {});
    std::vector<std::vector<sim::Measurement>> serial;
    for (const auto &deploy : batch)
        serial.push_back(serial_bed.run(deploy));

    sim::Testbed batch_bed(hw::blueField2(), {});
    PoolWidth width(4);
    auto parallel = batch_bed.runBatch(batch);

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        ASSERT_EQ(serial[i].size(), parallel[i].size());
        for (std::size_t j = 0; j < serial[i].size(); ++j) {
            EXPECT_EQ(serial[i][j].throughput,
                      parallel[i][j].throughput);
            EXPECT_EQ(serial[i][j].truthThroughput,
                      parallel[i][j].truthThroughput);
        }
    }
    EXPECT_GT(batch_bed.cacheHits(), 0u);
}

TEST(ParallelDeterminism, TrainedModelIsBitIdenticalAcrossWidths)
{
    auto rules = regex::defaultRuleSet();
    fw::DeviceSet dev;
    dev.regex = std::make_shared<fw::RegexDevice>(rules);
    dev.compression = std::make_shared<fw::CompressionDevice>();
    dev.crypto = std::make_shared<fw::CryptoDevice>();
    auto defaults = traffic::TrafficProfile::defaults();

    core::TrainOptions topts;
    topts.sampling = core::SamplingStrategy::Random;
    topts.adaptive.quota = 20;

    auto trainOnce = [&](int threads) {
        PoolWidth width(threads);
        sim::Testbed bed(hw::blueField2(), {});
        core::BenchLibrary lib(bed, dev, rules);
        core::TomurTrainer trainer(lib);
        auto nf = nfs::makeByName("FlowStats", dev);
        auto model = trainer.train(*nf, defaults, topts);
        std::ostringstream out;
        EXPECT_TRUE(model.save(out));
        return out.str();
    };

    auto serial = trainOnce(1);
    auto parallel = trainOnce(4);
    EXPECT_EQ(serial, parallel)
        << "serialized models differ between pool widths";
}

// ---------------------------------------------------------------
// Trained-model digests, pinned across commits
// ---------------------------------------------------------------

#ifndef TOMUR_GOLDEN_DIR
#define TOMUR_GOLDEN_DIR "tests/golden"
#endif

namespace {

/** One pinned training: an NF, its options, and whether the
 *  testbed corrupts measurements after the bench library is
 *  profiled. */
struct DigestCase
{
    const char *label;
    const char *nf;
    core::SamplingStrategy sampling;
    std::size_t quota;
    bool faulty;
};

const DigestCase kDigestCases[] = {
    {"FlowStats/adaptive/q12", "FlowStats",
     core::SamplingStrategy::Adaptive, 12, false},
    {"NIDS/adaptive/q12", "NIDS", core::SamplingStrategy::Adaptive,
     12, false},
    {"IPCompGateway/adaptive/q12", "IPCompGateway",
     core::SamplingStrategy::Adaptive, 12, false},
    {"FlowMonitor/adaptive/q12", "FlowMonitor",
     core::SamplingStrategy::Adaptive, 12, false},
    {"FlowStats/random/q20", "FlowStats",
     core::SamplingStrategy::Random, 20, false},
    {"FlowStats/adaptive/q12/faults0.2", "FlowStats",
     core::SamplingStrategy::Adaptive, 12, true},
};

/** contentDigest() of every case, one "<label> <hex>" line each. */
std::string
trainedModelDigests()
{
    auto rules = regex::defaultRuleSet();
    fw::DeviceSet dev;
    dev.regex = std::make_shared<fw::RegexDevice>(rules);
    dev.compression = std::make_shared<fw::CompressionDevice>();
    dev.crypto = std::make_shared<fw::CryptoDevice>();
    auto defaults = traffic::TrafficProfile::defaults();

    std::ostringstream out;
    for (const auto &c : kDigestCases) {
        sim::Testbed bed(hw::blueField2(), {});
        sim::FaultInjectingTestbed faulty(bed, {});
        core::BenchLibrary lib(faulty, dev, rules);
        core::TomurTrainer trainer(lib);
        core::TrainOptions topts;
        topts.sampling = c.sampling;
        topts.adaptive.quota = c.quota;
        if (c.faulty) {
            faulty.setConfig(sim::FaultConfig::uniformCorruption(0.2));
            topts.screen.verifyBelowRatio = 0.6;
        }
        auto nf = nfs::makeByName(c.nf, dev);
        core::TrainReport report;
        auto model = trainer.train(*nf, defaults, topts, &report);
        if (c.faulty) {
            // The screen's retry path must actually run, or the
            // digest would not pin its constants.
            EXPECT_GT(report.retriesUsed, 0u) << c.label;
        }
        out << c.label << ' ' << std::hex << model.contentDigest()
            << std::dec << '\n';
    }
    return out.str();
}

void
checkDigestGolden(const std::string &actual)
{
    const std::string path =
        std::string(TOMUR_GOLDEN_DIR) + "/model_digests.txt";
    if (std::getenv("TOMUR_UPDATE_GOLDENS")) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << actual;
        return;
    }
    std::ifstream in(path, std::ios::binary);
    std::ostringstream expected;
    expected << in.rdbuf();
    ASSERT_FALSE(expected.str().empty())
        << path << " is missing; regenerate with "
        << "tools/update_goldens.sh";
    EXPECT_EQ(expected.str(), actual)
        << "trained models changed; if the change is intentional, "
        << "regenerate with tools/update_goldens.sh and review the "
        << "diff";
}

} // namespace

TEST(ModelDigestGolden, SerialTrainingMatchesFixture)
{
    PoolWidth width(1);
    checkDigestGolden(trainedModelDigests());
}

TEST(ModelDigestGolden, WideTrainingMatchesFixture)
{
    std::string wide;
    {
        PoolWidth width(8);
        wide = trainedModelDigests();
    }
    if (std::getenv("TOMUR_UPDATE_GOLDENS")) {
        // The serial test writes the fixture; here the wide run only
        // has to reproduce the serial one.
        PoolWidth width(1);
        EXPECT_EQ(trainedModelDigests(), wide);
        return;
    }
    checkDigestGolden(wide);
}

// ---------------------------------------------------------------
// Measurement cache
// ---------------------------------------------------------------

namespace {

fw::WorkloadProfile
memBenchWorkload(double wss_bytes)
{
    auto rules = regex::defaultRuleSet();
    nfs::MemBenchConfig cfg;
    cfg.wssBytes = wss_bytes;
    auto nf = nfs::makeMemBench(cfg);
    return fw::profileWorkload(
        *nf, traffic::TrafficProfile::defaults(), &rules);
}

} // namespace

TEST(ParallelCache, HitMissAccounting)
{
    sim::Testbed bed(hw::blueField2(), {});
    auto w = memBenchWorkload(4e6);

    EXPECT_EQ(bed.cacheHits(), 0u);
    EXPECT_EQ(bed.cacheMisses(), 0u);

    auto first = bed.run({w});
    EXPECT_EQ(bed.cacheMisses(), 1u);
    EXPECT_EQ(bed.cacheHits(), 0u);

    auto second = bed.run({w});
    EXPECT_EQ(bed.cacheMisses(), 1u);
    EXPECT_EQ(bed.cacheHits(), 1u);

    // Memoization is invisible below the noise layer: the noise-free
    // truth is identical, the noisy readings still differ per call.
    ASSERT_EQ(first.size(), 1u);
    ASSERT_EQ(second.size(), 1u);
    EXPECT_EQ(first[0].truthThroughput, second[0].truthThroughput);
    EXPECT_NE(first[0].throughput, second[0].throughput);

    bed.clearCache();
    bed.run({w});
    EXPECT_EQ(bed.cacheMisses(), 1u) << "clearCache resets stats";
}

TEST(ParallelCache, DisabledCacheGivesIdenticalMeasurements)
{
    sim::TestbedOptions no_cache;
    no_cache.cacheSolves = false;
    sim::Testbed cached(hw::blueField2(), {});
    sim::Testbed uncached(hw::blueField2(), no_cache);
    auto w = memBenchWorkload(4e6);

    for (int i = 0; i < 3; ++i) {
        auto a = cached.run({w});
        auto b = uncached.run({w});
        ASSERT_EQ(a.size(), 1u);
        ASSERT_EQ(b.size(), 1u);
        EXPECT_EQ(a[0].throughput, b[0].throughput);
        EXPECT_EQ(a[0].truthThroughput, b[0].truthThroughput);
    }
    EXPECT_EQ(uncached.cacheHits(), 0u);
    EXPECT_EQ(uncached.cacheMisses(), 0u);
}

TEST(ParallelCache, KeyDiscriminatesDeployments)
{
    sim::TestbedOptions opts;
    auto w_small = memBenchWorkload(4e6);
    auto w_large = memBenchWorkload(32e6);

    auto k1 = sim::deploymentKey(opts, {w_small});
    auto k2 = sim::deploymentKey(opts, {w_small});
    EXPECT_EQ(k1, k2);

    EXPECT_NE(k1, sim::deploymentKey(opts, {w_large}));
    EXPECT_NE(k1, sim::deploymentKey(opts, {w_small, w_small}));

    // Solver options are part of the key: a different solver setup
    // may converge differently, so results must not be shared.
    sim::TestbedOptions damped;
    damped.damping = 0.25;
    EXPECT_NE(k1, sim::deploymentKey(damped, {w_small}));

    // Noise parameters are deliberately NOT keyed — noise is applied
    // above the cache, the solve does not depend on it.
    sim::TestbedOptions noisy;
    noisy.noiseSigma = 0.5;
    noisy.seed = 1;
    EXPECT_EQ(k1, sim::deploymentKey(noisy, {w_small}));

    EXPECT_NE(tomur::fnv1a64(k1),
              tomur::fnv1a64(sim::deploymentKey(opts, {w_large})));
}

TEST(ParallelCache, CloneSharesPhysicsNotNoise)
{
    sim::Testbed bed(hw::blueField2(), {});
    auto w = memBenchWorkload(4e6);

    auto twin = bed.clone(/*seed=*/555);
    ASSERT_NE(twin, nullptr);
    auto a = bed.run({w});
    auto b = twin->run({w});
    ASSERT_EQ(a.size(), 1u);
    ASSERT_EQ(b.size(), 1u);
    // Same NIC and solver → same noise-free physics; independent
    // noise streams → different noisy readings.
    EXPECT_EQ(a[0].truthThroughput, b[0].truthThroughput);
    EXPECT_NE(a[0].throughput, b[0].throughput);
}

TEST(ParallelCache, FaultInjectionBypassesTheCache)
{
    auto w = memBenchWorkload(4e6);

    sim::Testbed inner(hw::blueField2(), {});
    sim::FaultConfig fc;
    fc.dropProb = 1.0; // every measurement comes back all-zero
    sim::FaultInjectingTestbed faulty(inner, fc);

    // Prewarming warms the *inner* solve cache without drawing noise
    // or faults...
    faulty.prewarm({{w}});
    EXPECT_EQ(inner.cacheMisses(), 1u);
    EXPECT_EQ(inner.cacheHits(), 0u);

    // ...and every subsequent run() still takes a fresh fault draw:
    // the cached clean solve can never leak past the injector.
    for (int i = 0; i < 3; ++i) {
        auto ms = faulty.run({w});
        ASSERT_EQ(ms.size(), 1u);
        EXPECT_EQ(ms[0].throughput, 0.0);
    }
    EXPECT_GT(inner.cacheHits(), 0u);

    // The inner testbed still serves clean measurements off the same
    // cache entry.
    auto clean = inner.run({w});
    ASSERT_EQ(clean.size(), 1u);
    EXPECT_GT(clean[0].throughput, 0.0);
}

TEST(ParallelCache, BatchedFaultyRunsStayPerCallRandom)
{
    auto w = memBenchWorkload(4e6);

    sim::Testbed inner(hw::blueField2(), {});
    sim::FaultConfig fc;
    fc.outlierProb = 0.5;
    fc.seed = 123;
    sim::FaultInjectingTestbed faulty(inner, fc);

    // The same faulty harness, run twice over an identical batch:
    // solves all hit the warm cache, yet fault draws keep advancing
    // per call — a memoized corrupted reading would repeat exactly.
    std::vector<std::vector<fw::WorkloadProfile>> batch(8, {w});
    auto first = faulty.runBatch(batch);
    auto second = faulty.runBatch(batch);
    ASSERT_EQ(first.size(), second.size());
    bool any_differs = false;
    for (std::size_t i = 0; i < first.size(); ++i) {
        if (first[i].size() != second[i].size() ||
            first[i][0].throughput != second[i][0].throughput)
            any_differs = true;
    }
    EXPECT_TRUE(any_differs)
        << "fault/noise draws must not be memoized";
    EXPECT_GT(inner.cacheHits(), 0u);
}

} // namespace
} // namespace tomur
