/**
 * @file
 * Observability-layer tests: metrics registry semantics (striped
 * counters, gauges, fixed-bucket histograms, deterministic dumps),
 * span tracer behaviour (nesting, ring bounds, canonical export),
 * solver invariants read off the trace (residual monotonicity,
 * iteration bounds), golden-trace regression against committed
 * fixtures, and concurrency property tests.
 *
 * Suites prefixed "Parallel" are selected by
 * tools/run_sanitized_tests.sh for the TSan pass
 * (ctest -R '^Parallel'), covering the registry's striped shards and
 * the MeasurementCache stats path under real data races.
 *
 * Golden fixtures live in tests/golden/ (path baked in via
 * TOMUR_GOLDEN_DIR); regenerate with tools/update_goldens.sh or by
 * running this binary with TOMUR_UPDATE_GOLDENS=1.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/sampler.hh"
#include "common/telemetry.hh"
#include "common/threadpool.hh"
#include "common/trace.hh"
#include "framework/profile.hh"
#include "ml/gbr.hh"
#include "nfs/registry.hh"
#include "regex/ruleset.hh"
#include "sim/faults.hh"
#include "sim/measurement_cache.hh"
#include "sim/testbed.hh"

namespace tomur {
namespace {

namespace fw = framework;

/** RAII global pool width (restores the configured width on exit). */
struct PoolWidth
{
    explicit PoolWidth(int threads) { setGlobalThreadCount(threads); }
    ~PoolWidth() { setGlobalThreadCount(configuredThreadCount()); }
};

/** The value of a record's field, or nullptr. */
const std::string *
fieldOf(const TraceRecord &r, const std::string &key)
{
    for (const auto &f : r.fields) {
        if (f.key == key)
            return &f.value;
    }
    return nullptr;
}

// ---------------------------------------------------------------
// Registry semantics
// ---------------------------------------------------------------

TEST(TelemetryRegistry, CounterAccumulatesAndResets)
{
    MetricsRegistry r;
    Counter &c = r.counter("tomur_test_total");
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
    // Same name returns the same metric.
    EXPECT_EQ(&r.counter("tomur_test_total"), &c);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(TelemetryRegistry, GaugeSetAddReset)
{
    MetricsRegistry r;
    Gauge &g = r.gauge("tomur_test_gauge");
    g.set(2.5);
    EXPECT_DOUBLE_EQ(g.value(), 2.5);
    g.add(-1.0);
    EXPECT_DOUBLE_EQ(g.value(), 1.5);
    g.reset();
    EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(TelemetryRegistry, HistogramBucketsAreInclusiveUpperBounds)
{
    MetricsRegistry r;
    Histogram &h = r.histogram("tomur_test_hist", {1.0, 10.0});
    h.observe(1.0);  // le="1" (inclusive)
    h.observe(5.0);  // le="10"
    h.observe(99.0); // +Inf
    auto s = h.snapshot();
    ASSERT_EQ(s.counts.size(), 3u);
    EXPECT_EQ(s.counts[0], 1u);
    EXPECT_EQ(s.counts[1], 1u);
    EXPECT_EQ(s.counts[2], 1u);
    EXPECT_EQ(s.count, 3u);
    EXPECT_DOUBLE_EQ(s.sum, 105.0);
}

TEST(TelemetryRegistry, HistogramValueExactlyOnBoundIsInclusive)
{
    MetricsRegistry r;
    Histogram &h = r.histogram("tomur_test_edge_hist",
                               {1.0, 10.0, 100.0});
    // Values landing exactly on an upper bound belong to that
    // bucket, not the next one.
    h.observe(1.0);
    h.observe(10.0);
    h.observe(100.0);
    auto s = h.snapshot();
    ASSERT_EQ(s.counts.size(), 4u);
    EXPECT_EQ(s.counts[0], 1u);
    EXPECT_EQ(s.counts[1], 1u);
    EXPECT_EQ(s.counts[2], 1u);
    EXPECT_EQ(s.counts[3], 0u);
}

TEST(TelemetryRegistry, HistogramAboveLastBoundLandsInOverflow)
{
    MetricsRegistry r;
    Histogram &h = r.histogram("tomur_test_inf_hist", {1.0, 2.0});
    h.observe(2.0000001);
    h.observe(1e30);
    auto s = h.snapshot();
    ASSERT_EQ(s.counts.size(), 3u);
    EXPECT_EQ(s.counts[0], 0u);
    EXPECT_EQ(s.counts[1], 0u);
    EXPECT_EQ(s.counts[2], 2u);
    EXPECT_EQ(s.count, 2u);
}

TEST(TelemetryRegistry, HistogramNegativeValuesLandInFirstBucket)
{
    MetricsRegistry r;
    Histogram &h = r.histogram("tomur_test_neg_hist", {1.0, 2.0});
    h.observe(-5.0);
    h.observe(-0.0);
    auto s = h.snapshot();
    ASSERT_EQ(s.counts.size(), 3u);
    EXPECT_EQ(s.counts[0], 2u);
    EXPECT_EQ(s.count, 2u);
    EXPECT_DOUBLE_EQ(s.sum, -5.0);
}

TEST(TelemetryRegistry, ExponentialBoundsGrowByFactor)
{
    auto b = Histogram::exponentialBounds(2.0, 4.0, 3);
    ASSERT_EQ(b.size(), 3u);
    EXPECT_DOUBLE_EQ(b[0], 2.0);
    EXPECT_DOUBLE_EQ(b[1], 8.0);
    EXPECT_DOUBLE_EQ(b[2], 32.0);
}

TEST(TelemetryRegistry, DumpIsSortedPrometheusText)
{
    MetricsRegistry r;
    // Registered out of name order on purpose.
    r.histogram("tomur_b_hist", {1.0, 2.0}).observe(1.5);
    r.counter("tomur_c_total").inc(3);
    r.gauge("tomur_a_gauge").set(1.5);
    EXPECT_EQ(r.size(), 3u);
    EXPECT_EQ(r.dumpString(),
              "# TYPE tomur_a_gauge gauge\n"
              "tomur_a_gauge 1.5\n"
              "# TYPE tomur_b_hist histogram\n"
              "tomur_b_hist_bucket{le=\"1\"} 0\n"
              "tomur_b_hist_bucket{le=\"2\"} 1\n"
              "tomur_b_hist_bucket{le=\"+Inf\"} 1\n"
              "tomur_b_hist_sum 1.5\n"
              "tomur_b_hist_count 1\n"
              "# TYPE tomur_c_total counter\n"
              "tomur_c_total 3\n");
}

TEST(TelemetryRegistry, DumpBucketSeriesAreCumulative)
{
    // Prometheus histogram convention: each _bucket series counts
    // everything at or below its bound, so the series must be
    // monotonically nondecreasing and end at _count on +Inf.
    MetricsRegistry r;
    Histogram &h = r.histogram("tomur_cum_hist", {1.0, 2.0, 4.0});
    h.observe(0.5);
    h.observe(1.5);
    h.observe(3.0);
    h.observe(100.0);
    EXPECT_EQ(r.dumpString(),
              "# TYPE tomur_cum_hist histogram\n"
              "tomur_cum_hist_bucket{le=\"1\"} 1\n"
              "tomur_cum_hist_bucket{le=\"2\"} 2\n"
              "tomur_cum_hist_bucket{le=\"4\"} 3\n"
              "tomur_cum_hist_bucket{le=\"+Inf\"} 4\n"
              "tomur_cum_hist_sum 105\n"
              "tomur_cum_hist_count 4\n");
}

TEST(TelemetryRegistry, DumpEmptyHistogramIsAllZeroes)
{
    MetricsRegistry r;
    r.histogram("tomur_empty_hist", {1.0, 2.0});
    EXPECT_EQ(r.dumpString(),
              "# TYPE tomur_empty_hist histogram\n"
              "tomur_empty_hist_bucket{le=\"1\"} 0\n"
              "tomur_empty_hist_bucket{le=\"2\"} 0\n"
              "tomur_empty_hist_bucket{le=\"+Inf\"} 0\n"
              "tomur_empty_hist_sum 0\n"
              "tomur_empty_hist_count 0\n");
}

TEST(TelemetryRegistry, DumpSingleBucketAndOverflowOnly)
{
    MetricsRegistry r;
    Histogram &h = r.histogram("tomur_one_hist", {5.0});
    // Overflow-only: every observation above the lone bound keeps
    // the finite bucket at zero while +Inf carries the count.
    h.observe(6.0);
    h.observe(7.0);
    EXPECT_EQ(r.dumpString(),
              "# TYPE tomur_one_hist histogram\n"
              "tomur_one_hist_bucket{le=\"5\"} 0\n"
              "tomur_one_hist_bucket{le=\"+Inf\"} 2\n"
              "tomur_one_hist_sum 13\n"
              "tomur_one_hist_count 2\n");
}

TEST(TelemetryRegistry, DumpJsonMirrorsTextConventions)
{
    // The /debug/vars body: same sorted order, same cumulative
    // bucket convention, same number formatting as the text dump —
    // one JSON object, machine-parseable without Prometheus tooling.
    MetricsRegistry r;
    r.histogram("tomur_b_hist", {1.0, 2.0}).observe(1.5);
    r.counter("tomur_c_total").inc(3);
    r.gauge("tomur_a_gauge").set(1.5);
    EXPECT_EQ(r.dumpJsonString(),
              "{\"tomur_a_gauge\":1.5,"
              "\"tomur_b_hist\":{\"count\":1,\"sum\":1.5,"
              "\"buckets\":[{\"le\":1,\"cum\":0},"
              "{\"le\":2,\"cum\":1},"
              "{\"le\":\"+Inf\",\"cum\":1}]},"
              "\"tomur_c_total\":3}");
}

TEST(TelemetryRegistry, DumpJsonEdgeCases)
{
    MetricsRegistry empty;
    EXPECT_EQ(empty.dumpJsonString(), "{}");

    MetricsRegistry r;
    r.histogram("tomur_inf_only", {1.0}).observe(9.0);
    EXPECT_EQ(r.dumpJsonString(),
              "{\"tomur_inf_only\":{\"count\":1,\"sum\":9,"
              "\"buckets\":[{\"le\":1,\"cum\":0},"
              "{\"le\":\"+Inf\",\"cum\":1}]}}");

    DumpOptions opts;
    opts.excludePrefixes = {"tomur_inf_"};
    EXPECT_EQ(r.dumpJsonString(opts), "{}");
}

TEST(TelemetryRegistry, ExcludePrefixesFilterTheDump)
{
    MetricsRegistry r;
    r.counter("tomur_keep_total").inc();
    r.counter("tomur_pool_jobs_total").inc();
    DumpOptions opts;
    opts.excludePrefixes = {"tomur_pool_"};
    std::string out = r.dumpString(opts);
    EXPECT_NE(out.find("tomur_keep_total"), std::string::npos);
    EXPECT_EQ(out.find("tomur_pool_jobs_total"), std::string::npos);
}

TEST(TelemetryRegistry, ResetZeroesButKeepsRegistrations)
{
    MetricsRegistry r;
    r.counter("tomur_x_total").inc(7);
    r.gauge("tomur_y").set(3.0);
    r.histogram("tomur_z", {1.0}).observe(0.5);
    r.reset();
    EXPECT_EQ(r.size(), 3u);
    EXPECT_EQ(r.counter("tomur_x_total").value(), 0u);
    EXPECT_DOUBLE_EQ(r.gauge("tomur_y").value(), 0.0);
    EXPECT_EQ(r.histogram("tomur_z", {1.0}).snapshot().count, 0u);
}

TEST(TelemetryRegistryDeathTest, CrossTypeNameReusePanics)
{
    MetricsRegistry r;
    r.counter("tomur_clash");
    EXPECT_DEATH(r.gauge("tomur_clash"),
                 "registered with another type");
}

TEST(TelemetryRegistryDeathTest, HistogramLayoutDriftPanics)
{
    MetricsRegistry r;
    r.histogram("tomur_h", {1.0, 2.0});
    EXPECT_DEATH(r.histogram("tomur_h", {1.0, 3.0}),
                 "different bucket layout");
}

// ---------------------------------------------------------------
// Tracer semantics
// ---------------------------------------------------------------

TEST(TelemetryTrace, DisabledTracerRecordsNothing)
{
    tracer().disable();
    {
        TraceSpan span("noop");
        EXPECT_FALSE(span.active());
        span.field("k", std::string("v")); // must be a no-op
        tracePoint("noop.point");
    }
    EXPECT_EQ(tracer().recordCount(), 0u);
}

TEST(TelemetryTrace, SpansNestWithFieldsAndSteps)
{
    tracer().enable();
    {
        TraceSpan outer("outer");
        outer.field("who", std::string("test"));
        {
            TraceSpan inner("inner");
            inner.step(3);
            tracePoint("tick", {{"v", "1"}}, 7);
        }
    }
    auto recs = tracer().snapshot();
    tracer().disable();
    ASSERT_EQ(recs.size(), 3u); // point, inner, outer (close order)

    const TraceRecord *outer = nullptr, *inner = nullptr,
                      *point = nullptr;
    for (const auto &r : recs) {
        if (r.name == "outer")
            outer = &r;
        else if (r.name == "inner")
            inner = &r;
        else if (r.name == "tick")
            point = &r;
    }
    ASSERT_TRUE(outer && inner && point);
    EXPECT_TRUE(outer->isSpan);
    EXPECT_EQ(outer->parent, 0u);
    ASSERT_NE(fieldOf(*outer, "who"), nullptr);
    EXPECT_EQ(*fieldOf(*outer, "who"), "test");
    EXPECT_EQ(inner->parent, outer->id);
    EXPECT_EQ(inner->step, 3);
    EXPECT_FALSE(point->isSpan);
    EXPECT_EQ(point->parent, inner->id);
    EXPECT_EQ(point->step, 7);
    EXPECT_GE(outer->durNs, inner->durNs);
}

TEST(TelemetryTrace, RingBufferBoundsMemoryAndCountsDrops)
{
    tracer().enable(8);
    for (int i = 0; i < 100; ++i)
        tracePoint("flood", {}, i);
    EXPECT_EQ(tracer().recordCount(), 8u);
    EXPECT_EQ(tracer().droppedCount(), 92u);
    // The ring keeps the newest records: steps 92..99, oldest first.
    auto recs = tracer().snapshot();
    tracer().disable();
    ASSERT_EQ(recs.size(), 8u);
    for (std::size_t i = 0; i < recs.size(); ++i)
        EXPECT_EQ(recs[i].step, static_cast<std::int64_t>(92 + i));
}

TEST(TelemetryTrace, DroppedCounterIsRegisteredEagerly)
{
    // Constructing the tracer (any tracer() call) registers the drop
    // counter, so every --metrics-out dump shows the series even
    // when nothing was ever dropped.
    tracer();
    auto dump = metrics().dumpString();
    EXPECT_NE(dump.find("tomur_trace_dropped_total"),
              std::string::npos);
}

TEST(TelemetryTrace, EnableClearsPreviousRecords)
{
    tracer().enable();
    tracePoint("old");
    tracer().enable();
    EXPECT_EQ(tracer().recordCount(), 0u);
    tracer().disable();
}

TEST(TelemetryTrace, CanonicalExportOmitsTimestampsAndRenumbers)
{
    tracer().enable();
    {
        TraceSpan a("beta");
    }
    {
        TraceSpan b("alpha");
    }
    std::string text =
        tracer().exportString(TraceExportOptions{.canonical = true});
    tracer().disable();
    // Siblings sorted by serialized form: alpha before beta, ids
    // renumbered depth-first, no wall-clock fields.
    EXPECT_EQ(text,
              "{\"type\":\"span\",\"id\":1,\"parent\":0,"
              "\"name\":\"alpha\"}\n"
              "{\"type\":\"span\",\"id\":2,\"parent\":0,"
              "\"name\":\"beta\"}\n");
}

// ---------------------------------------------------------------
// Solver invariants, read off the trace
// ---------------------------------------------------------------

constexpr sim::TestbedOptions kNoiseless{.noiseSigma = 0.0};

struct SolverFixture
{
    regex::RuleSet rules = regex::defaultRuleSet();
    fw::DeviceSet dev{rules};
    sim::Testbed bed{hw::blueField2(), kNoiseless};
};

/**
 * The damped fixed-point solver must contract: per-iteration
 * residuals never increase, every solo solve converges, and it does
 * so well inside the documented bound (64 iterations for a solo
 * deployment — observed maxima are ~30, maxIterations is 400).
 */
TEST(SolverInvariants, ResidualsDecreaseAndIterationsBounded)
{
    SolverFixture f;
    auto tp = traffic::TrafficProfile::defaults();
    for (const auto &info : nfs::catalog()) {
        auto nf = nfs::makeByName(info.name, f.dev);
        auto w = fw::profileWorkload(*nf, tp, &f.rules);

        tracer().enable();
        f.bed.runSolo(w);
        auto recs = tracer().snapshot();
        tracer().disable();

        std::size_t solves = 0;
        for (const auto &r : recs) {
            if (!r.isSpan || r.name != "sim.solve")
                continue;
            ++solves;
            ASSERT_NE(fieldOf(r, "converged"), nullptr) << info.name;
            EXPECT_EQ(*fieldOf(r, "converged"), "true") << info.name;
            ASSERT_NE(fieldOf(r, "iterations"), nullptr);
            long iters = std::stol(*fieldOf(r, "iterations"));
            EXPECT_GE(iters, 1) << info.name;
            EXPECT_LE(iters, 64) << info.name;

            // The residual series under this span, in step order.
            std::vector<double> residuals;
            for (const auto &p : recs) {
                if (!p.isSpan && p.name == "sim.solve.iter" &&
                    p.parent == r.id) {
                    EXPECT_EQ(p.step,
                              static_cast<std::int64_t>(
                                  residuals.size()))
                        << info.name;
                    residuals.push_back(
                        std::stod(*fieldOf(p, "residual")));
                }
            }
            EXPECT_EQ(static_cast<long>(residuals.size()), iters);
            for (std::size_t i = 1; i < residuals.size(); ++i) {
                EXPECT_LE(residuals[i], residuals[i - 1])
                    << info.name << " iteration " << i;
            }
        }
        EXPECT_GE(solves, 1u) << info.name;
    }
}

TEST(SolverInvariants, SolverMetricsAgreeWithTrace)
{
    SolverFixture f;
    auto tp = traffic::TrafficProfile::defaults();
    auto nf = nfs::makeByName("NAT", f.dev);
    auto w = fw::profileWorkload(*nf, tp, &f.rules);

    metrics().reset();
    tracer().enable();
    f.bed.runSolo(w);
    auto recs = tracer().snapshot();
    tracer().disable();

    std::uint64_t traced_iters = 0, traced_solves = 0;
    for (const auto &r : recs) {
        if (!r.isSpan && r.name == "sim.solve.iter")
            ++traced_iters;
        if (r.isSpan && r.name == "sim.solve")
            ++traced_solves;
    }
    EXPECT_EQ(metrics().counter("tomur_solver_solves_total").value(),
              traced_solves);
    EXPECT_EQ(
        metrics().counter("tomur_solver_iterations_total").value(),
        traced_iters);
    EXPECT_EQ(
        metrics().counter("tomur_solver_converged_total").value(),
        traced_solves);
    EXPECT_EQ(
        metrics().counter("tomur_solver_maxed_out_total").value(),
        0u);
}

// ---------------------------------------------------------------
// Golden-trace regression
// ---------------------------------------------------------------

#ifndef TOMUR_GOLDEN_DIR
#define TOMUR_GOLDEN_DIR "tests/golden"
#endif

std::string
goldenPath(const std::string &file)
{
    return std::string(TOMUR_GOLDEN_DIR) + "/" + file;
}

std::string
readFileOrEmpty(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/**
 * The fixed golden scenario: a noise-free, fixed-seed walk through
 * the pipeline's instrumented layers — workload profiling (region /
 * accelerator attribution), a batch of *distinct* deployments
 * (distinct keys keep hit/miss counts width-independent), a cache
 * hit, deterministic-seed fault injection, and a GBR fit. Everything
 * it records is a pure function of the inputs, so the canonical
 * trace export and the filtered metrics dump are byte-identical at
 * any TOMUR_THREADS — and regression-diffed against the committed
 * fixtures.
 */
void
runGoldenScenario(std::string *trace_text, std::string *metrics_text)
{
    metrics().reset();
    tracer().enable();
    {
        TraceSpan root("golden.scenario");

        regex::RuleSet rules = regex::defaultRuleSet();
        fw::DeviceSet dev(rules);

        sim::TestbedOptions opts;
        opts.noiseSigma = 0.0;
        opts.seed = 7;
        sim::Testbed bed(hw::blueField2(), opts);

        traffic::TrafficProfile tp;
        tp.flowCount = 64;
        tp.packetSize = 512;
        tp.mtbr = 600;
        fw::ProfileOptions po;
        po.seed = 99;

        auto nat = nfs::makeByName("NAT", dev);
        auto stats = nfs::makeByName("FlowStats", dev);
        auto nids = nfs::makeByName("NIDS", dev);
        auto w_nat = fw::profileWorkload(*nat, tp, &rules, po);
        auto w_stats = fw::profileWorkload(*stats, tp, &rules, po);
        auto w_nids = fw::profileWorkload(*nids, tp, &rules, po);

        // Distinct deployments fan out across the pool; the repeated
        // run() afterwards must hit the cache.
        bed.runBatch({{w_nat},
                      {w_stats},
                      {w_nids},
                      {w_nat, w_stats},
                      {w_nat, w_nids},
                      {w_stats, w_nids}});
        bed.run({w_nat});

        // Fault injection: the draw order is fixed (serial run()
        // calls), so the injected set is deterministic.
        sim::FaultInjectingTestbed faulty(
            bed, sim::FaultConfig::uniformCorruption(0.5, 11));
        faulty.run({w_nat, w_stats});
        faulty.run({w_nids});

        // A small deterministic GBR fit for the ml.gbr round curve.
        ml::Dataset ds(std::vector<std::string>{"x0", "x1"});
        for (int i = 0; i < 32; ++i) {
            double x0 = 0.1 * i, x1 = (i % 5) - 2.0;
            ds.add({x0, x1}, 3.0 * x0 - 2.0 * x1 + 0.5);
        }
        ml::GbrParams gp;
        gp.numTrees = 8;
        gp.seed = 17;
        ml::GradientBoostingRegressor gbr(gp);
        gbr.fit(ds);
    }
    *trace_text =
        tracer().exportString(TraceExportOptions{.canonical = true});
    DumpOptions dump_opts;
    // Pool introspection depends on scheduling; the trace-drop
    // counter depends on whatever ran earlier in this process.
    dump_opts.excludePrefixes = {"tomur_pool_", "tomur_trace_"};
    *metrics_text = metrics().dumpString(dump_opts);
    tracer().disable();
}

/** Compare against (or, with TOMUR_UPDATE_GOLDENS=1, rewrite) one
 *  golden fixture. */
void
checkGolden(const std::string &file, const std::string &actual)
{
    const std::string path = goldenPath(file);
    if (std::getenv("TOMUR_UPDATE_GOLDENS")) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << actual;
        return;
    }
    std::string expected = readFileOrEmpty(path);
    ASSERT_FALSE(expected.empty())
        << path << " is missing; regenerate with "
        << "tools/update_goldens.sh";
    EXPECT_EQ(expected, actual)
        << "golden mismatch for " << file
        << "; if the change is intentional, regenerate with "
        << "tools/update_goldens.sh and review the diff";
}

TEST(GoldenTrace, SerialRunMatchesFixtures)
{
    PoolWidth width(1);
    std::string trace, mx;
    runGoldenScenario(&trace, &mx);
    checkGolden("trace_canonical.jsonl", trace);
    checkGolden("metrics.txt", mx);
}

TEST(GoldenTrace, WideRunIsByteIdenticalToFixtures)
{
    PoolWidth width(8);
    std::string trace, mx;
    runGoldenScenario(&trace, &mx);
    if (std::getenv("TOMUR_UPDATE_GOLDENS")) {
        // Fixtures are written by the serial test; here we only
        // verify the wide run reproduces them.
        std::string trace1, mx1;
        {
            PoolWidth serial(1);
            runGoldenScenario(&trace1, &mx1);
        }
        EXPECT_EQ(trace1, trace);
        EXPECT_EQ(mx1, mx);
        return;
    }
    checkGolden("trace_canonical.jsonl", trace);
    checkGolden("metrics.txt", mx);
}

TEST(GoldenTrace, ScenarioCoversEveryInstrumentedPhase)
{
    PoolWidth width(4);
    std::string trace, mx;
    runGoldenScenario(&trace, &mx);
    for (const char *needle :
         {"\"name\":\"profile.workload\"", "\"name\":\"profile.region\"",
          "\"name\":\"sim.runBatch\"", "\"name\":\"sim.prewarm\"",
          "\"name\":\"sim.cache\"", "\"name\":\"sim.solve\"",
          "\"name\":\"sim.solve.iter\"", "\"name\":\"sim.faults.run\"",
          "\"name\":\"ml.gbr.fit\"", "\"name\":\"ml.gbr.round\"",
          "\"outcome\":\"hit\""}) {
        EXPECT_NE(trace.find(needle), std::string::npos) << needle;
    }
    for (const char *metric :
         {"tomur_solver_solves_total", "tomur_cache_hits_total",
          "tomur_cache_misses_total", "tomur_faults_measurements_total",
          "tomur_gbr_fits_total", "tomur_profile_workloads_total"}) {
        EXPECT_NE(mx.find(metric), std::string::npos) << metric;
    }
}

// ---------------------------------------------------------------
// Concurrency properties (TSan-selected "Parallel" suites)
// ---------------------------------------------------------------

TEST(ParallelTelemetryCounters, ConcurrentIncrementsSumExactly)
{
    MetricsRegistry r;
    Counter &c = r.counter("tomur_test_total");
    constexpr int kThreads = 8;
    constexpr int kIncs = 20000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&c] {
            for (int i = 0; i < kIncs; ++i)
                c.inc();
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(c.value(),
              static_cast<std::uint64_t>(kThreads) * kIncs);
}

TEST(ParallelTelemetryCounters, PoolIncrementsSumExactly)
{
    PoolWidth width(8);
    MetricsRegistry r;
    Counter &c = r.counter("tomur_test_total");
    Gauge &g = r.gauge("tomur_test_gauge");
    parallelFor(10000, [&](std::size_t i) {
        c.inc(i % 3 + 1);
        g.set(static_cast<double>(i));
    });
    std::uint64_t expect = 0;
    for (std::size_t i = 0; i < 10000; ++i)
        expect += i % 3 + 1;
    EXPECT_EQ(c.value(), expect);
}

TEST(ParallelTelemetryHistogram, BucketCountsMatchObservations)
{
    PoolWidth width(8);
    MetricsRegistry r;
    Histogram &h =
        r.histogram("tomur_test_hist",
                    Histogram::exponentialBounds(1.0, 2.0, 10));
    constexpr std::size_t kObs = 50000;
    parallelFor(kObs, [&](std::size_t i) {
        h.observe(static_cast<double>(i % 1500));
    });
    auto s = h.snapshot();
    EXPECT_EQ(s.count, kObs);
    std::uint64_t bucket_sum = 0;
    for (auto c : s.counts)
        bucket_sum += c;
    EXPECT_EQ(bucket_sum, kObs);
}

TEST(ParallelTelemetryDump, ByteIdenticalAcrossPoolWidths)
{
    SolverFixture f;
    auto tp = traffic::TrafficProfile::defaults();
    auto nat = nfs::makeByName("NAT", f.dev);
    auto acl = nfs::makeByName("ACL", f.dev);
    auto w_nat = fw::profileWorkload(*nat, tp, &f.rules);
    auto w_acl = fw::profileWorkload(*acl, tp, &f.rules);

    DumpOptions opts;
    opts.excludePrefixes = {"tomur_pool_", "tomur_trace_"};
    auto dump_at = [&](int threads) {
        PoolWidth width(threads);
        metrics().reset();
        sim::Testbed bed(hw::blueField2(), kNoiseless);
        bed.runBatch({{w_nat}, {w_acl}, {w_nat, w_acl}});
        return metrics().dumpString(opts);
    };
    std::string serial = dump_at(1);
    EXPECT_EQ(dump_at(2), serial);
    EXPECT_EQ(dump_at(8), serial);
}

TEST(ParallelTelemetryCache, StatsRaceFree)
{
    // Hammer lookup/store/stats concurrently: the atomic hit/miss
    // path must be race-free (TSan) and exact (hits + misses ==
    // lookups).
    sim::MeasurementCache cache;
    constexpr int kThreads = 8;
    constexpr int kOps = 2000;
    std::vector<std::thread> threads;
    std::atomic<std::uint64_t> lookups{0};
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kOps; ++i) {
                std::string key =
                    "k" + std::to_string((t * 7 + i) % 64);
                std::vector<sim::Measurement> out;
                cache.lookup(key, &out);
                lookups.fetch_add(1);
                if (i % 3 == 0)
                    cache.store(key, {});
                if (i % 17 == 0)
                    cache.stats();
            }
        });
    }
    for (auto &t : threads)
        t.join();
    auto s = cache.stats();
    EXPECT_EQ(s.hits + s.misses, lookups.load());
    EXPECT_LE(s.entries, 64u);
}

TEST(ParallelTelemetryTrace, ConcurrentSpansAreWellFormed)
{
    PoolWidth width(8);
    tracer().enable();
    {
        TraceSpan root("parallel.root");
        parallelFor(64, [](std::size_t i) {
            TraceSpan span("parallel.task");
            span.step(static_cast<std::int64_t>(i));
            tracePoint("parallel.tick", {}, 0);
        });
    }
    auto recs = tracer().snapshot();
    tracer().disable();

    // Every record's parent is either a root or a recorded span id,
    // and pool tasks inherited the caller's root span.
    std::uint64_t root_id = 0;
    for (const auto &r : recs) {
        if (r.isSpan && r.name == "parallel.root")
            root_id = r.id;
    }
    ASSERT_NE(root_id, 0u);
    std::size_t tasks = 0;
    for (const auto &r : recs) {
        if (r.isSpan && r.name == "parallel.task") {
            ++tasks;
            EXPECT_EQ(r.parent, root_id);
        }
    }
    EXPECT_EQ(tasks, 64u);
}

TEST(ParallelTelemetryTrace, CanonicalExportIdenticalAcrossWidths)
{
    auto run_at = [](int threads) {
        PoolWidth width(threads);
        tracer().enable();
        {
            TraceSpan root("parallel.root");
            parallelFor(16, [](std::size_t i) {
                TraceSpan span("parallel.task");
                span.step(static_cast<std::int64_t>(i));
            });
        }
        std::string text = tracer().exportString(
            TraceExportOptions{.canonical = true});
        tracer().disable();
        return text;
    };
    std::string serial = run_at(1);
    EXPECT_EQ(run_at(8), serial);
}

// ---------------------------------------------------------------
// Sampling profiler
// ---------------------------------------------------------------

TEST(Sampler, BoundedMemoryUnderMillionTokens)
{
    SamplerOptions opts;
    opts.meanPeriod = 8;
    SamplingProfiler prof(opts);
    int site = prof.registerSite("loop");
    for (int i = 0; i < 1000000; ++i) {
        if (prof.beginToken(site))
            prof.endToken(site, 1);
    }
    EXPECT_EQ(prof.tokens(), 1000000u);
    // Retention is the per-site totals, nothing else.
    auto stats = prof.siteStats();
    ASSERT_EQ(stats.size(), 1u);
    EXPECT_EQ(stats[0].sampled, prof.sampledTokens());
    EXPECT_EQ(stats[0].sampledNs, prof.sampledTokens());
    // Sampling rate tracks 1/meanPeriod (gaps are uniform on
    // [1, 2*meanPeriod-1], so the expectation is exact; 20% slack
    // covers the variance at a million draws).
    EXPECT_GT(prof.sampledTokens(), 1000000u / 8 * 8 / 10);
    EXPECT_LT(prof.sampledTokens(), 1000000u / 8 * 12 / 10);
}

TEST(Sampler, SampledIndicesAreAFunctionOfTheSeed)
{
    // The gap seed is fixed, so two profilers with the same period
    // time the same token indices.
    SamplerOptions opts;
    opts.meanPeriod = 16;
    SamplingProfiler a(opts), b(opts);
    int sa = a.registerSite("x"), sb = b.registerSite("x");
    std::vector<int> ia, ib;
    for (int i = 0; i < 5000; ++i) {
        if (a.beginToken(sa)) {
            a.endToken(sa, 7);
            ia.push_back(i);
        }
        if (b.beginToken(sb)) {
            b.endToken(sb, 7);
            ib.push_back(i);
        }
    }
    EXPECT_FALSE(ia.empty());
    EXPECT_EQ(ia, ib);
}

TEST(Sampler, SiteStatsAggregateAndDedupe)
{
    SamplingProfiler prof;
    int a = prof.registerSite("solve");
    int b = prof.registerSite("ingest");
    EXPECT_NE(a, b);
    EXPECT_EQ(prof.registerSite("solve"), a); // lookup, not new id
    for (int i = 0; i < 100; ++i) {
        if (prof.beginToken(a))
            prof.endToken(a, 5);
    }
    for (int i = 0; i < 50; ++i) {
        if (prof.beginToken(b))
            prof.endToken(b, 9);
    }
    auto stats = prof.siteStats();
    ASSERT_EQ(stats.size(), 2u);
    EXPECT_EQ(stats[0].name, "solve");
    EXPECT_EQ(stats[0].tokens, 100u);
    EXPECT_EQ(stats[1].name, "ingest");
    EXPECT_EQ(stats[1].tokens, 50u);
    EXPECT_EQ(stats[0].sampled + stats[1].sampled,
              prof.sampledTokens());

    std::ostringstream out;
    prof.exportText(out);
    EXPECT_NE(out.str().find("solve"), std::string::npos);
    EXPECT_NE(out.str().find("ingest"), std::string::npos);
}

TEST(Sampler, NullProfilerScopeIsANoOp)
{
    // Call sites wrap phases unconditionally; a null profiler must
    // make that free (and obviously must not crash).
    for (int i = 0; i < 10; ++i) {
        SamplingProfiler::Scope scope(nullptr, 3);
    }
    SUCCEED();
}

TEST(Sampler, UnsampledPathCostIsBounded)
{
    // The unsampled fast path is a counter decrement — no clock
    // read. Structurally: with a huge mean period almost nothing is
    // sampled; and even the timing bound is generous enough (5 us
    // per token amortized) to never flake on a loaded machine.
    SamplerOptions opts;
    opts.meanPeriod = 1 << 20;
    SamplingProfiler prof(opts);
    int site = prof.registerSite("hot");
    const int n = 200000;
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < n; ++i) {
        SamplingProfiler::Scope scope(&prof, site);
    }
    auto t1 = std::chrono::steady_clock::now();
    EXPECT_EQ(prof.tokens(), static_cast<std::uint64_t>(n));
    EXPECT_LE(prof.sampledTokens(), 4u);
    double per_token =
        std::chrono::duration<double>(t1 - t0).count() / n;
    EXPECT_LT(per_token, 5e-6);
}

} // namespace
} // namespace tomur
