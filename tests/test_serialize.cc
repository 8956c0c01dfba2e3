/**
 * @file
 * Serialization round trips: saved and reloaded models predict
 * bit-identically, and malformed inputs are rejected.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/rng.hh"
#include "ml/gbr.hh"
#include "nfs/registry.hh"
#include "tomur/lab.hh"
#include "tomur/supervisor.hh"

namespace tomur {
namespace {

ml::Dataset
sampleData(int n, std::uint64_t seed)
{
    Rng rng(seed);
    ml::Dataset d({"a", "b", "c"});
    for (int i = 0; i < n; ++i) {
        double a = rng.uniform(0, 10), b = rng.uniform(0, 10),
               c = rng.uniform(0, 10);
        d.add({a, b, c}, a * 2 + (b > 5 ? 3 : 0) + 0.1 * c);
    }
    return d;
}

TEST(Serialize, GbrRoundTripBitIdentical)
{
    auto data = sampleData(300, 7);
    ml::GradientBoostingRegressor gbr;
    gbr.fit(data);

    std::stringstream ss;
    gbr.save(ss);
    ml::GradientBoostingRegressor loaded;
    ASSERT_TRUE(loaded.load(ss));

    Rng rng(9);
    for (int i = 0; i < 100; ++i) {
        std::vector<double> x = {rng.uniform(0, 10),
                                 rng.uniform(0, 10),
                                 rng.uniform(0, 10)};
        EXPECT_EQ(gbr.predict(x), loaded.predict(x));
    }
}

TEST(Serialize, MalformedInputsRejected)
{
    ml::GradientBoostingRegressor gbr;
    std::stringstream bad1("not_a_model 3");
    EXPECT_FALSE(gbr.load(bad1));
    std::stringstream bad2("gbr 2 0.5 0.1\ntree 1\n0 0 1 5 -1\n");
    // child index 5 out of range
    EXPECT_FALSE(gbr.load(bad2));
    std::stringstream truncated("gbr 2 0.5 0.1\ntree 1\n");
    EXPECT_FALSE(gbr.load(truncated));

    // Trees no prediction could walk: none at all (predict would
    // panic), a split that is its own child (it would loop forever)
    // and a split with absent children (it would index node -1).
    for (const char *shape : {"tree 0\n", "tree 1\n0 0.5 1 0 0\n",
                              "tree 1\n0 0.5 1 -1 -1\n"}) {
        std::stringstream in(std::string("gbr 1 0.5 0.1\n") + shape);
        EXPECT_FALSE(gbr.load(in)) << shape;
    }
}

/** This process's peak resident set in KiB (VmHWM), 0 off Linux. */
long
peakRssKb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtol(line.c_str() + 6, nullptr, 10);
    }
    return 0;
}

TEST(Serialize, HostileCountsAllocateWithTheInput)
{
    // Declared counts under their bounds but with nothing behind
    // them. Sized from the count, the tree alone would be 10M nodes
    // (about 300 MiB); read element by element, every load fails at
    // the first missing element having allocated next to nothing.
    const char *gbrs[] = {
        "gbr 1 0.5 0.1\ntree 10000000\n",
        "gbr 1000000 0.5 0.1\n",
    };
    const std::string supervisor =
        "supervisor_state 1\nbreaker 0 0 0 0 0\nrecal 0 0 0 0 0\n"
        "events 1000000\n";

    long before = peakRssKb();
    for (const char *text : gbrs) {
        ml::GradientBoostingRegressor gbr;
        std::istringstream in(text);
        EXPECT_FALSE(gbr.load(in)) << text;
    }
    core::Supervisor sup;
    std::istringstream in(supervisor);
    auto st = sup.restore(in);
    EXPECT_EQ(st.code(), StatusCode::CorruptData) << st.toString();
    long grownKb = peakRssKb() - before;
    RecordProperty("peak_rss_growth_kb", std::to_string(grownKb));
    EXPECT_LT(grownKb, 16 * 1024) << "peak RSS grew by " << grownKb
                                  << " KiB";
}

TEST(Serialize, SaveBeforeFitPanics)
{
    ml::GradientBoostingRegressor gbr;
    std::stringstream ss;
    EXPECT_DEATH(gbr.save(ss), "before fit");
}

TEST(Serialize, TomurModelRoundTrip)
{
    // Train a real (small-quota) model, persist it, reload it, and
    // check predictions match exactly on fresh inputs.
    core::Lab lab;

    auto defaults = traffic::TrafficProfile::defaults();
    auto nf = nfs::makeNids(lab.dev);
    core::TrainOptions opts;
    opts.adaptive.quota = 50;
    auto model = lab.trainer->train(*nf, defaults, opts);

    std::stringstream ss;
    ASSERT_TRUE(model.save(ss));
    core::TomurModel loaded;
    ASSERT_TRUE(loaded.load(ss));

    EXPECT_EQ(loaded.nfName(), model.nfName());
    EXPECT_EQ(loaded.pattern(), model.pattern());
    ASSERT_EQ(loaded.accelModel(hw::AccelKind::Regex).has_value(),
              model.accelModel(hw::AccelKind::Regex).has_value());

    Rng rng(5);
    for (int i = 0; i < 10; ++i) {
        auto p = defaults
                     .withAttribute(traffic::Attribute::Mtbr,
                                    rng.uniform(0, 1100))
                     .withAttribute(traffic::Attribute::FlowCount,
                                    rng.uniform(1e3, 5e5));
        const auto &bench = lab.lib->randomMemBench(rng);
        const auto &rx = lab.lib->accelBench(
            hw::AccelKind::Regex, rng.uniform(1e5, 4e5), 800.0);
        std::vector<core::ContentionLevel> levels = {bench.level,
                                                     rx.level};
        EXPECT_EQ(model.predict(levels, p),
                  loaded.predict(levels, p));
        EXPECT_EQ(model.soloThroughput(p), loaded.soloThroughput(p));
    }
}

TEST(Serialize, EveryLoadPathPredictsLikeTheTrainedModel)
{
    // Loading compiles each ensemble's node pool from the trees it
    // read: a model file's load(), a checkpoint blob's loadBody() and
    // a copy all predict exactly what the trained model predicts.
    core::Lab lab;
    auto defaults = traffic::TrafficProfile::defaults();
    auto nf = nfs::makeByName("FlowStats", lab.dev);
    core::TrainOptions opts;
    opts.adaptive.quota = 20;
    const auto model = lab.trainer->train(*nf, defaults, opts);

    std::stringstream file;
    ASSERT_TRUE(model.save(file));
    core::TomurModel fromFile;
    ASSERT_TRUE(fromFile.load(file));
    std::string body;
    ASSERT_TRUE(model.saveBody(body));
    core::TomurModel fromBody;
    ASSERT_TRUE(fromBody.loadBody(body));
    const core::TomurModel copy = fromBody;

    Rng rng(12);
    for (int i = 0; i < 200; ++i) {
        auto p = defaults
                     .withAttribute(traffic::Attribute::FlowCount,
                                    rng.uniform(1, 1e6))
                     .withAttribute(traffic::Attribute::PacketSize,
                                    rng.uniform(1, 9000))
                     .withAttribute(traffic::Attribute::Mtbr,
                                    i % 10 == 0 ? 1e12
                                                : rng.uniform(0, 2000));
        const auto &bench = lab.lib->randomMemBench(rng);
        std::vector<core::ContentionLevel> levels = {bench.level};
        const double want = model.predict(levels, p);
        EXPECT_EQ(fromFile.predict(levels, p), want);
        EXPECT_EQ(fromBody.predict(levels, p), want);
        EXPECT_EQ(copy.predict(levels, p), want);
        EXPECT_EQ(fromBody.soloThroughput(p), model.soloThroughput(p));
    }
}

TEST(Serialize, TomurModelRejectsWrongVersion)
{
    core::TomurModel m;
    std::stringstream ss("tomur_model 99\n");
    auto st = m.load(ss);
    EXPECT_FALSE(st);
    EXPECT_NE(st.message().find("version"), std::string::npos);
}

} // namespace
} // namespace tomur
