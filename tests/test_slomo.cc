/**
 * @file
 * Tests for the SLOMO baseline: fixed-traffic accuracy (it should be
 * good at the training profile under memory-only contention) and its
 * documented failure modes (traffic deviation, accelerator
 * contention) that motivate Tomur.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "ml/metrics.hh"
#include "nfs/bench_nfs.hh"
#include "nfs/registry.hh"
#include "slomo/slomo.hh"
#include "tomur/lab.hh"

namespace tomur::slomo {
namespace {

namespace fw = framework;

using Fixture = core::Lab;

TEST(Slomo, AccurateAtFixedTrafficMemoryOnly)
{
    // Appendix A, Table 11: SLOMO is accurate in the regime it was
    // designed for.
    Fixture f;
    SlomoTrainer trainer(*f.lib);
    auto defaults = traffic::TrafficProfile::defaults();
    auto nf = nfs::makeFlowStats();
    auto model = trainer.train(*nf, defaults);

    auto w = fw::profileWorkload(*nf, defaults, &f.rules);
    Rng rng(3);
    std::vector<double> truth, pred;
    for (int i = 0; i < 30; ++i) {
        const auto &bench = f.lib->randomMemBench(rng);
        auto ms = f.bed.run({w, bench.workload});
        truth.push_back(ms[0].throughput);
        pred.push_back(model.predict({bench.level}, defaults));
    }
    EXPECT_LT(ml::mape(truth, pred), 8.0);
}

TEST(Slomo, ExtrapolatesSmallFlowDeviation)
{
    Fixture f;
    SlomoTrainer trainer(*f.lib);
    auto defaults = traffic::TrafficProfile::defaults();
    auto nf = nfs::makeFlowStats();
    auto model = trainer.train(*nf, defaults);
    EXPECT_NE(model.flowSensitivitySlope(), 0.0);

    // +15% flows: extrapolation keeps error moderate.
    auto p = defaults.withAttribute(traffic::Attribute::FlowCount,
                                    16000.0 * 1.15);
    auto nf2 = nfs::makeFlowStats();
    auto w = fw::profileWorkload(*nf2, p, &f.rules);
    const auto &bench = f.lib->memBenches()[30];
    auto ms = f.bed.run({w, bench.workload});
    double pred = model.predict({bench.level}, p);
    EXPECT_NEAR(pred / ms[0].truthThroughput, 1.0, 0.15);
}

TEST(Slomo, FailsOnLargeFlowDeviation)
{
    // §2.3 / Fig. 7(b): far outside the training flow count the
    // extrapolation breaks down.
    Fixture f;
    SlomoTrainer trainer(*f.lib);
    auto defaults = traffic::TrafficProfile::defaults();
    auto nf = nfs::makeFlowStats();
    auto model = trainer.train(*nf, defaults);

    auto p = defaults.withAttribute(traffic::Attribute::FlowCount,
                                    400e3);
    auto nf2 = nfs::makeFlowStats();
    auto w = fw::profileWorkload(*nf2, p, &f.rules);
    const auto &bench = f.lib->memBenches()[30];
    auto ms = f.bed.run({w, bench.workload});
    double pred = model.predict({bench.level}, p);
    double err = std::fabs(pred - ms[0].truthThroughput) /
                 ms[0].truthThroughput;
    EXPECT_GT(err, 0.10);
}

TEST(Slomo, BlindToRegexContention)
{
    // §2.2: under accelerator contention SLOMO's prediction barely
    // moves although the ground truth collapses.
    Fixture f;
    SlomoTrainer trainer(*f.lib);
    auto defaults = traffic::TrafficProfile::defaults();
    auto nf = nfs::makeNids(f.dev);
    auto model = trainer.train(*nf, defaults);

    auto w = fw::profileWorkload(*nf, defaults, &f.rules);
    double solo = f.bed.runSolo(w).truthThroughput;
    const auto &rx =
        f.lib->accelBench(hw::AccelKind::Regex, 0.0, 800.0);
    auto ms = f.bed.run({w, rx.workload});
    double truth = ms[0].truthThroughput;
    double pred = model.predict({rx.level}, defaults);
    // Truth halves; SLOMO predicts nearly solo.
    EXPECT_LT(truth, 0.7 * solo);
    EXPECT_GT(pred, 0.85 * solo);
}

TEST(Slomo, TrainingValidation)
{
    Fixture f;
    SlomoTrainer trainer(*f.lib);
    auto nf = nfs::makeFlowStats();
    SlomoTrainOptions opts;
    opts.samples = 2;
    EXPECT_DEATH(
        trainer.train(*nf, traffic::TrafficProfile::defaults(), opts),
        "too few samples");
}

} // namespace
} // namespace tomur::slomo
