/**
 * @file
 * Tests for configuration-aware prediction (§8 future-work
 * extension): the IPTunnel MTU knob, anchor selection, and
 * interpolation between anchor models.
 */

#include <gtest/gtest.h>

#include "nfs/registry.hh"
#include "tomur/config_aware.hh"
#include "tomur/lab.hh"

namespace tomur::core {
namespace {

/** A lab on a noiseless testbed. */
struct Fixture : Lab
{
    Fixture() : Lab(hw::blueField2(), {.noiseSigma = 0.0}) {}
};

TEST(IpTunnelConfig, MtuChangesPerformance)
{
    // The configuration knob is real: a smaller tunnel MTU means
    // more fragments per packet and lower throughput.
    Fixture f;
    auto coarse = nfs::makeIpTunnel(1400);
    auto fine = nfs::makeIpTunnel(400);
    auto p = traffic::TrafficProfile::defaults();
    double t_coarse =
        f.bed.runSolo(f.trainer->workloadOf(*coarse, p))
            .truthThroughput;
    double t_fine =
        f.bed.runSolo(f.trainer->workloadOf(*fine, p))
            .truthThroughput;
    EXPECT_GT(t_coarse, 1.3 * t_fine);
}

TEST(ConfigAware, TrainsAnchorsAndInterpolates)
{
    Fixture f;
    auto defaults = traffic::TrafficProfile::defaults();
    ConfigAttribute attr{"tunnel_mtu", 400.0, 1400.0};
    ConfigAwareOptions opts;
    opts.maxConfigPoints = 3;
    opts.train.adaptive.quota = 50;

    auto model = ConfigAwareModel::train(
        *f.trainer,
        [&](double mtu) {
            return nfs::makeIpTunnel(
                static_cast<std::size_t>(mtu));
        },
        attr, defaults, opts);

    // MTU matters, so pruning must keep multiple anchors.
    EXPECT_FALSE(model.configInsensitive());
    EXPECT_GE(model.anchorValues().size(), 2u);
    EXPECT_LE(model.anchorValues().size(), 3u);

    // Predict at an unseen configuration under memory contention.
    double mtu = 900.0;
    auto nf = nfs::makeIpTunnel(static_cast<std::size_t>(mtu));
    const auto &bench =
        f.lib->memBenches()[f.lib->memBenches().size() / 2];
    auto ms = f.bed.run(
        {f.trainer->workloadOf(*nf, defaults), bench.workload});
    double solo = f.bed.runSolo(f.trainer->workloadOf(*nf, defaults))
                      .truthThroughput;
    double pred =
        model.predict(mtu, {bench.level}, defaults, solo);
    EXPECT_NEAR(pred / ms[0].truthThroughput, 1.0, 0.15);
}

TEST(ConfigAware, InsensitiveNfCollapsesToOneModel)
{
    // FlowStats ignores a dummy configuration knob entirely: the
    // pruning step must keep a single anchor.
    Fixture f;
    auto defaults = traffic::TrafficProfile::defaults();
    ConfigAttribute attr{"dummy", 0.0, 100.0};
    ConfigAwareOptions opts;
    opts.train.adaptive.quota = 40;
    auto model = ConfigAwareModel::train(
        *f.trainer, [&](double) { return nfs::makeFlowStats(); },
        attr, defaults, opts);
    EXPECT_TRUE(model.configInsensitive());
    EXPECT_EQ(model.anchorValues().size(), 1u);
}

TEST(ConfigAware, ValidationErrors)
{
    Fixture f;
    ConfigAttribute bad{"x", 5.0, 5.0};
    EXPECT_DEATH(ConfigAwareModel::train(
                     *f.trainer,
                     [&](double) { return nfs::makeFlowStats(); },
                     bad, traffic::TrafficProfile::defaults()),
                 "range");
}

} // namespace
} // namespace tomur::core
