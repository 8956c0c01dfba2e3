/**
 * @file
 * What-if traffic exploration: an operator asks how a deployed NF
 * would behave if the traffic mix shifted (more flows, smaller
 * packets, richer payload signatures) without touching production.
 * Tomur's traffic-aware models answer from offline profiles alone.
 */

#include <cstdio>

#include "nfs/registry.hh"
#include "tomur/lab.hh"

using namespace tomur;

int
main()
{
    core::Lab lab;

    auto defaults = traffic::TrafficProfile::defaults();
    auto nf = nfs::makeFlowStats();
    std::printf("Training Tomur model for %s...\n",
                nf->name().c_str());
    auto model = lab.trainer->train(*nf, defaults);

    // The NF shares the NIC with a fixed pair of neighbours.
    auto nat = nfs::makeNat();
    auto nids = nfs::makeNids(lab.dev);
    std::vector<core::ContentionLevel> neighbours = {
        lab.trainer->contentionOf(*nat, defaults),
        lab.trainer->contentionOf(*nids, defaults),
    };

    std::printf("\nWhat if the flow count changed? (predicted Kpps "
                "under the current neighbours)\n");
    std::printf("%-12s %14s %14s %10s\n", "flows", "predicted",
                "measured", "error");
    for (double flows : {2e3, 8e3, 16e3, 64e3, 128e3, 256e3, 500e3}) {
        auto p = defaults.withAttribute(
            traffic::Attribute::FlowCount, flows);
        const auto &w = lab.trainer->workloadOf(*nf, p);
        double solo = lab.bed.runSolo(w).truthThroughput;
        double pred = model.predict(neighbours, p, solo);
        auto ms = lab.bed.run(
            {w, lab.trainer->workloadOf(*nat, defaults),
             lab.trainer->workloadOf(*nids, defaults)});
        std::printf("%-12.0f %11.1f K  %11.1f K  %8.1f%%\n", flows,
                    pred / 1e3, ms[0].truthThroughput / 1e3,
                    100.0 * std::abs(pred - ms[0].truthThroughput) /
                        ms[0].truthThroughput);
    }
    return 0;
}
