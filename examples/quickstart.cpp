/**
 * @file
 * Quickstart: predict an NF's throughput before co-locating it.
 *
 * The workflow mirrors the paper's (Appendix F): profile the
 * synthetic benches once, train a Tomur model for the target NF
 * offline, then predict what happens when it shares the NIC with
 * other NFs — and check the prediction against a real deployment.
 */

#include <cstdio>

#include "nfs/registry.hh"
#include "tomur/lab.hh"

using namespace tomur;

int
main()
{
    // --- Lab: a BlueField-2-like SmartNIC; building it is the
    // one-time offline effort of profiling the synthetic benches --
    std::printf("Profiling synthetic benches (one-time)...\n");
    core::Lab lab;

    // --- Train a model for the target NF ------------------------
    auto traffic_profile = traffic::TrafficProfile::defaults();
    auto target = nfs::makeFlowMonitor(lab.dev);
    std::printf("Training Tomur model for %s...\n",
                target->name().c_str());
    auto model = lab.trainer->train(*target, traffic_profile);
    std::printf("  detected execution pattern: %s\n",
                framework::patternName(model.pattern()));

    // --- Describe the prospective co-residents ------------------
    auto nids = nfs::makeNids(lab.dev);
    auto flowstats = nfs::makeFlowStats();
    std::vector<core::ContentionLevel> competitors = {
        lab.trainer->contentionOf(*nids, traffic_profile),
        lab.trainer->contentionOf(*flowstats, traffic_profile),
    };

    // --- Predict, then verify against a real deployment ---------
    const auto &w = lab.trainer->workloadOf(*target, traffic_profile);
    double solo = lab.bed.runSolo(w).truthThroughput;
    double predicted =
        model.predict(competitors, traffic_profile, solo);

    auto measured = lab.bed.run({
        w,
        lab.trainer->workloadOf(*nids, traffic_profile),
        lab.trainer->workloadOf(*flowstats, traffic_profile),
    });

    std::printf("\n%s co-located with NIDS + FlowStats @ %s:\n",
                target->name().c_str(),
                traffic_profile.toString().c_str());
    std::printf("  solo throughput      : %8.1f Kpps\n", solo / 1e3);
    std::printf("  predicted (Tomur)    : %8.1f Kpps\n",
                predicted / 1e3);
    std::printf("  measured             : %8.1f Kpps\n",
                measured[0].throughput / 1e3);
    std::printf("  prediction error     : %8.1f %%\n",
                100.0 *
                    std::abs(predicted - measured[0].throughput) /
                    measured[0].throughput);
    return 0;
}
