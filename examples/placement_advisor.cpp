/**
 * @file
 * Placement advisor: schedule a stream of NF arrivals across a
 * SmartNIC fleet while honouring per-NF SLAs (§7.5.1). Compares the
 * naive strategies with Tomur-guided placement and reports the
 * fleet size and SLA outcome of each.
 */

#include <cstdio>

#include "common/rng.hh"
#include "tomur/lab.hh"
#include "usecases/placement.hh"

using namespace tomur;
using namespace tomur::usecases;

int
main()
{
    core::Lab lab;

    std::vector<std::string> mix = {"FlowStats", "IPRouter", "NAT",
                                    "NIDS"};
    std::printf("Training models for the NF mix (one-time)...\n");
    PlacementContext ctx(*lab.lib, mix,
                         traffic::TrafficProfile::defaults(), 80);

    // A day's worth of tenant NF arrivals with 5-20% SLAs.
    Rng rng(7);
    std::vector<Arrival> arrivals;
    for (int i = 0; i < 32; ++i) {
        Arrival a;
        a.nfName = mix[rng.uniformInt(mix.size())];
        a.profile = traffic::TrafficProfile::defaults();
        a.slaMaxDrop = rng.uniform(0.05, 0.20);
        arrivals.push_back(std::move(a));
    }

    std::printf("\nPlacing %zu NF arrivals:\n", arrivals.size());
    std::printf("%-16s %8s %16s\n", "strategy", "NICs",
                "SLA violations");
    for (auto strat : {Strategy::Monopolization, Strategy::Greedy,
                       Strategy::Slomo, Strategy::Tomur,
                       Strategy::Oracle}) {
        auto out = ctx.place(arrivals, strat);
        std::printf("%-16s %8d %13d (%4.1f%%)\n",
                    strategyName(strat), out.nicsUsed,
                    out.slaViolations, out.violationRate());
    }
    std::printf("\nTomur packs close to the measurement-guided "
                "oracle while keeping violations near zero.\n");
    return 0;
}
