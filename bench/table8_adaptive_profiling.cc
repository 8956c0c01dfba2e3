/**
 * @file
 * Table 8: profiling cost vs model accuracy for full, random, and
 * adaptive profiling.
 * Paper: adaptive profiling matches full profiling (which uses
 * ~3200x more data) and clearly beats random at the same quota —
 * up to 35.5% MAPE reduction (FlowTracker) and +72% ±10% accuracy
 * (FlowClassifier).
 *
 * Scale substitution: "full" here is a dense 7x7x7 attribute grid
 * with three contention samples per point (~16x the quota), not
 * the paper's 3200x — the ordering full >= adaptive >> random is
 * what this regenerates.
 */

#include "common.hh"

using namespace tomur;
using namespace tomur::bench;

int
main()
{
    printHeader("Table 8: full vs random vs adaptive profiling",
                "adaptive ~ full at a fraction of the cost; random "
                "at the same quota is clearly worse");
    BenchEnv env;
    auto defaults = traffic::TrafficProfile::defaults();

    AsciiTable table({"NF", "Full MAPE", "Full ±10%", "Random MAPE",
                      "Random ±10%", "Adaptive MAPE",
                      "Adaptive ±10%", "Full cost (x quota)"});
    for (const char *name : {"FlowClassifier", "NAT", "FlowTracker",
                             "FlowStats", "IPTunnel"}) {
        std::map<core::SamplingStrategy, core::TomurModel> models;
        std::map<core::SamplingStrategy, std::size_t> costs;
        for (auto strat : {core::SamplingStrategy::Full,
                           core::SamplingStrategy::Random,
                           core::SamplingStrategy::Adaptive}) {
            core::TrainOptions topts;
            topts.sampling = strat;
            topts.adaptive.quota = 80;
            core::TrainReport report;
            models.emplace(strat,
                           env.trainer->train(env.nf(name), defaults,
                                              topts, &report));
            costs[strat] = report.memorySamples;
        }
        std::printf("  trained %s (full=%zu, adaptive=%zu samples)\n",
                    name, costs[core::SamplingStrategy::Full],
                    costs[core::SamplingStrategy::Adaptive]);
        std::fflush(stdout);

        // Common test set: random traffic + random memory benches.
        AccuracyTracker acc;
        Rng rng = env.rng.split();
        for (int i = 0; i < 40; ++i) {
            auto p = env.randomProfile();
            const auto &bench = env.lib->randomMemBench(rng);
            auto ms = env.bed.run(
                {env.workload(name, p), bench.workload});
            double truth = ms[0].throughput;
            acc.add("full",
                    truth,
                    models.at(core::SamplingStrategy::Full)
                        .predict({bench.level}, p));
            acc.add("random",
                    truth,
                    models.at(core::SamplingStrategy::Random)
                        .predict({bench.level}, p));
            acc.add("adaptive",
                    truth,
                    models.at(core::SamplingStrategy::Adaptive)
                        .predict({bench.level}, p));
        }
        double cost_ratio =
            static_cast<double>(costs[core::SamplingStrategy::Full]) /
            std::max<std::size_t>(
                1, costs[core::SamplingStrategy::Adaptive]);
        table.addRow({name, fmtDouble(acc.mape("full"), 1),
                      fmtDouble(acc.accWithin("full", 10), 1),
                      fmtDouble(acc.mape("random"), 1),
                      fmtDouble(acc.accWithin("random", 10), 1),
                      fmtDouble(acc.mape("adaptive"), 1),
                      fmtDouble(acc.accWithin("adaptive", 10), 1),
                      fmtDouble(cost_ratio, 1)});
    }
    table.print(stdout);
    return 0;
}
