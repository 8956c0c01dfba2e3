/**
 * @file
 * Figure 8: prediction error on FlowClassifier as the profiling
 * quota of random and adaptive profiling scales (0.5x / 1x / 1.5x),
 * against the full-profiling reference.
 * Paper: at 1.5x quota adaptive reaches full-profiling accuracy
 * (~2.4% vs 2.3%) while random does not improve, because it still
 * misses the performance-critical attribute ranges.
 */

#include "common.hh"

using namespace tomur;
using namespace tomur::bench;

int
main()
{
    printHeader("Figure 8: profiling quota sweep (FlowClassifier)",
                "adaptive converges to full-profiling accuracy with "
                "1.5x quota; random stalls");
    BenchEnv env;
    auto defaults = traffic::TrafficProfile::defaults();
    const char *name = "FlowClassifier";
    constexpr std::size_t kBaseQuota = 80;

    // Full-profiling reference.
    core::TrainOptions full;
    full.sampling = core::SamplingStrategy::Full;
    auto full_model = env.trainer->train(env.nf(name), defaults, full);

    // Shared test set.
    struct TestPoint
    {
        traffic::TrafficProfile p;
        const core::BenchLibrary::MemBenchEntry *bench;
        double truth;
        double solo;
    };
    std::vector<TestPoint> tests;
    Rng rng = env.rng.split();
    for (int i = 0; i < 40; ++i) {
        TestPoint t;
        t.p = env.randomProfile();
        t.bench = &env.lib->randomMemBench(rng);
        auto ms = env.bed.run(
            {env.workload(name, t.p), t.bench->workload});
        t.truth = ms[0].throughput;
        t.solo = env.solo(name, t.p);
        tests.push_back(std::move(t));
    }
    auto evalModel = [&](const core::TomurModel &m) {
        std::vector<double> truth, pred;
        for (const auto &t : tests) {
            truth.push_back(t.truth);
            pred.push_back(m.predict({t.bench->level}, t.p));
        }
        return ml::mape(truth, pred);
    };

    AsciiTable table({"quota", "random MAPE (%)", "adaptive MAPE (%)",
                      "full MAPE (%)"});
    for (double scale : {0.5, 1.0, 1.5}) {
        core::TrainOptions r, a;
        r.sampling = core::SamplingStrategy::Random;
        a.sampling = core::SamplingStrategy::Adaptive;
        r.adaptive.quota = a.adaptive.quota =
            static_cast<std::size_t>(kBaseQuota * scale);
        r.seed = a.seed = 99 + static_cast<std::uint64_t>(10 * scale);
        auto rm = env.trainer->train(env.nf(name), defaults, r);
        auto am = env.trainer->train(env.nf(name), defaults, a);
        table.addRow({strf("%.1fx", scale),
                      fmtDouble(evalModel(rm), 1),
                      fmtDouble(evalModel(am), 1),
                      fmtDouble(evalModel(full_model), 1)});
    }
    table.print(stdout);
    return 0;
}
