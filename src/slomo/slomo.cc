#include "slomo/slomo.hh"

#include <algorithm>

#include "common/logging.hh"

namespace tomur::slomo {

namespace fw = framework;

namespace {

/** Seed of the competitor draws. */
constexpr std::uint64_t kSeed = 7;

} // namespace

double
SlomoModel::predict(
    const std::vector<core::ContentionLevel> &competitors,
    const traffic::TrafficProfile &profile) const
{
    double base = memory_.predict(competitors, profile);
    base = std::max(0.0, base);
    // Sensitivity extrapolation in the flow count: first-order
    // correction from the locally measured solo slope. Accurate
    // while the deviation stays small (the paper's <= 20% regime),
    // systematically off for large deviations or for attributes
    // SLOMO does not model (packet size, MTBR).
    double train_flows =
        static_cast<double>(trainingProfile_.flowCount);
    if (train_flows > 0.0) {
        double rel = (static_cast<double>(profile.flowCount) -
                      train_flows) / train_flows;
        double factor = 1.0 + flowSlope_ * rel;
        base *= std::clamp(factor, 0.25, 2.5);
    }
    return base;
}

SlomoTrainer::SlomoTrainer(core::BenchLibrary &library)
    : library_(library)
{
}

SlomoModel
SlomoTrainer::train(fw::NetworkFunction &nf,
                    const traffic::TrafficProfile &training_profile,
                    const SlomoTrainOptions &opts)
{
    if (opts.samples < 8)
        fatal("SlomoTrainer: too few samples");
    Rng rng(kSeed);

    // The same seed ensemble and GBR hyper-parameters as Tomur's
    // memory model, minus the traffic features.
    SlomoModel model;
    core::MemoryModelOptions mo;
    mo.trafficAware = false;
    model.memory_ = core::MemoryModel(mo);
    model.trainingProfile_ = training_profile;

    auto w = fw::profileWorkload(nf, training_profile,
                                 &library_.rules());
    auto &bed = library_.testbed();

    ml::Dataset data(model.memory_.featureNames());
    // Solo anchors.
    std::size_t solos = std::max<std::size_t>(4, opts.samples / 5);
    double solo_sum = 0.0;
    for (std::size_t i = 0; i < solos; ++i) {
        auto m = bed.runSolo(w);
        solo_sum += m.throughput;
        data.add(model.memory_.featuresFor({}, training_profile),
                 m.throughput);
    }
    model.trainingSolo_ = solo_sum / solos;
    // Contended samples across the mem-bench contention space.
    for (std::size_t i = solos; i < opts.samples; ++i) {
        const auto &bench = library_.randomMemBench(rng);
        auto ms = bed.run({w, bench.workload});
        data.add(model.memory_.featuresFor({bench.level},
                                           training_profile),
                 ms[0].throughput);
    }
    if (auto st = model.memory_.fit(data); !st)
        fatal("SlomoTrainer: " + st.toString());

    // Local flow-count sensitivity: measure solo at +-20% of the
    // training flow count and take the central-difference slope.
    double f0 = static_cast<double>(training_profile.flowCount);
    auto solo_at = [&](double flows) {
        auto p = training_profile.withAttribute(
            traffic::Attribute::FlowCount, flows);
        auto wp = fw::profileWorkload(nf, p, &library_.rules());
        return bed.runSolo(wp).truthThroughput;
    };
    double lo = solo_at(f0 * 0.8);
    double hi = solo_at(f0 * 1.2);
    if (model.trainingSolo_ > 0.0) {
        model.flowSlope_ =
            (hi - lo) / (0.4 * model.trainingSolo_);
    }
    return model;
}

} // namespace tomur::slomo
