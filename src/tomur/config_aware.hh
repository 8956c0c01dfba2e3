/**
 * @file
 * Configuration-aware prediction (the paper's §8 future work).
 *
 * An NF's deployment configuration (tunnel MTU, table sizes, rule
 * counts, ...) changes its performance characteristics just like
 * traffic attributes do. Following the paper's suggestion —
 * "extracting configuration attributes for an NF and integrating it
 * into the per-resource models" — this module trains one TomurModel
 * per profiled configuration point and interpolates between them,
 * reusing Algorithm-1-style pruning/bisection to pick which
 * configuration values to profile.
 */

#ifndef TOMUR_TOMUR_CONFIG_AWARE_HH
#define TOMUR_TOMUR_CONFIG_AWARE_HH

#include <functional>
#include <map>
#include <memory>

#include "tomur/profiler.hh"

namespace tomur::core {

/** A one-dimensional configuration attribute of an NF family. */
struct ConfigAttribute
{
    std::string name;
    double min = 0.0;
    double max = 0.0;
};

/** Options for configuration-aware training. */
struct ConfigAwareOptions
{
    /** Maximum configuration points profiled (models trained). */
    int maxConfigPoints = 5;
    /** Per-configuration-point training options. */
    TrainOptions train{};
};

/**
 * A family of models over one configuration attribute.
 */
class ConfigAwareModel
{
  public:
    /** Factory building an NF instance at a configuration value. */
    using NfFactory =
        std::function<std::unique_ptr<framework::NetworkFunction>(
            double config_value)>;

    /**
     * Profile and train across the configuration range.
     *
     * Configuration values are chosen adaptively: the range is
     * bisected where solo throughput changes, up to
     * opts.maxConfigPoints trained anchor models.
     */
    static ConfigAwareModel
    train(TomurTrainer &trainer, const NfFactory &factory,
          const ConfigAttribute &attr,
          const traffic::TrafficProfile &defaults,
          const ConfigAwareOptions &opts = {});

    /**
     * Predict throughput at an arbitrary configuration value:
     * predictions of the two nearest anchor models are linearly
     * interpolated in the configuration coordinate.
     */
    double
    predict(double config_value,
            const std::vector<ContentionLevel> &competitors,
            const traffic::TrafficProfile &profile,
            double solo_hint = -1.0) const;

    /** Configuration values with trained anchor models. */
    std::vector<double> anchorValues() const;

    /** True when pruning found the NF configuration-insensitive. */
    bool configInsensitive() const { return anchors_.size() <= 1; }

    const ConfigAttribute &attribute() const { return attr_; }

  private:
    ConfigAttribute attr_;
    std::map<double, TomurModel> anchors_;
};

} // namespace tomur::core

#endif // TOMUR_TOMUR_CONFIG_AWARE_HH
