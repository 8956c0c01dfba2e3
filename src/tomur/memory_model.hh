/**
 * @file
 * Black-box memory-subsystem model (§4.1.2, §5.1.2): gradient
 * boosting over the aggregated competitor counters (Table 13) fused
 * with the target's traffic attribute vector. Following §7.1, three
 * models with different seeds are trained and predictions averaged.
 */

#ifndef TOMUR_TOMUR_MEMORY_MODEL_HH
#define TOMUR_TOMUR_MEMORY_MODEL_HH

#include <iosfwd>
#include <vector>

#include "common/status.hh"
#include "ml/gbr.hh"
#include "tomur/contention.hh"

namespace tomur::core {

/** Options for the memory model ensemble. */
struct MemoryModelOptions
{
    int seeds = 3;       ///< models averaged per prediction (§7.1)
    ml::GbrParams gbr{}; ///< base hyper-parameters
    /** Include the traffic attribute vector as extra features
     *  (Tomur: true; SLOMO-style fixed-traffic models: false). */
    bool trafficAware = true;
};

/** Option equality (guards warm-start reuse of a fitted model). */
bool operator==(const MemoryModelOptions &a,
                const MemoryModelOptions &b);

/**
 * Seed-averaged GBR predicting throughput under memory contention.
 */
class MemoryModel
{
  public:
    explicit MemoryModel(MemoryModelOptions opts = {});

    /**
     * Fit from training rows. Each row's features must come from
     * featuresFor() with the same trafficAware setting. Returns an
     * error (and leaves the model unfitted) when the dataset is
     * empty or contains non-finite rows — e.g. after every sample
     * of a profiling run was lost to measurement faults.
     */
    Status fit(const ml::Dataset &data);

    /** Build the feature vector for a competitor set + traffic. */
    std::vector<double>
    featuresFor(const std::vector<ContentionLevel> &competitors,
                const traffic::TrafficProfile &profile) const;

    /** Feature names (for building training datasets). */
    std::vector<std::string> featureNames() const;

    /** Predict throughput (pps) for a competitor set + traffic. */
    double
    predict(const std::vector<ContentionLevel> &competitors,
            const traffic::TrafficProfile &profile) const;

    bool fitted() const { return fitted_; }
    bool trafficAware() const { return opts_.trafficAware; }
    const MemoryModelOptions &options() const { return opts_; }

    /** Serialize the fitted ensemble to a text stream. */
    Status save(std::ostream &out) const;

    /** The field walk behind save() and the model file's memory
     *  section (common/serial.hh). */
    template <class Self, class Sink>
    static void walk(Self &self, Sink &sink);

  private:
    MemoryModelOptions opts_;
    std::vector<ml::GradientBoostingRegressor> models_;
    bool fitted_ = false;
};

} // namespace tomur::core

#endif // TOMUR_TOMUR_MEMORY_MODEL_HH
