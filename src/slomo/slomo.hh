/**
 * @file
 * SLOMO baseline [42]: contention-aware NF performance prediction
 * with gradient boosting over the competitors' memory performance
 * counters, trained under a fixed (default) traffic profile, with
 * sensitivity extrapolation to adapt to moderate traffic deviations
 * (SLOMO §6). It models the memory subsystem only — the limitation
 * §2.2 demonstrates.
 */

#ifndef TOMUR_SLOMO_SLOMO_HH
#define TOMUR_SLOMO_SLOMO_HH

#include "tomur/memory_model.hh"
#include "tomur/profiler.hh"

namespace tomur::slomo {

/** SLOMO training options. */
struct SlomoTrainOptions
{
    /** Contended samples collected at the default profile (matched
     *  to Tomur's quota for fair comparison, §7.3). */
    std::size_t samples = 160;
};

/**
 * A trained SLOMO model for one NF.
 */
class SlomoModel
{
  public:
    SlomoModel() = default;

    /**
     * Predict throughput under a competitor set.
     *
     * SLOMO's model is traffic-agnostic except for first-order
     * sensitivity extrapolation in the flow count (SLOMO §6): the
     * prediction is scaled by a locally-measured solo-throughput
     * slope around the training flow count. Deviations in other
     * attributes (packet size, MTBR) and large flow-count deviations
     * are not captured — the limitation §2.3/§7.4 quantifies.
     *
     * @param competitors competitor contention levels (only memory
     *        counters are consumed)
     * @param profile the target's current traffic profile
     */
    double predict(
        const std::vector<core::ContentionLevel> &competitors,
        const traffic::TrafficProfile &profile) const;

    /** Solo throughput at the training (default) profile. */
    double trainingSolo() const { return trainingSolo_; }

    /** Relative solo-throughput slope per relative flow change. */
    double flowSensitivitySlope() const { return flowSlope_; }

    const traffic::TrafficProfile &trainingProfile() const
    {
        return trainingProfile_;
    }

  private:
    friend class SlomoTrainer;

    core::MemoryModel memory_{core::MemoryModelOptions{
        3, ml::GbrParams{}, /*trafficAware=*/false}};
    traffic::TrafficProfile trainingProfile_;
    double trainingSolo_ = 0.0;
    double flowSlope_ = 0.0;
};

/**
 * Trains SLOMO models against the same testbed and bench library as
 * Tomur (§7.1: both see the same amount of data).
 */
class SlomoTrainer
{
  public:
    explicit SlomoTrainer(core::BenchLibrary &library);

    /** Train at a fixed traffic profile. */
    SlomoModel train(framework::NetworkFunction &nf,
                     const traffic::TrafficProfile &training_profile,
                     const SlomoTrainOptions &opts = {});

  private:
    core::BenchLibrary &library_;
};

} // namespace tomur::slomo

#endif // TOMUR_SLOMO_SLOMO_HH
