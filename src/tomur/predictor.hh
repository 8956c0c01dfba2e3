/**
 * @file
 * The trained Tomur model for one NF: per-resource models composed
 * by execution pattern (§3, Appendix F.3). Prediction consumes only
 * competitor contention levels and the target's traffic profile.
 */

#ifndef TOMUR_TOMUR_PREDICTOR_HH
#define TOMUR_TOMUR_PREDICTOR_HH

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/serial.hh"
#include "common/status.hh"
#include "framework/nf.hh"
#include "tomur/accel_model.hh"
#include "tomur/adaptive.hh"
#include "tomur/composition.hh"
#include "tomur/memory_model.hh"

namespace tomur::core {

/** Per-resource breakdown of one prediction. */
struct PredictionBreakdown
{
    double soloThroughput = 0.0;
    double memoryOnlyThroughput = 0.0;
    double accelOnlyThroughput[hw::numAccelKinds] = {};
    bool accelUsed[hw::numAccelKinds] = {};
    double predicted = 0.0;

    /**
     * Prediction trust in [0, 1]. 1.0 = the full model ran; lower
     * values mean a fallback produced the number (see the fallback
     * chain in TomurModel). Consumers ranking or gating on
     * predictions (placement, diagnosis) should weigh or skip
     * low-confidence results.
     */
    double confidence = 1.0;
    /** True whenever any fallback below the full model was taken. */
    bool degraded = false;
    /** Human-readable reason when degraded (empty otherwise). */
    std::string degradedReason;
};

/**
 * Health of a model's parts. Sub-models get marked degraded when
 * their training/calibration data was unusable (e.g. under heavy
 * measurement faults) or by an operator quarantining a suspect part;
 * prediction then follows the fallback chain instead of crashing:
 *
 *   full model  ->  memory-only model  ->  solo-hint passthrough
 *
 * - full: memory + every used accelerator model healthy
 *   (confidence 1.0, degraded = false);
 * - memory-only: an accelerator sub-model is missing/degraded, so
 *   accelerator contention is ignored (confidence <= 0.6);
 * - solo-hint passthrough: the memory model itself is unusable, the
 *   prediction is just the solo baseline, ignoring all contention
 *   (confidence <= 0.25).
 */
struct ModelHealth
{
    bool soloDegraded = false;   ///< solo sensitivity model unusable
    bool memoryDegraded = false; ///< memory contention model unusable
    /** Accel sub-model unusable for a kind the NF does use. */
    bool accelDegraded[hw::numAccelKinds] = {};

    bool
    anyDegraded() const
    {
        bool any = soloDegraded || memoryDegraded;
        for (bool a : accelDegraded)
            any = any || a;
        return any;
    }
};

/** The model file's frame: `tomur_model 2 <bytes> <fnv1a64-hex>`,
 *  then the body; a body longer than 16 MiB is a corrupt header. */
inline constexpr FrameFormat kModelFrame{"tomur_model", 2, 16u << 20,
                                         "model"};

/**
 * A trained predictive model for one NF.
 */
class TomurModel
{
  public:
    TomurModel() = default;

    const std::string &nfName() const { return nfName_; }
    framework::ExecutionPattern pattern() const { return pattern_; }

    /**
     * Predict throughput under the given competitors and traffic.
     *
     * @param solo_hint the NF's profiled solo throughput at this
     *        traffic profile (Appendix F.3 input (3)); pass a
     *        non-positive value to fall back to the memory model's
     *        zero-contention estimate.
     */
    double
    predict(const std::vector<ContentionLevel> &competitors,
            const traffic::TrafficProfile &profile,
            double solo_hint = -1.0) const;

    /** Predict with the per-resource breakdown (diagnosis §7.5.2). */
    PredictionBreakdown
    predictDetailed(const std::vector<ContentionLevel> &competitors,
                    const traffic::TrafficProfile &profile,
                    double solo_hint = -1.0) const;

    /**
     * Predict with an alternative composition strategy (used by the
     * Table 4 / Fig. 2(b) comparisons).
     */
    double
    predictComposed(CompositionKind kind,
                    const std::vector<ContentionLevel> &competitors,
                    const traffic::TrafficProfile &profile,
                    double solo_hint = -1.0) const;

    /** Predicted solo throughput at a traffic profile. */
    double soloThroughput(const traffic::TrafficProfile &p) const;

    /**
     * Predicted solo throughput, or the Status explaining why no
     * estimate exists (untrained or degraded solo model). The
     * double-returning overload above warns and returns 0.0 in that
     * case instead of panicking.
     */
    Result<double>
    trySoloThroughput(const traffic::TrafficProfile &p) const;

    /** The memory per-resource model. */
    const MemoryModel &memoryModel() const { return memory_; }

    /** Health of the sub-models (drives the fallback chain). */
    const ModelHealth &health() const { return health_; }

    /**
     * Quarantine a sub-model: subsequent predictions skip it via the
     * fallback chain and carry degraded = true. Used by the trainer
     * when calibration data is unusable, and available to operators
     * who distrust a sub-model (e.g. a degraded accelerator).
     */
    void markMemoryDegraded(const std::string &reason);
    void markSoloDegraded(const std::string &reason);
    void markAccelDegraded(hw::AccelKind kind,
                           const std::string &reason);

    /** The accelerator model for a kind (nullopt if unused). */
    const std::optional<AccelQueueModel> &
    accelModel(hw::AccelKind kind) const
    {
        return accel_[static_cast<int>(kind)];
    }

    /**
     * Serialize the whole trained model to a text stream so the
     * offline training cost is paid once: a loaded model predicts
     * bit-identically to the original. The format carries a version
     * tag plus a length + checksum header over the body, so load()
     * rejects truncated or bit-flipped files deterministically.
     */
    Status save(std::ostream &out) const;

    /** The model body alone (a model file's payload, and what an
     *  autopilot checkpoint's model blob holds), appended to `out`. */
    Status saveBody(std::string &out) const;

    /**
     * Load from save() output. On error the model is left untouched
     * and the Status names the section that failed (header,
     * checksum, memory model, solo models, accelerator models).
     * Contextually convertible to bool: ok == loaded.
     */
    Status load(std::istream &in);

    /** load() of a body saveBody() wrote, with no frame around it. */
    Status loadBody(std::string_view body);

    /**
     * 64-bit digest of exactly the fields save() writes, hashed from
     * their in-memory values with no text formatting (a small
     * fraction of save()'s cost). Two models digest equal exactly
     * when their save() bytes are equal, up to 64-bit collisions:
     * both run the same field walk. The autopilot's checkpoints key
     * model blobs by it. Cached until the next mutation, so it fills
     * a cache: do not call it on one model from two threads at once.
     */
    std::uint64_t contentDigest() const;

  private:
    friend class TomurTrainer;

    /** The model body's field walk: save(), load() and
     *  contentDigest() all run it (common/serial.hh). */
    template <class Self, class Sink>
    static void walk(Self &self, Sink &sink);

    /** Record a mutation: invalidates the cached contentDigest(). */
    void touch() { ++mutations_; }

    std::string nfName_;
    framework::ExecutionPattern pattern_ =
        framework::ExecutionPattern::RunToCompletion;
    ModelHealth health_;
    /**
     * Memory per-resource model. Trained on the *relative* throughput
     * (T_contended / T_solo at the same traffic profile): the GBR
     * learns contention damage, while the traffic dependence of the
     * baseline lives in soloModel_ (the profiled sensitivity curve).
     */
    MemoryModel memory_;
    /** Solo throughput vs traffic attributes (seed-averaged GBR). */
    std::vector<ml::GradientBoostingRegressor> soloModels_;
    std::optional<AccelQueueModel> accel_[hw::numAccelKinds];
    /** Bumped by train, load and every mark*Degraded; copies carry
     *  it with the cache, so a recalibration's assignment does too. */
    std::uint64_t mutations_ = 0;
    /** contentDigest() as of mutation count digestAt_. */
    mutable std::uint64_t digestAt_ = ~std::uint64_t{0};
    mutable std::uint64_t digest_ = 0;
};

} // namespace tomur::core

#endif // TOMUR_TOMUR_PREDICTOR_HH
