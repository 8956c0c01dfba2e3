/**
 * @file
 * White-box queueing model for hardware accelerators (§4.1.1, §5.1.1).
 *
 * Calibrated from equilibrium co-runs with the synthetic accelerator
 * bench (no source access, no hardware counters needed): solving
 * Eq. 2 at two bench service times yields the NF's effective queue
 * count n and per-request time t. Traffic awareness follows Eq. 5
 * generalised to both payload-dependent attributes: a request over a
 * payload of p bytes at match density m (matches/MB) costs
 *
 *     t(p, m) = t0 + b * p + a * (m * p / 1e6),
 *
 * i.e. base cost, per-byte scan cost, and per-match cost — the same
 * shape as the engine's service law, recovered by linear regression
 * over calibration runs. Prediction evaluates the round-robin fluid
 * equilibrium over the calibrated parameters (the closed forms of
 * Eq. 2/6/8 are special cases).
 */

#ifndef TOMUR_TOMUR_ACCEL_MODEL_HH
#define TOMUR_TOMUR_ACCEL_MODEL_HH

#include <vector>

#include "common/status.hh"
#include "ml/linreg.hh"
#include "tomur/contention.hh"

namespace tomur::core {

/** One calibration observation. */
struct AccelCalibrationPoint
{
    double benchServiceTime = 0.0;   ///< known bench t_b (1 queue)
    double measuredThroughput = 0.0; ///< NF equilibrium pps
    double mtbr = 0.0;               ///< target traffic MTBR
    double payloadBytes = 0.0;       ///< target payload bytes/packet
};

/**
 * Calibrated accelerator model for one NF on one accelerator kind.
 */
class AccelQueueModel
{
  public:
    /**
     * Fit from equilibrium observations. Needs >= 2 distinct bench
     * service times at some traffic point to identify n, and varied
     * (mtbr, payload) coverage to identify the traffic law; with a
     * single traffic point the model degrades to fixed-traffic.
     * Returns an error (leaving the model uncalibrated) when the
     * points cannot identify the model — too few, non-positive, or
     * degenerate (e.g. collected under measurement faults) — so the
     * trainer can degrade gracefully instead of aborting.
     */
    Status calibrate(const std::vector<AccelCalibrationPoint> &points);

    /** Effective queue count n_i (rounded to an integer >= 1). */
    int queues() const { return queues_; }

    /** Per-request processing time at the given traffic. */
    double serviceTime(double mtbr, double payload_bytes) const;

    /** Coefficients of the service-time law. */
    double baseServiceTime() const { return t0_; }
    double perByteTime() const { return byteSlope_; }
    double perMatchTime() const { return matchSlope_; }

    /**
     * Predict the target's accelerator-stage throughput (packets/s,
     * assuming one request per packet as calibrated) given the
     * competitors' contention on accelerator `kind` (competitors
     * that do not use it are skipped).
     */
    double predictThroughput(
        double mtbr, double payload_bytes,
        const std::vector<ContentionLevel> &competitors,
        hw::AccelKind kind) const;

    bool calibrated() const { return calibrated_; }

    /** The field walk behind the model file's accelerator sections
     *  (common/serial.hh). */
    template <class Self, class Sink>
    static void walk(Self &self, Sink &sink);

  private:
    int queues_ = 1;
    double t0_ = 0.0;
    double byteSlope_ = 0.0;
    double matchSlope_ = 0.0;
    bool calibrated_ = false;
};

} // namespace tomur::core

#endif // TOMUR_TOMUR_ACCEL_MODEL_HH
