/**
 * @file
 * Prediction-quality observatory: online accuracy and drift
 * monitoring for a deployed model (the layer §7.5's traffic-awareness
 * claim needs in production — "is the model still right?").
 *
 * PredictionMonitor ingests a stream of (deployment, traffic,
 * predicted, measured) samples and maintains rolling error
 * statistics: an EWMA of the absolute relative error, windowed
 * p50/p90/p99 (computed through the telemetry Histogram over the
 * most recent window), and the degraded-path rate carried over from
 * PredictionBreakdown. Two online detectors watch the stream:
 *
 *  - a two-sided Page–Hinkley test on the *signed* relative error.
 *    A systematic constant model error does not trip it (the test
 *    tracks deviations from its own running mean); a shift in the
 *    error's level — the signature of model drift — does, within a
 *    bounded number of samples.
 *  - a traffic-shift detector on the attribute deltas (flow count,
 *    packet size, MTBR) against per-attribute EWMA baselines.
 *
 * Detections surface three ways at once: structured MonitorEvents
 * (DRIFT_DETECTED, ACCURACY_DEGRADED, TRAFFIC_SHIFT,
 * RECALIBRATION_RECOMMENDED, ACCURACY_RECOVERED) retained in order
 * and exportable as JSONL, `monitor.event` trace points, and
 * `tomur_monitor_*` metrics.
 *
 * Time-to-recovery is a first-class metric: every regime change
 * (TRAFFIC_SHIFT or DRIFT_DETECTED) opens a recovery window, and
 * when the error EWMA then holds below kRecoveredFactor x
 * kAccuracyThreshold (monitor.cc) for recoveryStableSamples
 * consecutive valid samples, an ACCURACY_RECOVERED event fires
 * whose value is the span in samples since the (latest) regime
 * change — also observed into the `tomur_recovery_samples` histogram
 * and rolled up in the summary trailer.
 *
 * Determinism contract: ingest() is a pure fold over the sample
 * stream — no wall clock, no RNG, deterministic double formatting —
 * so a width-invariant sample stream (everything the testbed and
 * trainer produce under the PR-2 contracts) yields a byte-identical
 * event stream at any TOMUR_THREADS. The golden fixture
 * tests/golden/monitor_events.jsonl pins exactly this.
 */

#ifndef TOMUR_TOMUR_MONITOR_HH
#define TOMUR_TOMUR_MONITOR_HH

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/status.hh"
#include "common/telemetry.hh"
#include "sim/faults.hh"
#include "tomur/attribution.hh"
#include "tomur/profiler.hh"
#include "traffic/synth.hh"

namespace tomur::core {

/** One live (prediction, measurement) pair. */
struct MonitorSample
{
    std::string deployment;          ///< deployment label
    traffic::TrafficProfile profile; ///< traffic at measure time
    double predicted = 0.0;
    double measured = 0.0;
    /** Carried from the prediction's attribution. */
    double confidence = 1.0;
    bool degraded = false;
    std::string bottleneck; ///< top attributed resource (may be "")
};

/** Build a sample from a prediction breakdown and a measurement. */
MonitorSample makeMonitorSample(const std::string &deployment,
                                const traffic::TrafficProfile &p,
                                const PredictionBreakdown &breakdown,
                                double measured);

/** Event kinds the monitor emits. */
enum class MonitorEventKind
{
    DriftDetected,             ///< Page–Hinkley tripped
    AccuracyDegraded,          ///< error EWMA crossed the threshold
    TrafficShift,              ///< attribute delta vs baseline
    RecalibrationRecommended,  ///< drift + degraded accuracy
    AccuracyRecovered,         ///< regime-change window closed
};

constexpr int numMonitorEventKinds = 5;

/** Wire name ("DRIFT_DETECTED", ...). */
const char *monitorEventName(MonitorEventKind kind);

/** One structured monitor event. */
struct MonitorEvent
{
    MonitorEventKind kind = MonitorEventKind::DriftDetected;
    std::size_t sample = 0; ///< 1-based ingest index that fired it
    std::string deployment;
    double value = 0.0;     ///< detector statistic at the trip
    double threshold = 0.0; ///< its trip level
    std::string detail;     ///< human-readable context

    /** One JSONL line (deterministic formatting). */
    std::string toJson() const;
};

/** Detector tuning that callers vary. The fixed detector constants
 *  (EWMA smoothing, window, warm-up, Page–Hinkley δ/λ, accuracy and
 *  traffic-shift thresholds, error buckets) live in monitor.cc; they
 *  hold for relative errors in the few-percent range (the trained
 *  models' regime). */
struct MonitorOptions
{
    /** Minimum samples between two events of the same kind. */
    std::size_t cooldown = 16;
    /** A recovery window closes once the error EWMA holds below the
     *  recovered level for this many consecutive valid samples. */
    std::size_t recoveryStableSamples = 4;
};

/** Rolling summary (also the JSONL trailer of an event stream). */
struct MonitorSummary
{
    std::size_t samples = 0;
    std::size_t invalidSamples = 0;  ///< non-finite/zero measured
    std::size_t degradedSamples = 0; ///< degraded prediction path
    double degradedRate = 0.0;
    double ewmaAbsError = 0.0;
    double meanAbsError = 0.0;
    double p50 = 0.0, p90 = 0.0, p99 = 0.0; ///< windowed |rel err|
    std::size_t eventCounts[numMonitorEventKinds] = {};

    // Time-to-recovery rollup (spans in samples).
    std::size_t recoveries = 0;
    double meanRecoverySamples = 0.0;
    std::size_t maxRecoverySamples = 0;
    bool recoveryOpen = false; ///< a regime change is unrecovered

    std::string toJson() const;
};

/**
 * Interpolated quantile off a Histogram snapshot (Prometheus-style:
 * linear within the bucket that crosses the target rank; the +Inf
 * bucket reports the last finite bound). q in [0, 1].
 */
double histogramQuantile(const Histogram::Snapshot &snap, double q);

/**
 * The online monitor. Not thread-safe by design: samples arrive in
 * deployment order and the fold over them must be deterministic, so
 * one owner ingests serially (parallelism lives below, in how the
 * samples were produced).
 */
class PredictionMonitor
{
  public:
    explicit PredictionMonitor(MonitorOptions opts = {});

    /**
     * Ingest one sample. Returns the events this sample fired (also
     * retained in events()); emits trace points and metrics as a
     * side effect. Samples with a non-finite or non-positive
     * measured throughput update counts only (a faulted measurement
     * must not poison the detectors).
     */
    std::vector<MonitorEvent> ingest(const MonitorSample &sample);

    /** Every event fired so far, in ingest order. */
    const std::vector<MonitorEvent> &events() const
    {
        return events_;
    }

    MonitorSummary summary() const;

    /** All events as JSONL, then one summary trailer line. */
    void exportJsonl(std::ostream &out) const;

    /**
     * Write the complete detector state (rolling statistics,
     * Page–Hinkley accumulators, traffic baselines, cooldowns, and
     * the retained event list) so a restored monitor continues the
     * fold — and re-exports the full event stream — exactly as if
     * the process had never died. Options and the event sink are NOT
     * serialized; construct the restored monitor with the same
     * MonitorOptions and re-attach any sink.
     */
    void serialize(std::ostream &out) const;

    /**
     * Restore state written by serialize(). Parses into temporaries
     * and commits only on success; re-applies sample/event counts to
     * the process-wide counters (histogram refill is skipped — the
     * registry histogram is cumulative observability, not part of
     * the deterministic fold).
     */
    Status restore(std::istream &in);

    /** Also write each event (and nothing else) to this stream as
     *  it fires; pass nullptr to detach. */
    void setEventSink(std::ostream *sink) { sink_ = sink; }

    const MonitorOptions &options() const { return opts_; }

  private:
    void fire(std::vector<MonitorEvent> &out, MonitorEventKind kind,
              const MonitorSample &s, double value, double threshold,
              std::string detail);
    void resetDriftDetector();

    /** The state format serialize() writes and restore() reads
     *  (common/serial.hh). */
    template <class Self, class Sink>
    static void walk(Self &self, Sink &s);

    MonitorOptions opts_;
    std::ostream *sink_ = nullptr;
    std::vector<MonitorEvent> events_;

    // Rolling error state.
    std::size_t samples_ = 0;
    std::size_t invalid_ = 0;
    std::size_t degraded_ = 0;
    std::size_t errorSamples_ = 0;
    double ewmaAbsErr_ = 0.0;
    double sumAbsErr_ = 0.0;
    std::deque<double> window_;
    bool accuracyAlarm_ = false;

    // Page–Hinkley state (two-sided, on the signed relative error).
    std::size_t phN_ = 0;
    double phMean_ = 0.0;
    double phUp_ = 0.0, phUpMin_ = 0.0;
    double phDown_ = 0.0, phDownMax_ = 0.0;
    std::size_t driftsSinceRecal_ = 0;

    // Traffic baselines (EWMA per attribute; <0 = uninitialized).
    double trafficBase_[traffic::numAttributes];
    std::size_t trafficSamples_ = 0;

    // Per-kind cooldown bookkeeping (sample index of last event).
    std::size_t lastFired_[numMonitorEventKinds];

    // Recovery window (regime change -> recovered accuracy). A new
    // regime change while a window is open restarts the clock: the
    // span measures from the *latest* regime change.
    bool recoveryOpen_ = false;
    std::size_t recoveryStartSample_ = 0;
    int recoveryTriggerKind_ = 0;
    std::size_t recoveryStable_ = 0;
    std::size_t recoveries_ = 0;
    double sumRecoverySamples_ = 0.0;
    std::size_t maxRecoverySamples_ = 0;

    // Metrics (looked up once; registration is the only lock).
    // Pointers, so restore() can assign a parsed copy.
    Counter *mSamples_;
    Counter *mInvalid_;
    Counter *mDegraded_;
    Counter *mEvents_;
    Counter *mKind_[numMonitorEventKinds];
    Gauge *mEwma_;
    Histogram *mErrHist_;
    Histogram *mRecoveryHist_;
};

// ---------------------------------------------------------------
// Replay inputs (runAutopilot in tomur/supervisor.hh is the loop)
// ---------------------------------------------------------------

/** One step of a replayed traffic schedule. */
struct ScheduleStep
{
    traffic::TrafficProfile profile;
    int repeats = 1;
};

/** Built-in demo schedule: a stationary phase at `base`, then a
 *  flow-count shift, then back — enough to exercise every event. */
std::vector<ScheduleStep>
defaultSchedule(const traffic::TrafficProfile &base);

/** Lower a synthesized scenario (traffic/synth: a `--scenario`
 *  script or a generator) onto the replayable schedule. */
std::vector<ScheduleStep>
toSchedule(const std::vector<traffic::SynthStep> &steps);

/** Everything a replay needs about the deployment under watch. */
struct ReplayContext
{
    TomurTrainer *trainer = nullptr;
    TomurModel *model = nullptr;
    framework::NetworkFunction *nf = nullptr;
    /** Competitor contention levels (model input). */
    std::vector<ContentionLevel> levels;
    /** Competitor workloads (deployed alongside the target). */
    std::vector<framework::WorkloadProfile> competitors;
    /** Clean testbed for solo baselines (and measurement when
     *  measureBed is null). */
    sim::Testbed *soloBed = nullptr;
    /** Measurement path; may inject faults and carries the
     *  deterministic drift bias. Null: measure on soloBed. */
    sim::FaultInjectingTestbed *measureBed = nullptr;
    std::string label; ///< deployment label on every sample
};

/** Replay options. */
struct ReplayOptions
{
    /** 0-based sample index at which the measurement path's
     *  deterministic throughput bias switches on (simulated model
     *  drift); negative = never. Requires measureBed. */
    long biasAtSample = -1;
    double biasFactor = 0.7;
};

} // namespace tomur::core

#endif // TOMUR_TOMUR_MONITOR_HH
