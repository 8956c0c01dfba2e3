#include "tomur/monitor.hh"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>

#include "common/logging.hh"
#include "common/serial.hh"
#include "common/strutil.hh"
#include "common/trace.hh"

namespace tomur::core {

namespace {

/** EWMA smoothing for the absolute relative error. */
constexpr double kEwmaAlpha = 0.1;
/** Recent samples kept for the windowed percentiles. */
constexpr std::size_t kWindow = 256;
/** Samples before any detector may fire (warm-up). */
constexpr std::size_t kMinSamples = 8;
/** Page–Hinkley magnitude tolerance (drift below it ignored). */
constexpr double kPhDelta = 0.005;
/** Page–Hinkley trip level on the cumulative deviation. */
constexpr double kPhLambda = 0.5;
/** EWMA |relative error| above this is degraded accuracy. */
constexpr double kAccuracyThreshold = 0.15;
/** Below kRecoveredFactor x kAccuracyThreshold the accuracy counts
 *  as recovered: the degraded alarm re-arms and an open recovery
 *  window may close. */
constexpr double kRecoveredFactor = 0.8;
/** Relative attribute delta vs its baseline that counts as a
 *  traffic shift. */
constexpr double kTrafficShiftFactor = 0.5;
/** EWMA smoothing for the traffic-attribute baselines. */
constexpr double kTrafficAlpha = 0.2;

/** Histogram layout shared by the registry metric and the windowed
 *  percentiles (|relative error| 0.5% .. 256%). */
const std::vector<double> &
errorBounds()
{
    static const std::vector<double> bounds =
        Histogram::exponentialBounds(0.005, 2.0, 10);
    return bounds;
}

const char *
kindMetricName(MonitorEventKind kind)
{
    switch (kind) {
      case MonitorEventKind::DriftDetected:
        return "tomur_monitor_drift_detected_total";
      case MonitorEventKind::AccuracyDegraded:
        return "tomur_monitor_accuracy_degraded_total";
      case MonitorEventKind::TrafficShift:
        return "tomur_monitor_traffic_shift_total";
      case MonitorEventKind::RecalibrationRecommended:
        return "tomur_monitor_recalibration_recommended_total";
      case MonitorEventKind::AccuracyRecovered:
        return "tomur_monitor_accuracy_recovered_total";
    }
    panic("kindMetricName: bad event kind");
}

/** Bucket layout of the recovery-span histogram (1 .. 32768
 *  samples, exponential). */
std::vector<double>
recoveryBounds()
{
    return Histogram::exponentialBounds(1.0, 2.0, 16);
}

} // namespace

const char *
monitorEventName(MonitorEventKind kind)
{
    switch (kind) {
      case MonitorEventKind::DriftDetected:
        return "DRIFT_DETECTED";
      case MonitorEventKind::AccuracyDegraded:
        return "ACCURACY_DEGRADED";
      case MonitorEventKind::TrafficShift:
        return "TRAFFIC_SHIFT";
      case MonitorEventKind::RecalibrationRecommended:
        return "RECALIBRATION_RECOMMENDED";
      case MonitorEventKind::AccuracyRecovered:
        return "ACCURACY_RECOVERED";
    }
    panic("monitorEventName: bad event kind");
}

MonitorSample
makeMonitorSample(const std::string &deployment,
                  const traffic::TrafficProfile &p,
                  const PredictionBreakdown &breakdown,
                  double measured)
{
    auto a = attributeContention(breakdown);
    MonitorSample s;
    s.deployment = deployment;
    s.profile = p;
    s.predicted = breakdown.predicted;
    s.measured = measured;
    s.confidence = a.confidence;
    s.degraded = a.degraded;
    s.bottleneck = resourceName(a.dominantResource);
    return s;
}

std::string
MonitorEvent::toJson() const
{
    std::string line = "{\"event\":\"";
    line += monitorEventName(kind);
    line += strf("\",\"sample\":%llu", (unsigned long long)sample);
    line += ",\"deployment\":\"" + jsonEscape(deployment) + "\"";
    line += ",\"value\":\"" + traceFormat(value) + "\"";
    line += ",\"threshold\":\"" + traceFormat(threshold) + "\"";
    line += ",\"detail\":\"" + jsonEscape(detail) + "\"}";
    return line;
}

std::string
MonitorSummary::toJson() const
{
    std::string line = strf(
        "{\"summary\":{\"samples\":%llu,\"invalid\":%llu,"
        "\"degraded\":%llu",
        (unsigned long long)samples, (unsigned long long)invalidSamples,
        (unsigned long long)degradedSamples);
    line += ",\"degraded_rate\":\"" + traceFormat(degradedRate) + "\"";
    line +=
        ",\"ewma_abs_error\":\"" + traceFormat(ewmaAbsError) + "\"";
    line +=
        ",\"mean_abs_error\":\"" + traceFormat(meanAbsError) + "\"";
    line += ",\"p50\":\"" + traceFormat(p50) + "\"";
    line += ",\"p90\":\"" + traceFormat(p90) + "\"";
    line += ",\"p99\":\"" + traceFormat(p99) + "\"";
    line += ",\"events\":{";
    for (int k = 0; k < numMonitorEventKinds; ++k) {
        if (k)
            line += ",";
        line += "\"";
        line +=
            monitorEventName(static_cast<MonitorEventKind>(k));
        line += strf("\":%llu", (unsigned long long)eventCounts[k]);
    }
    line += strf("},\"recovery\":{\"count\":%llu",
                 (unsigned long long)recoveries);
    line += ",\"mean\":\"" + traceFormat(meanRecoverySamples) + "\"";
    line += strf(",\"max\":%llu,\"open\":%d}",
                 (unsigned long long)maxRecoverySamples,
                 recoveryOpen ? 1 : 0);
    line += "}}";
    return line;
}

double
histogramQuantile(const Histogram::Snapshot &snap, double q)
{
    if (snap.count == 0)
        return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    double target = q * static_cast<double>(snap.count);
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < snap.counts.size(); ++b) {
        std::uint64_t prev = cum;
        cum += snap.counts[b];
        if (static_cast<double>(cum) < target)
            continue;
        if (snap.counts[b] == 0)
            continue;
        // +Inf bucket: no finite upper edge to interpolate towards.
        if (b >= snap.bounds.size())
            return snap.bounds.empty() ? 0.0 : snap.bounds.back();
        double lower = b == 0 ? 0.0 : snap.bounds[b - 1];
        double upper = snap.bounds[b];
        double frac = (target - static_cast<double>(prev)) /
                      static_cast<double>(snap.counts[b]);
        return lower + frac * (upper - lower);
    }
    return snap.bounds.empty() ? 0.0 : snap.bounds.back();
}

PredictionMonitor::PredictionMonitor(MonitorOptions opts)
    : opts_(std::move(opts)),
      mSamples_(&metrics().counter("tomur_monitor_samples_total")),
      mInvalid_(
          &metrics().counter("tomur_monitor_invalid_samples_total")),
      mDegraded_(
          &metrics().counter("tomur_monitor_degraded_samples_total")),
      mEvents_(&metrics().counter("tomur_monitor_events_total")),
      mEwma_(&metrics().gauge("tomur_monitor_ewma_abs_error")),
      mErrHist_(&metrics().histogram("tomur_monitor_abs_rel_error",
                                     errorBounds())),
      mRecoveryHist_(&metrics().histogram("tomur_recovery_samples",
                                          recoveryBounds()))
{
    for (int k = 0; k < numMonitorEventKinds; ++k) {
        mKind_[k] = &metrics().counter(
            kindMetricName(static_cast<MonitorEventKind>(k)));
        lastFired_[k] = 0;
    }
    for (int a = 0; a < traffic::numAttributes; ++a)
        trafficBase_[a] = 0.0;
}

void
PredictionMonitor::resetDriftDetector()
{
    phN_ = 0;
    phMean_ = 0.0;
    phUp_ = phUpMin_ = 0.0;
    phDown_ = phDownMax_ = 0.0;
}

void
PredictionMonitor::fire(std::vector<MonitorEvent> &out,
                        MonitorEventKind kind,
                        const MonitorSample &s, double value,
                        double threshold, std::string detail)
{
    MonitorEvent ev;
    ev.kind = kind;
    ev.sample = samples_;
    ev.deployment = s.deployment;
    ev.value = value;
    ev.threshold = threshold;
    ev.detail = std::move(detail);

    lastFired_[static_cast<int>(kind)] = samples_;
    mEvents_->inc();
    mKind_[static_cast<int>(kind)]->inc();
    if (kind == MonitorEventKind::TrafficShift ||
        kind == MonitorEventKind::DriftDetected) {
        // A regime change opens (or restarts) the recovery window;
        // the span is measured from the latest regime change.
        recoveryOpen_ = true;
        recoveryStartSample_ = samples_;
        recoveryTriggerKind_ = static_cast<int>(kind);
        recoveryStable_ = 0;
    }
    if (tracer().enabled()) {
        tracePoint("monitor.event",
                   {{"kind", monitorEventName(kind)},
                    {"deployment", ev.deployment},
                    {"value", traceFormat(value)},
                    {"threshold", traceFormat(threshold)}},
                   static_cast<std::int64_t>(samples_));
    }
    if (sink_)
        *sink_ << ev.toJson() << "\n";
    events_.push_back(ev);
    out.push_back(std::move(ev));
}

std::vector<MonitorEvent>
PredictionMonitor::ingest(const MonitorSample &s)
{
    std::vector<MonitorEvent> fired;
    ++samples_;
    mSamples_->inc();
    if (s.degraded) {
        ++degraded_;
        mDegraded_->inc();
    }

    // Cooldown: a kind may fire when it never has, or when enough
    // samples passed since its last event.
    auto cool = [&](MonitorEventKind kind) {
        std::size_t last = lastFired_[static_cast<int>(kind)];
        return last == 0 || samples_ - last >= opts_.cooldown;
    };

    // ---- Traffic-shift detector (independent of the error path,
    // so a faulted measurement still advances the baselines) ----
    double attrs[traffic::numAttributes];
    for (int a = 0; a < traffic::numAttributes; ++a)
        attrs[a] =
            s.profile.attribute(static_cast<traffic::Attribute>(a));
    if (trafficSamples_ == 0) {
        for (int a = 0; a < traffic::numAttributes; ++a)
            trafficBase_[a] = attrs[a];
    } else {
        int worst = -1;
        double worst_delta = 0.0;
        for (int a = 0; a < traffic::numAttributes; ++a) {
            double base = trafficBase_[a];
            double delta = std::abs(attrs[a] - base) /
                           std::max(std::abs(base), 1e-9);
            if (delta > worst_delta) {
                worst_delta = delta;
                worst = a;
            }
        }
        if (samples_ > kMinSamples &&
            worst_delta > kTrafficShiftFactor &&
            cool(MonitorEventKind::TrafficShift)) {
            auto attr = static_cast<traffic::Attribute>(worst);
            fire(fired, MonitorEventKind::TrafficShift, s,
                 worst_delta, kTrafficShiftFactor,
                 strf("%s %s -> %s",
                      traffic::attributeName(attr),
                      traceFormat(trafficBase_[worst]).c_str(),
                      traceFormat(attrs[worst]).c_str()));
            // The new regime becomes the baseline immediately, so a
            // sustained shift fires once, not every sample.
            for (int a = 0; a < traffic::numAttributes; ++a)
                trafficBase_[a] = attrs[a];
        } else {
            for (int a = 0; a < traffic::numAttributes; ++a) {
                trafficBase_[a] += kTrafficAlpha *
                                   (attrs[a] - trafficBase_[a]);
            }
        }
    }
    ++trafficSamples_;

    // ---- Error path ----
    bool valid = std::isfinite(s.measured) && s.measured > 0.0 &&
                 std::isfinite(s.predicted);
    if (!valid) {
        ++invalid_;
        mInvalid_->inc();
        return fired;
    }
    double err = (s.measured - s.predicted) / s.measured;
    double abs_err = std::abs(err);
    mErrHist_->observe(abs_err);
    ewmaAbsErr_ = errorSamples_ == 0
                      ? abs_err
                      : ewmaAbsErr_ +
                            kEwmaAlpha * (abs_err - ewmaAbsErr_);
    sumAbsErr_ += abs_err;
    ++errorSamples_;
    mEwma_->set(ewmaAbsErr_);
    window_.push_back(abs_err);
    while (window_.size() > kWindow)
        window_.pop_front();

    // ---- Two-sided Page–Hinkley on the signed error ----
    ++phN_;
    phMean_ += (err - phMean_) / static_cast<double>(phN_);
    phUp_ += err - phMean_ - kPhDelta;
    phUpMin_ = std::min(phUpMin_, phUp_);
    phDown_ += err - phMean_ + kPhDelta;
    phDownMax_ = std::max(phDownMax_, phDown_);
    double ph_stat =
        std::max(phUp_ - phUpMin_, phDownMax_ - phDown_);
    bool drift_fired = false;
    if (samples_ > kMinSamples && ph_stat > kPhLambda &&
        cool(MonitorEventKind::DriftDetected)) {
        std::string detail =
            strf("signed-error level shifted (running mean %s)",
                 traceFormat(phMean_).c_str());
        if (!s.bottleneck.empty())
            detail += "; model blames " + s.bottleneck;
        fire(fired, MonitorEventKind::DriftDetected, s, ph_stat,
             kPhLambda, std::move(detail));
        ++driftsSinceRecal_;
        drift_fired = true;
        resetDriftDetector();
    }

    // ---- Accuracy threshold with hysteresis ----
    if (samples_ > kMinSamples) {
        if (!accuracyAlarm_ &&
            ewmaAbsErr_ > kAccuracyThreshold &&
            cool(MonitorEventKind::AccuracyDegraded)) {
            accuracyAlarm_ = true;
            fire(fired, MonitorEventKind::AccuracyDegraded, s,
                 ewmaAbsErr_, kAccuracyThreshold,
                 strf("EWMA |relative error| %s above %s",
                      traceFormat(ewmaAbsErr_).c_str(),
                      traceFormat(kAccuracyThreshold).c_str()));
        } else if (accuracyAlarm_ &&
                   ewmaAbsErr_ <
                       kRecoveredFactor * kAccuracyThreshold) {
            accuracyAlarm_ = false;
        }
    }

    // ---- Recalibration recommendation: the model is both drifting
    // and inaccurate (or drifting repeatedly) ----
    if (drift_fired &&
        (accuracyAlarm_ || ewmaAbsErr_ > kAccuracyThreshold ||
         driftsSinceRecal_ >= 2) &&
        cool(MonitorEventKind::RecalibrationRecommended)) {
        std::string detail = "drift with degraded accuracy";
        if (!s.bottleneck.empty())
            detail += "; dominant resource " + s.bottleneck;
        fire(fired, MonitorEventKind::RecalibrationRecommended, s,
             ewmaAbsErr_, kAccuracyThreshold,
             std::move(detail));
        driftsSinceRecal_ = 0;
    }

    // ---- Recovery span: samples from the latest regime change
    // until the error EWMA holds below the recovered threshold. A
    // window opened this very sample cannot close yet (samples_ ==
    // recoveryStartSample_), and invalid samples never reach here,
    // so only valid post-change samples advance the stability run.
    if (recoveryOpen_ && samples_ > recoveryStartSample_) {
        double recovered = kRecoveredFactor * kAccuracyThreshold;
        if (ewmaAbsErr_ <= recovered) {
            ++recoveryStable_;
            if (recoveryStable_ >= opts_.recoveryStableSamples) {
                std::size_t span = samples_ - recoveryStartSample_;
                ++recoveries_;
                sumRecoverySamples_ += static_cast<double>(span);
                maxRecoverySamples_ =
                    std::max(maxRecoverySamples_, span);
                mRecoveryHist_->observe(static_cast<double>(span));
                fire(fired, MonitorEventKind::AccuracyRecovered, s,
                     static_cast<double>(span), recovered,
                     strf("%s at sample %llu recovered after %llu "
                          "samples",
                          monitorEventName(
                              static_cast<MonitorEventKind>(
                                  recoveryTriggerKind_)),
                          (unsigned long long)recoveryStartSample_,
                          (unsigned long long)span));
                recoveryOpen_ = false;
                recoveryStable_ = 0;
            }
        } else {
            recoveryStable_ = 0;
        }
    }
    return fired;
}

MonitorSummary
PredictionMonitor::summary() const
{
    MonitorSummary sum;
    sum.samples = samples_;
    sum.invalidSamples = invalid_;
    sum.degradedSamples = degraded_;
    sum.degradedRate =
        samples_ ? static_cast<double>(degraded_) /
                       static_cast<double>(samples_)
                 : 0.0;
    sum.ewmaAbsError = ewmaAbsErr_;
    sum.meanAbsError =
        errorSamples_ ? sumAbsErr_ /
                            static_cast<double>(errorSamples_)
                      : 0.0;
    if (!window_.empty()) {
        // Windowed percentiles through the telemetry Histogram: the
        // same bucket layout as the registry metric, rebuilt over
        // just the window.
        Histogram h(errorBounds());
        for (double e : window_)
            h.observe(e);
        auto snap = h.snapshot();
        sum.p50 = histogramQuantile(snap, 0.50);
        sum.p90 = histogramQuantile(snap, 0.90);
        sum.p99 = histogramQuantile(snap, 0.99);
    }
    for (const auto &ev : events_)
        ++sum.eventCounts[static_cast<int>(ev.kind)];
    sum.recoveries = recoveries_;
    sum.meanRecoverySamples =
        recoveries_ ? sumRecoverySamples_ /
                          static_cast<double>(recoveries_)
                    : 0.0;
    sum.maxRecoverySamples = maxRecoverySamples_;
    sum.recoveryOpen = recoveryOpen_;
    return sum;
}

void
PredictionMonitor::exportJsonl(std::ostream &out) const
{
    for (const auto &ev : events_)
        out << ev.toJson() << "\n";
    out << summary().toJson() << "\n";
}

namespace {

/** Version of the monitor_state format. */
constexpr int kStateVersion = 2;

} // namespace

template <class Self, class Sink>
void
PredictionMonitor::walk(Self &self, Sink &s)
{
    s.tag("monitor_state");
    int version = kStateVersion;
    s.integer(version);
    s.check(version == kStateVersion, "unsupported version");
    s.endLine();
    s.tag("counts");
    s.integer(self.samples_);
    s.integer(self.invalid_);
    s.integer(self.degraded_);
    s.integer(self.errorSamples_);
    s.integer(self.trafficSamples_);
    s.endLine();
    s.tag("ewma");
    s.real(self.ewmaAbsErr_);
    s.real(self.sumAbsErr_);
    s.flag(self.accuracyAlarm_);
    s.endLine();
    s.tag("window");
    std::size_t n = s.count(self.window_, self.samples_);
    s.elements(self.window_, n, [&](auto &v) { s.real(v); });
    s.endLine();
    s.tag("ph");
    s.integer(self.phN_);
    s.real(self.phMean_);
    s.real(self.phUp_);
    s.real(self.phUpMin_);
    s.real(self.phDown_);
    s.real(self.phDownMax_);
    s.integer(self.driftsSinceRecal_);
    s.endLine();
    s.tag("traffic");
    for (auto &base : self.trafficBase_)
        s.real(base);
    s.endLine();
    s.tag("cooldown");
    for (auto &last : self.lastFired_)
        s.integer(last);
    s.endLine();
    s.tag("recovery");
    s.flag(self.recoveryOpen_);
    s.integer(self.recoveryStartSample_);
    s.integer(self.recoveryTriggerKind_);
    s.check(self.recoveryTriggerKind_ >= 0 &&
                self.recoveryTriggerKind_ < numMonitorEventKinds,
            "trigger kind out of range");
    s.integer(self.recoveryStable_);
    s.integer(self.recoveries_);
    s.real(self.sumRecoverySamples_);
    s.integer(self.maxRecoverySamples_);
    s.endLine();
    s.tag("events");
    n = s.count(self.events_, self.samples_ * numMonitorEventKinds);
    s.endLine();
    s.elements(self.events_, n, [&](auto &ev) {
        s.tag("event");
        s.enumerated(ev.kind, numMonitorEventKinds);
        s.integer(ev.sample);
        s.real(ev.value);
        s.real(ev.threshold);
        s.endLine();
        s.tag("deployment");
        s.line(ev.deployment);
        s.endLine();
        s.tag("detail");
        s.line(ev.detail);
        s.endLine();
    });
}

void
PredictionMonitor::serialize(std::ostream &out) const
{
    std::string text;
    SerialWriter w(text);
    walk(*this, w);
    out << text;
}

Status
PredictionMonitor::restore(std::istream &in)
{
    PredictionMonitor parsed = *this;
    SerialReader r(in);
    walk(parsed, r);
    if (!r.ok())
        return r.status().withContext("monitor state");

    // Commit, then re-apply the observability side effects that a
    // fresh process would otherwise have lost.
    *this = std::move(parsed);
    mSamples_->inc(samples_);
    mInvalid_->inc(invalid_);
    mDegraded_->inc(degraded_);
    mEvents_->inc(events_.size());
    for (const auto &ev : events_)
        mKind_[static_cast<int>(ev.kind)]->inc();
    if (errorSamples_ > 0)
        mEwma_->set(ewmaAbsErr_);
    return Status::ok();
}

// ---------------------------------------------------------------
// Replay inputs
// ---------------------------------------------------------------

std::vector<ScheduleStep>
defaultSchedule(const traffic::TrafficProfile &base)
{
    auto shifted = base.withAttribute(
        traffic::Attribute::FlowCount,
        4.0 * static_cast<double>(base.flowCount));
    return {{base, 60}, {shifted, 60}, {base, 40}};
}

std::vector<ScheduleStep>
toSchedule(const std::vector<traffic::SynthStep> &steps)
{
    std::vector<ScheduleStep> out;
    out.reserve(steps.size());
    for (const auto &s : steps)
        out.push_back({s.profile, s.repeats});
    return out;
}

} // namespace tomur::core
