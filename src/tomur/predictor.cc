#include "tomur/predictor.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/strutil.hh"
#include "net/packet.hh"

namespace tomur::core {

namespace fw = framework;

namespace {

/** Confidence ceilings per fallback stage (see ModelHealth docs). */
constexpr double kMemoryOnlyConfidence = 0.6;
constexpr double kSoloPassthroughConfidence = 0.25;

/** Record a fallback on the breakdown (keeps the worst stage). */
void
degrade(PredictionBreakdown &out, double confidence,
        const std::string &reason)
{
    out.degraded = true;
    out.confidence = std::min(out.confidence, confidence);
    if (!out.degradedReason.empty())
        out.degradedReason += "; ";
    out.degradedReason += reason;
}

} // namespace

void
TomurModel::markMemoryDegraded(const std::string &reason)
{
    health_.memoryDegraded = true;
    touch();
    warnEvent("predictor", "memory-model-degraded",
              {{"nf", nfName_}, {"reason", reason}});
}

void
TomurModel::markSoloDegraded(const std::string &reason)
{
    health_.soloDegraded = true;
    touch();
    warnEvent("predictor", "solo-model-degraded",
              {{"nf", nfName_}, {"reason", reason}});
}

void
TomurModel::markAccelDegraded(hw::AccelKind kind,
                              const std::string &reason)
{
    health_.accelDegraded[static_cast<int>(kind)] = true;
    touch();
    warnEvent("predictor", "accel-model-degraded",
              {{"nf", nfName_},
               {"accel", hw::accelName(kind)},
               {"reason", reason}});
}

Result<double>
TomurModel::trySoloThroughput(const traffic::TrafficProfile &p) const
{
    if (soloModels_.empty()) {
        return Status::failedPrecondition(
            "TomurModel::soloThroughput before training");
    }
    if (health_.soloDegraded) {
        return Status::unavailable(
            "solo sensitivity model marked degraded");
    }
    double t = ml::meanPredict(soloModels_, p.toVector());
    if (!std::isfinite(t)) {
        return Status::unavailable(
            "solo sensitivity model returned a non-finite estimate");
    }
    return t;
}

double
TomurModel::soloThroughput(const traffic::TrafficProfile &p) const
{
    auto r = trySoloThroughput(p);
    if (!r) {
        warnEvent("predictor", "solo-estimate-unavailable",
                  {{"nf", nfName_},
                   {"reason", r.status().message()}});
        return 0.0;
    }
    return r.value();
}

PredictionBreakdown
TomurModel::predictDetailed(
    const std::vector<ContentionLevel> &competitors,
    const traffic::TrafficProfile &profile, double solo_hint) const
{
    PredictionBreakdown out;

    // ---- Solo baseline: profiled hint, else the solo model ----
    double t_solo = 0.0;
    if (solo_hint > 0.0 && std::isfinite(solo_hint)) {
        t_solo = solo_hint;
    } else if (auto r = trySoloThroughput(profile); r) {
        t_solo = std::max(1.0, r.value());
    } else {
        // No baseline at all: the prediction carries no information.
        // Report that instead of crashing (the pre-robustness code
        // panicked here).
        degrade(out, 0.0,
                "no solo baseline: " + r.status().message());
        warnEvent("predictor", "prediction-unavailable",
                  {{"nf", nfName_},
                   {"reason", out.degradedReason}});
        return out;
    }
    out.soloThroughput = t_solo;

    // ---- Memory stage (or the solo-hint passthrough fallback) ----
    double t_mem = t_solo;
    if (memory_.fitted() && !health_.memoryDegraded) {
        double ratio = memory_.predict(competitors, profile);
        if (std::isfinite(ratio)) {
            t_mem = std::clamp(ratio, 0.0, 1.0) * t_solo;
        } else {
            degrade(out, kSoloPassthroughConfidence,
                    "memory model returned a non-finite ratio; "
                    "using the solo baseline");
        }
    } else {
        degrade(out, kSoloPassthroughConfidence,
                health_.memoryDegraded
                    ? "memory model marked degraded; using the solo "
                      "baseline"
                    : "memory model not fitted; using the solo "
                      "baseline");
    }
    out.memoryOnlyThroughput = t_mem;

    // One drop per resource: memory, then each used accelerator.
    double drops[1 + hw::numAccelKinds] = {t_solo - t_mem};
    std::size_t n_drops = 1;

    // ---- Accelerator-only predictions ----
    for (int k = 0; k < hw::numAccelKinds; ++k) {
        if (health_.accelDegraded[k]) {
            // The NF uses this accelerator but its sub-model is
            // unusable: fall back to ignoring this resource's
            // contention (memory-only composition).
            out.accelOnlyThroughput[k] = t_solo;
            degrade(out, kMemoryOnlyConfidence,
                    std::string(hw::accelName(
                        static_cast<hw::AccelKind>(k))) +
                        " model degraded; its contention is ignored");
            continue;
        }
        if (!accel_[k]) {
            out.accelOnlyThroughput[k] = t_solo;
            continue;
        }
        out.accelUsed[k] = true;
        double payload = static_cast<double>(
            net::PacketBuilder::payloadForFrame(
                profile.packetSize, net::IpProto::Udp));
        double stage = accel_[k]->predictThroughput(
            profile.mtbr, payload, competitors,
            static_cast<hw::AccelKind>(k));
        double t_k = std::clamp(stage, 0.0, t_solo);
        out.accelOnlyThroughput[k] = t_k;
        drops[n_drops++] = t_solo - t_k;
    }

    out.predicted = compose(CompositionKind::ExecutionPattern,
                            pattern_, t_solo, {drops, n_drops});
    if (out.degraded) {
        warnEvent("predictor", "degraded-prediction",
                  {{"nf", nfName_},
                   {"confidence", strf("%.2f", out.confidence)},
                   {"reason", out.degradedReason}});
    }
    return out;
}

double
TomurModel::predict(const std::vector<ContentionLevel> &competitors,
                    const traffic::TrafficProfile &profile,
                    double solo_hint) const
{
    return predictDetailed(competitors, profile, solo_hint)
        .predicted;
}

double
TomurModel::predictComposed(
    CompositionKind kind,
    const std::vector<ContentionLevel> &competitors,
    const traffic::TrafficProfile &profile, double solo_hint) const
{
    auto d = predictDetailed(competitors, profile, solo_hint);
    std::vector<double> drops = {d.soloThroughput -
                                 d.memoryOnlyThroughput};
    for (int k = 0; k < hw::numAccelKinds; ++k) {
        if (d.accelUsed[k]) {
            drops.push_back(d.soloThroughput -
                            d.accelOnlyThroughput[k]);
        }
    }
    return compose(kind, pattern_, d.soloThroughput, drops);
}

} // namespace tomur::core
