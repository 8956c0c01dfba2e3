/**
 * @file
 * Per-prediction contention attribution: rank each shared resource's
 * contribution to a prediction's throughput drop.
 *
 * This is the single place the "which resource hurts most" ranking
 * lives. Each consumer computes it once per prediction: the serve
 * endpoints name its top entry, the diagnosis use case (§7.5.2) maps
 * that entry onto a diagnosable resource, and the prediction monitor
 * attaches it to drift events so an operator sees not just *that*
 * the model drifted but *which* resource the model blames.
 */

#ifndef TOMUR_TOMUR_ATTRIBUTION_HH
#define TOMUR_TOMUR_ATTRIBUTION_HH

#include <string>
#include <vector>

#include "tomur/predictor.hh"

namespace tomur::core {

/** A shared resource an NF contends on: memory, then the
 *  accelerators in hw::AccelKind order. */
enum class Resource
{
    Memory,
    Regex,
    Compression,
    Crypto,
};

/** Resource name for reports and bodies ("memory", "regex", ...). */
const char *resourceName(Resource r);

/** The resource one accelerator kind is. */
constexpr Resource
accelResource(hw::AccelKind kind)
{
    return static_cast<Resource>(1 + static_cast<int>(kind));
}
static_assert(accelResource(hw::AccelKind::Crypto) == Resource::Crypto &&
              hw::numAccelKinds == 3);

/** One resource's contribution to the predicted drop. */
struct ResourceContribution
{
    Resource resource = Resource::Memory;
    double drop = 0.0;  ///< solo minus resource-only throughput (pps)
    double share = 0.0; ///< fraction of the summed drops, in [0, 1]
};

/** Ranked contention attribution for one prediction. */
struct ContentionAttribution
{
    /**
     * Contributions sorted by descending drop; ties keep Resource
     * order (memory first), matching the predictor's historical
     * argmax. Memory is always present; accelerators the
     * prediction did not model (unused or degraded sub-model) are
     * omitted.
     */
    std::vector<ResourceContribution> ranked;
    Resource dominantResource = Resource::Memory; ///< ranked.front()
    double soloThroughput = 0.0;
    double predicted = 0.0;
    double totalDrop = 0.0; ///< solo minus composed prediction
    /**
     * Carried from the breakdown: an attribution computed on a
     * degraded fallback path inherits its (low) confidence, so
     * consumers ranking resources can discount it.
     */
    double confidence = 1.0;
    bool degraded = false;

    /** "memory 62% (-412.3 Kpps), regex 38% (-251.0 Kpps)". */
    std::string toString() const;
};

/**
 * Attribute a prediction's throughput drop across resources.
 * Pure function of the breakdown — deterministic, allocation-light,
 * safe to call per prediction on the monitor's ingest path.
 */
ContentionAttribution
attributeContention(const PredictionBreakdown &breakdown);

} // namespace tomur::core

#endif // TOMUR_TOMUR_ATTRIBUTION_HH
