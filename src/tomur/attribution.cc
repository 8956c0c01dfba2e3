#include "tomur/attribution.hh"

#include <algorithm>
#include <cmath>

#include "common/strutil.hh"

namespace tomur::core {

const char *
resourceName(Resource r)
{
    if (r == Resource::Memory)
        return "memory";
    return hw::accelName(
        static_cast<hw::AccelKind>(static_cast<int>(r) - 1));
}

std::string
ContentionAttribution::toString() const
{
    std::string out;
    for (const auto &c : ranked) {
        if (!out.empty())
            out += ", ";
        out += strf("%s %.0f%% (-%.1f Kpps)",
                    resourceName(c.resource),
                    100.0 * c.share, c.drop / 1e3);
    }
    return out;
}

ContentionAttribution
attributeContention(const PredictionBreakdown &b)
{
    ContentionAttribution a;
    a.soloThroughput = b.soloThroughput;
    a.predicted = b.predicted;
    a.totalDrop = std::max(0.0, b.soloThroughput - b.predicted);
    a.confidence = b.confidence;
    a.degraded = b.degraded;

    // Per-resource drops against the solo baseline. The breakdown's
    // resource-only throughputs are already clamped to [0, solo];
    // the max() guards keep a hand-built breakdown from producing
    // negative contributions.
    a.ranked.push_back(
        {Resource::Memory,
         std::max(0.0, b.soloThroughput - b.memoryOnlyThroughput),
         0.0});
    for (int k = 0; k < hw::numAccelKinds; ++k) {
        if (!b.accelUsed[k])
            continue;
        a.ranked.push_back(
            {accelResource(static_cast<hw::AccelKind>(k)),
             std::max(0.0,
                      b.soloThroughput - b.accelOnlyThroughput[k]),
             0.0});
    }

    // Descending by drop; stable keeps the Resource order on ties,
    // so memory wins an all-zero tie exactly like the predictor's
    // historical strict-> argmax did.
    std::stable_sort(a.ranked.begin(), a.ranked.end(),
                     [](const ResourceContribution &x,
                        const ResourceContribution &y) {
                         return x.drop > y.drop;
                     });

    double sum = 0.0;
    for (const auto &c : a.ranked)
        sum += c.drop;
    if (sum > 0.0) {
        for (auto &c : a.ranked)
            c.share = c.drop / sum;
    }
    a.dominantResource = a.ranked.front().resource;
    return a;
}

} // namespace tomur::core
