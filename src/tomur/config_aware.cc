#include "tomur/config_aware.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace tomur::core {

namespace fw = framework;

namespace {

/** Relative solo-throughput change below which the NF is declared
 *  configuration-insensitive (one model suffices). */
constexpr double kEps0 = 0.05;
/** Relative change below which a config sub-range stops being
 *  refined. */
constexpr double kEps1 = 0.04;

} // namespace

ConfigAwareModel
ConfigAwareModel::train(TomurTrainer &trainer,
                        const NfFactory &factory,
                        const ConfigAttribute &attr,
                        const traffic::TrafficProfile &defaults,
                        const ConfigAwareOptions &opts)
{
    if (!factory)
        fatal("ConfigAwareModel: missing factory");
    if (attr.min >= attr.max)
        fatal("ConfigAwareModel: bad attribute range");

    ConfigAwareModel model;
    model.attr_ = attr;

    auto &bed = trainer.library().testbed();
    std::map<double, double> solo_cache;
    auto solo_at = [&](double v) {
        auto it = solo_cache.find(v);
        if (it != solo_cache.end())
            return it->second;
        auto nf = factory(v);
        double t =
            bed.runSolo(trainer.workloadOf(*nf, defaults))
                .truthThroughput;
        solo_cache[v] = t;
        return t;
    };

    // Pruning (Algorithm 1, applied to the configuration axis): if
    // the extremes behave alike, one model covers the whole range.
    double t_min = solo_at(attr.min);
    double t_max = solo_at(attr.max);
    double ref = std::max(t_min, t_max);
    std::vector<double> picked = {attr.min};
    if (ref > 0.0 &&
        std::fabs(t_max - t_min) / ref >= kEps0) {
        picked.push_back(attr.max);
        // Breadth-first bisection on the configuration axis.
        struct Range
        {
            double lo, hi;
        };
        std::vector<Range> frontier = {{attr.min, attr.max}};
        while (!frontier.empty() &&
               static_cast<int>(picked.size()) <
                   opts.maxConfigPoints) {
            std::vector<Range> next;
            for (const auto &r : frontier) {
                if (static_cast<int>(picked.size()) >=
                    opts.maxConfigPoints) {
                    break;
                }
                double lo = solo_at(r.lo);
                double hi = solo_at(r.hi);
                double rr = std::max(lo, hi);
                if (rr <= 0.0 ||
                    std::fabs(hi - lo) / rr < kEps1) {
                    continue;
                }
                double mid = 0.5 * (r.lo + r.hi);
                picked.push_back(mid);
                next.push_back({r.lo, mid});
                next.push_back({mid, r.hi});
            }
            frontier = std::move(next);
        }
    }

    std::sort(picked.begin(), picked.end());
    for (double v : picked) {
        auto nf = factory(v);
        model.anchors_.emplace(
            v, trainer.train(*nf, defaults, opts.train));
    }
    return model;
}

std::vector<double>
ConfigAwareModel::anchorValues() const
{
    std::vector<double> out;
    for (const auto &[v, m] : anchors_)
        out.push_back(v);
    return out;
}

double
ConfigAwareModel::predict(
    double config_value,
    const std::vector<ContentionLevel> &competitors,
    const traffic::TrafficProfile &profile, double solo_hint) const
{
    if (anchors_.empty())
        panic("ConfigAwareModel::predict before train");
    // Locate the bracketing anchors.
    auto upper = anchors_.lower_bound(config_value);
    if (upper == anchors_.begin()) {
        return upper->second.predict(competitors, profile,
                                     solo_hint);
    }
    if (upper == anchors_.end()) {
        return std::prev(upper)->second.predict(competitors, profile,
                                                solo_hint);
    }
    auto lower = std::prev(upper);
    double span = upper->first - lower->first;
    double w = span > 0.0 ? (config_value - lower->first) / span
                          : 0.0;
    // The solo hint applies to the queried configuration; anchors
    // predict without it and the interpolation is rescaled when a
    // hint is available.
    double p_lo = lower->second.predict(competitors, profile);
    double p_hi = upper->second.predict(competitors, profile);
    double blended = (1.0 - w) * p_lo + w * p_hi;
    if (solo_hint > 0.0) {
        double s_lo = lower->second.soloThroughput(profile);
        double s_hi = upper->second.soloThroughput(profile);
        double s_blend = (1.0 - w) * s_lo + w * s_hi;
        if (s_blend > 0.0)
            blended *= solo_hint / s_blend;
    }
    return blended;
}

} // namespace tomur::core
