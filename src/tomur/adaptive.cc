#include "tomur/adaptive.hh"

#include <cmath>
#include <map>

#include "common/logging.hh"

namespace tomur::core {

namespace {

/** ε0: relative solo-throughput change that keeps an attribute. */
constexpr double kEps0 = 0.05;
/** m: contended samples collected per split. */
constexpr int kSamplesPerSplit = 4;
/** Bisection depth cap per attribute. */
constexpr int kMaxDepth = 5;

/** Quota-counting wrapper around the callbacks with memoisation of
 *  solo evaluations (profile_one() in Algorithm 1 only counts new
 *  configurations). */
class Budget
{
  public:
    Budget(const AdaptiveCallbacks &cb, const AdaptiveOptions &opts)
        : cb_(cb), opts_(opts)
    {
    }

    bool exhausted() const { return used_ >= opts_.quota; }
    std::size_t used() const { return used_; }

    double
    solo(const traffic::TrafficProfile &p)
    {
        auto key = p.toVector();
        auto it = soloCache_.find(key);
        if (it != soloCache_.end())
            return it->second;
        ++used_;
        double t = cb_.solo(p);
        if (!std::isfinite(t)) {
            // A faulted measurement that slipped past the profiler's
            // screens must not poison the bisection arithmetic:
            // treat it as "no signal" (the range is simply skipped).
            warnEvent("adaptive", "non-finite-solo-measurement", {});
            t = 0.0;
        }
        soloCache_[key] = t;
        return t;
    }

    void
    collect(const traffic::TrafficProfile &p,
            std::vector<traffic::TrafficProfile> &log)
    {
        ++used_;
        cb_.collect(p);
        log.push_back(p);
    }

  private:
    const AdaptiveCallbacks &cb_;
    const AdaptiveOptions &opts_;
    std::size_t used_ = 0;
    std::map<std::vector<double>, double> soloCache_;
};

void
rangeProfile(Budget &budget, const AdaptiveOptions &opts,
             const traffic::TrafficProfile &base,
             traffic::Attribute attr, double lo0, double hi0,
             AdaptiveResult &result)
{
    // Breadth-first bisection: splitting level by level spreads the
    // quota across the whole range before refining any sub-range (a
    // depth-first order would exhaust the budget inside the first
    // half and leave the rest of the attribute range unsampled).
    struct Range
    {
        double lo, hi;
        int depth;
    };
    std::vector<Range> frontier = {{lo0, hi0, 0}};
    while (!frontier.empty() && !budget.exhausted()) {
        std::vector<Range> next;
        for (const auto &r : frontier) {
            if (budget.exhausted() || r.depth > kMaxDepth)
                break;
            double t_lo = budget.solo(base.withAttribute(attr, r.lo));
            double t_hi = budget.solo(base.withAttribute(attr, r.hi));
            double ref = std::max(std::fabs(t_lo), std::fabs(t_hi));
            if (ref <= 0.0)
                continue;
            // Only enforce collection where throughput changes
            // drastically (Algorithm 1 line 18).
            if (std::fabs(t_hi - t_lo) / ref < opts.eps1)
                continue;
            double mid = 0.5 * (r.lo + r.hi);
            auto p_mid = base.withAttribute(attr, mid);
            for (int i = 0;
                 i < kSamplesPerSplit && !budget.exhausted(); ++i) {
                budget.collect(p_mid, result.sampledProfiles);
            }
            next.push_back({r.lo, mid, r.depth + 1});
            next.push_back({mid, r.hi, r.depth + 1});
        }
        frontier = std::move(next);
    }
}

} // namespace

AdaptiveResult
adaptiveProfile(const AdaptiveCallbacks &callbacks,
                const traffic::TrafficProfile &defaults,
                const AdaptiveOptions &opts,
                std::vector<traffic::Attribute> candidate_attrs)
{
    if (!callbacks.solo || !callbacks.collect)
        fatal("adaptiveProfile: missing callbacks");
    AdaptiveResult result;
    Budget budget(callbacks, opts);

    // Phase 1: prune attribute dimensions (lines 7-11).
    for (auto attr : candidate_attrs) {
        if (budget.exhausted())
            break;
        auto range = traffic::defaultRange(attr);
        double t_min =
            budget.solo(defaults.withAttribute(attr, range.min));
        double t_max =
            budget.solo(defaults.withAttribute(attr, range.max));
        double ref = std::max(std::fabs(t_min), std::fabs(t_max));
        if (ref > 0.0 &&
            std::fabs(t_max - t_min) / ref >= kEps0) {
            result.keptAttributes.push_back(attr);
        }
    }

    // Anchor samples at the default profile so the model covers the
    // operating point even when every attribute is pruned.
    for (int i = 0; i < kSamplesPerSplit && !budget.exhausted(); ++i) {
        budget.collect(defaults, result.sampledProfiles);
    }

    // Phase 2: recursive range profiling per kept attribute. The
    // budget is spent round-robin across attributes by depth.
    for (auto attr : result.keptAttributes) {
        auto range = traffic::defaultRange(attr);
        // Sample the extremes as well: boundary behaviour anchors
        // the regressor outside the bisected interior.
        for (double v : {range.min, range.max}) {
            if (!budget.exhausted()) {
                budget.collect(defaults.withAttribute(attr, v),
                               result.sampledProfiles);
            }
        }
        rangeProfile(budget, opts, defaults, attr, range.min,
                     range.max, result);
    }

    result.samplesUsed = budget.used();
    return result;
}

} // namespace tomur::core
