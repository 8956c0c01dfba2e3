#include "tomur/composition.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace tomur::core {

namespace fw = framework;

double
compose(CompositionKind kind, fw::ExecutionPattern pattern,
        double t_solo, std::span<const double> drops)
{
    if (t_solo <= 0.0)
        fatal("compose: non-positive solo throughput");
    double result;
    switch (kind) {
      case CompositionKind::Sum: {
        double total = 0.0;
        for (double d : drops)
            total += std::max(0.0, d);
        result = t_solo - total;
        break;
      }
      case CompositionKind::Min: {
        // "Min composition" keeps the minimal predicted throughput,
        // i.e. subtracts the largest single-resource drop.
        double worst = 0.0;
        for (double d : drops)
            worst = std::max(worst, d);
        result = t_solo - worst;
        break;
      }
      case CompositionKind::ExecutionPattern: {
        if (pattern == fw::ExecutionPattern::Pipeline) {
            // Eq. 3: the slowest stage rules.
            double worst = 0.0;
            for (double d : drops)
                worst = std::max(worst, d);
            result = t_solo - worst;
        } else {
            // Eq. 4: sojourn times add up.
            double inv = 0.0;
            int r = 0;
            for (double d : drops) {
                double t_k = t_solo - std::max(0.0, d);
                t_k = std::max(t_k, 1e-6 * t_solo);
                inv += 1.0 / t_k;
                ++r;
            }
            if (r == 0)
                return t_solo;
            double denom = inv - (r - 1) / t_solo;
            result = denom > 0.0 ? 1.0 / denom : 0.0;
        }
        break;
      }
      default:
        panic("compose: bad kind");
    }
    return std::clamp(result, 0.0, t_solo);
}

fw::ExecutionPattern
detectPattern(const std::vector<PatternObservation> &observations)
{
    if (observations.empty())
        fatal("detectPattern: no observations");
    double err_pl = 0.0, err_rtc = 0.0;
    for (const auto &o : observations) {
        if (o.measuredThroughput <= 0.0 || o.soloThroughput <= 0.0)
            fatal("detectPattern: non-positive throughput");
        double p = compose(CompositionKind::ExecutionPattern,
                           fw::ExecutionPattern::Pipeline,
                           o.soloThroughput, o.drops);
        double r = compose(CompositionKind::ExecutionPattern,
                           fw::ExecutionPattern::RunToCompletion,
                           o.soloThroughput, o.drops);
        err_pl += std::fabs(p - o.measuredThroughput) /
                  o.measuredThroughput;
        err_rtc += std::fabs(r - o.measuredThroughput) /
                   o.measuredThroughput;
    }
    return err_pl <= err_rtc ? fw::ExecutionPattern::Pipeline
                             : fw::ExecutionPattern::RunToCompletion;
}

} // namespace tomur::core
