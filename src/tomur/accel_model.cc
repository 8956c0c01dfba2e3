#include "tomur/accel_model.hh"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/logging.hh"
#include "common/stats.hh"
#include "hw/accel.hh"

namespace tomur::core {

Status
AccelQueueModel::calibrate(
    const std::vector<AccelCalibrationPoint> &points)
{
    if (points.size() < 2) {
        return Status::invalidArgument(
            "AccelQueueModel: need at least two calibration points");
    }

    // Group observations by traffic point; pairs within a group
    // isolate n (Eq. 2 with the bench's known service time):
    //   1/T = t_i + t_b / n  =>  n = (t_b1 - t_b2)/(1/T1 - 1/T2).
    std::map<std::pair<double, double>,
             std::vector<const AccelCalibrationPoint *>>
        by_traffic;
    for (const auto &p : points) {
        if (!std::isfinite(p.measuredThroughput) ||
            !std::isfinite(p.benchServiceTime) ||
            p.measuredThroughput <= 0.0 ||
            p.benchServiceTime <= 0.0) {
            return Status::invalidArgument(
                "AccelQueueModel: non-positive or non-finite "
                "calibration point");
        }
        by_traffic[{p.mtbr, p.payloadBytes}].push_back(&p);
    }

    std::vector<double> n_estimates;
    for (const auto &[traffic, group] : by_traffic) {
        for (std::size_t a = 0; a < group.size(); ++a) {
            for (std::size_t b = a + 1; b < group.size(); ++b) {
                double dtb = group[a]->benchServiceTime -
                             group[b]->benchServiceTime;
                double dinv = 1.0 / group[a]->measuredThroughput -
                              1.0 / group[b]->measuredThroughput;
                if (std::fabs(dtb) < 1e-12 ||
                    std::fabs(dinv) < 1e-15) {
                    continue;
                }
                double n = dtb / dinv;
                if (n > 0.0 && n < 64.0)
                    n_estimates.push_back(n);
            }
        }
    }
    if (n_estimates.empty()) {
        return Status::invalidArgument(
            "AccelQueueModel: calibration points do not constrain "
            "the queue count (vary the bench service time)");
    }
    queues_ = std::max(
        1, static_cast<int>(std::lround(median(n_estimates))));

    // Per-point service time, then the traffic law
    // t = t0 + byteSlope * p + matchSlope * (m p / 1e6). Only fit
    // the features that actually vary across the calibration set:
    // with a constant MTBR the two features are collinear (matches
    // = mtbr/1e6 * payload) and a joint fit is ill-posed.
    std::vector<double> times, payloads, matches;
    for (const auto &p : points) {
        double t = 1.0 / p.measuredThroughput -
                   p.benchServiceTime / queues_;
        if (t <= 0.0)
            continue;
        times.push_back(t);
        payloads.push_back(p.payloadBytes);
        matches.push_back(p.mtbr * p.payloadBytes / 1e6);
    }
    if (times.empty()) {
        return Status::invalidArgument(
            "AccelQueueModel: no usable service-time estimates");
    }

    auto varies = [](const std::vector<double> &xs) {
        return maxOf(xs) - minOf(xs) >
               1e-9 * std::max(1.0, std::fabs(maxOf(xs)));
    };
    bool vary_payload = varies(payloads);
    bool vary_matches = varies(matches);
    // mtbr varies independently only when matches/payload ratio
    // changes across points.
    std::vector<double> ratio(times.size());
    for (std::size_t i = 0; i < times.size(); ++i)
        ratio[i] = payloads[i] > 0.0 ? matches[i] / payloads[i] : 0.0;
    bool vary_mtbr = varies(ratio);

    t0_ = mean(times);
    byteSlope_ = 0.0;
    matchSlope_ = 0.0;
    if (vary_payload && vary_mtbr && times.size() >= 3) {
        ml::Dataset fit({"payload", "matches"});
        for (std::size_t i = 0; i < times.size(); ++i)
            fit.add({payloads[i], matches[i]}, times[i]);
        ml::LinearRegression lr;
        lr.fit(fit, 1e-24);
        t0_ = lr.intercept();
        byteSlope_ = std::max(0.0, lr.coefficients()[0]);
        matchSlope_ = std::max(0.0, lr.coefficients()[1]);
    } else if (vary_payload && times.size() >= 2) {
        ml::LinearRegression lr;
        lr.fit1d(payloads, times, 1e-24);
        t0_ = lr.intercept();
        byteSlope_ = std::max(0.0, lr.coefficients()[0]);
    } else if (vary_matches && times.size() >= 2) {
        ml::LinearRegression lr;
        lr.fit1d(matches, times, 1e-24);
        t0_ = lr.intercept();
        matchSlope_ = std::max(0.0, lr.coefficients()[0]);
    }
    if (t0_ < 0.0)
        t0_ = 0.0;
    if (t0_ <= 0.0 && byteSlope_ <= 0.0 && matchSlope_ <= 0.0)
        t0_ = mean(times);
    calibrated_ = true;
    return Status::ok();
}

double
AccelQueueModel::serviceTime(double mtbr, double payload_bytes) const
{
    if (!calibrated_)
        panic("AccelQueueModel::serviceTime before calibrate");
    double t = t0_ + byteSlope_ * payload_bytes +
               matchSlope_ * (mtbr * payload_bytes / 1e6);
    return std::max(t, 1e-9);
}

double
AccelQueueModel::predictThroughput(
    double mtbr, double payload_bytes,
    const std::vector<ContentionLevel> &competitors,
    hw::AccelKind kind) const
{
    if (!calibrated_)
        panic("AccelQueueModel::predictThroughput before calibrate");
    std::vector<hw::AccelQueue> queues;
    for (int q = 0; q < queues_; ++q) {
        queues.push_back(hw::AccelQueue{
            serviceTime(mtbr, payload_bytes), 0.0, true});
    }
    for (const auto &level : competitors) {
        const AccelContention &c = level.accelContention(kind);
        if (!c.used)
            continue;
        for (int q = 0; q < c.queues; ++q) {
            queues.push_back(hw::AccelQueue{
                c.serviceTime, c.offeredRate / c.queues,
                c.closedLoop});
        }
    }
    auto res = hw::solveRoundRobin(queues);
    double rate = 0.0;
    for (int q = 0; q < queues_; ++q)
        rate += res[q].throughput;
    return rate;
}

} // namespace tomur::core
