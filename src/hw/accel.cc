#include "hw/accel.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace tomur::hw {

namespace {

/** Server utilisation if every queue were completion-capped at r. */
double
utilisationAt(const std::vector<AccelQueue> &queues, double r)
{
    double u = 0.0;
    for (const auto &q : queues) {
        double rate = q.closedLoop ? r : std::min(q.arrivalRate, r);
        u += rate * q.serviceTime;
    }
    return u;
}

} // namespace

std::vector<AccelQueueResult>
solveRoundRobin(const std::vector<AccelQueue> &queues)
{
    std::vector<AccelQueueResult> out(queues.size());
    if (queues.empty())
        return out;
    for (const auto &q : queues) {
        if (q.serviceTime <= 0.0)
            panic("solveRoundRobin: non-positive service time");
        if (!q.closedLoop && q.arrivalRate < 0.0)
            panic("solveRoundRobin: negative arrival rate");
    }

    bool any_closed = false;
    for (const auto &q : queues)
        any_closed |= q.closedLoop;

    // Underloaded, no closed-loop sources: everyone gets its offered
    // rate and the engine idles part of the time.
    double offered = 0.0;
    for (const auto &q : queues)
        if (!q.closedLoop)
            offered += q.arrivalRate * q.serviceTime;
    if (!any_closed && offered <= 1.0) {
        for (std::size_t i = 0; i < queues.size(); ++i) {
            out[i].throughput = queues[i].arrivalRate;
            out[i].backlogged = false;
        }
    } else {
        // Max-min fair completion rate r: round-robin over backlogged
        // queues serves each at the same request rate; open queues
        // below r keep their offered rate. r solves util(r) = 1.
        double hi = 0.0;
        for (const auto &q : queues)
            hi = std::max(hi, 1.0 / q.serviceTime);
        double lo = 0.0;
        for (int iter = 0; iter < 100; ++iter) {
            double mid = 0.5 * (lo + hi);
            // A step that leaves [lo, hi] as it is (mid is already
            // an end) repeats itself in every later round: stop.
            if (utilisationAt(queues, mid) < 1.0) {
                if (mid == lo)
                    break;
                lo = mid;
            } else {
                if (mid == hi)
                    break;
                hi = mid;
            }
        }
        double r = 0.5 * (lo + hi);
        for (std::size_t i = 0; i < queues.size(); ++i) {
            const auto &q = queues[i];
            if (q.closedLoop || q.arrivalRate >= r) {
                out[i].throughput = r;
                out[i].backlogged = true;
            } else {
                out[i].throughput = q.arrivalRate;
                out[i].backlogged = false;
            }
        }
    }

    // Sojourn times: a backlogged (depth-1 closed-loop) submitter sees
    // one full round per request; an open queue sees its service time
    // inflated by total server utilisation (processor-sharing-like),
    // which diverges as the engine saturates — so synchronous
    // (run-to-completion) submitters self-limit below capacity.
    double util = 0.0;
    for (std::size_t i = 0; i < queues.size(); ++i)
        util += out[i].throughput * queues[i].serviceTime;
    util = std::min(util, 0.95);
    for (std::size_t i = 0; i < queues.size(); ++i) {
        if (out[i].backlogged && out[i].throughput > 0.0) {
            out[i].sojournTime = 1.0 / out[i].throughput;
        } else {
            out[i].sojournTime = queues[i].serviceTime /
                                 (1.0 - util);
        }
    }
    return out;
}

} // namespace tomur::hw
