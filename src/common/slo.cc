#include "common/slo.hh"

#include <ostream>
#include <sstream>

#include "common/logging.hh"
#include "common/strutil.hh"
#include "common/telemetry.hh"
#include "common/trace.hh"

namespace tomur {

namespace {

const char *
eventName(SloEventKind kind)
{
    return kind == SloEventKind::Burn ? "SLO_BURN"
                                      : "SLO_RECOVERED";
}

bool
metricSafe(const std::string &name)
{
    if (name.empty())
        return false;
    for (char c : name) {
        bool ok = (c >= 'a' && c <= 'z') ||
                  (c >= '0' && c <= '9') || c == '_';
        if (!ok)
            return false;
    }
    return true;
}

} // namespace

std::string
SloEvent::toJson() const
{
    return strf("{\"event\":\"%s\",\"objective\":\"%s\","
                "\"sample\":%llu,\"fast_burn\":\"%s\","
                "\"slow_burn\":\"%s\","
                "\"budget_remaining\":\"%s\"}",
                eventName(kind), jsonEscape(objective).c_str(),
                (unsigned long long)sample,
                traceFormat(fastBurn).c_str(),
                traceFormat(slowBurn).c_str(),
                traceFormat(budgetRemaining).c_str());
}

SloTracker::SloTracker(std::vector<SloObjective> objectives)
{
    objs_.reserve(objectives.size());
    for (auto &obj : objectives) {
        if (!metricSafe(obj.name)) {
            panic(strf("SLO objective name '%s' is not metric-safe "
                       "([a-z0-9_] only)",
                       obj.name.c_str()));
        }
        if (!(obj.target > 0.0 && obj.target < 1.0)) {
            panic(strf("SLO objective '%s': target %g is outside "
                       "(0, 1)",
                       obj.name.c_str(), obj.target));
        }
        if (obj.fastWindow < 1 || obj.fastWindow > obj.slowWindow) {
            panic(strf("SLO objective '%s': windows must satisfy "
                       "1 <= fast (%zu) <= slow (%zu)",
                       obj.name.c_str(), obj.fastWindow,
                       obj.slowWindow));
        }
        ObjectiveState os;
        os.obj = std::move(obj);
        os.ring = BoundedRing<std::uint8_t>(os.obj.slowWindow);
        const std::string prefix = "tomur_slo_" + os.obj.name;
        os.requestsMetric =
            &metrics().counter(prefix + "_requests_total");
        os.badMetric = &metrics().counter(prefix + "_bad_total");
        os.fastBurnMetric = &metrics().gauge(prefix + "_fast_burn");
        os.slowBurnMetric = &metrics().gauge(prefix + "_slow_burn");
        os.budgetMetric =
            &metrics().gauge(prefix + "_budget_remaining");
        os.burningMetric = &metrics().gauge(prefix + "_burning");
        // A fresh objective has its whole budget.
        os.budgetMetric->set(1.0);
        objs_.push_back(std::move(os));
    }
    burnEventsMetric_ =
        &metrics().counter("tomur_slo_burn_events_total");
    recoveredEventsMetric_ =
        &metrics().counter("tomur_slo_recovered_events_total");
}

bool
SloTracker::isBad(const SloObjective &obj, const SloOutcome &outcome)
{
    if (outcome.status >= 500)
        return true;
    if (obj.kind == SloKind::Latency) {
        if (outcome.deadlineMiss)
            return true;
        if (obj.latencyThresholdMs > 0.0 &&
            outcome.latencyMs > obj.latencyThresholdMs)
            return true;
    }
    return false;
}

double
SloTracker::ObjectiveState::burnRate(std::uint64_t windowBad,
                                     std::size_t window) const
{
    std::size_t n = std::min(ring.size(), window);
    if (n == 0)
        return 0.0;
    double frac =
        static_cast<double>(windowBad) / static_cast<double>(n);
    return frac / (1.0 - obj.target);
}

std::vector<SloEvent>
SloTracker::ingest(const SloOutcome &outcome)
{
    std::vector<SloEvent> fired;
    for (auto &os : objs_) {
        if (!os.obj.pathFilter.empty() &&
            os.obj.pathFilter != outcome.path)
            continue;
        bool bad = isBad(os.obj, outcome);

        // Slide the verdict ring: a full ring's oldest verdict
        // leaves the slow window; the verdict fastWindow back leaves
        // the fast window. Both windows share one ring because
        // fast <= slow.
        std::size_t held = os.ring.size();
        if (held == os.obj.slowWindow)
            os.slowBad -= os.ring[0];
        if (held >= os.obj.fastWindow)
            os.fastBad -= os.ring[held - os.obj.fastWindow];
        os.ring.push(bad ? 1 : 0);
        ++os.total;
        os.bad += bad ? 1 : 0;
        os.fastBad += bad ? 1 : 0;
        os.slowBad += bad ? 1 : 0;

        double fast = os.burnRate(os.fastBad, os.obj.fastWindow);
        double slow = os.burnRate(os.slowBad, os.obj.slowWindow);
        double budget = 1.0 - slow;

        os.requestsMetric->inc();
        if (bad)
            os.badMetric->inc();
        os.fastBurnMetric->set(fast);
        os.slowBurnMetric->set(slow);
        os.budgetMetric->set(budget);

        // Multi-window alert with hysteresis. The fast window must
        // be full before the first alert can fire: a lone bad first
        // request would otherwise read as burn = 1/(1-target).
        if (!os.burning) {
            if (os.total >= os.obj.fastWindow &&
                fast >= os.obj.burnThreshold &&
                slow >= os.obj.burnThreshold) {
                os.burning = true;
                os.stableBelow = 0;
                ++os.burnEvents;
                burnEventsMetric_->inc();
                SloEvent ev;
                ev.kind = SloEventKind::Burn;
                ev.objective = os.obj.name;
                ev.sample = os.total;
                ev.fastBurn = fast;
                ev.slowBurn = slow;
                ev.budgetRemaining = budget;
                fired.push_back(ev);
            }
        } else {
            if (fast <
                os.obj.recoverFactor * os.obj.burnThreshold) {
                if (++os.stableBelow >= os.obj.recoverStable) {
                    os.burning = false;
                    os.stableBelow = 0;
                    ++os.recoveredEvents;
                    recoveredEventsMetric_->inc();
                    SloEvent ev;
                    ev.kind = SloEventKind::Recovered;
                    ev.objective = os.obj.name;
                    ev.sample = os.total;
                    ev.fastBurn = fast;
                    ev.slowBurn = slow;
                    ev.budgetRemaining = budget;
                    fired.push_back(ev);
                }
            } else {
                os.stableBelow = 0;
            }
        }
        os.burningMetric->set(os.burning ? 1.0 : 0.0);
    }
    for (const auto &ev : fired)
        events_.push(ev);
    return fired;
}

void
SloTracker::fillState(const ObjectiveState &os, SloState &out) const
{
    out.name = os.obj.name;
    out.kind = os.obj.kind;
    out.target = os.obj.target;
    out.total = os.total;
    out.bad = os.bad;
    out.fastBurn = os.burnRate(os.fastBad, os.obj.fastWindow);
    out.slowBurn = os.burnRate(os.slowBad, os.obj.slowWindow);
    out.budgetRemaining = 1.0 - out.slowBurn;
    out.burning = os.burning;
    out.burnEvents = os.burnEvents;
    out.recoveredEvents = os.recoveredEvents;
}

std::vector<SloState>
SloTracker::states() const
{
    std::vector<SloState> out(objs_.size());
    for (std::size_t i = 0; i < objs_.size(); ++i)
        fillState(objs_[i], out[i]);
    return out;
}

void
SloTracker::exportJsonl(std::ostream &out) const
{
    for (std::size_t i = 0; i < events_.size(); ++i)
        out << events_[i].toJson() << "\n";
    out << "{\"slo_summary\":{\"objectives\":[";
    bool first = true;
    for (const auto &os : objs_) {
        SloState st;
        fillState(os, st);
        if (!first)
            out << ",";
        first = false;
        out << strf(
            "{\"name\":\"%s\",\"kind\":\"%s\","
            "\"target\":\"%s\",\"total\":%llu,\"bad\":%llu,"
            "\"fast_burn\":\"%s\",\"slow_burn\":\"%s\","
            "\"budget_remaining\":\"%s\",\"burning\":%s,"
            "\"burn_events\":%llu,\"recovered_events\":%llu}",
            jsonEscape(st.name).c_str(),
            st.kind == SloKind::Availability ? "availability"
                                             : "latency",
            traceFormat(st.target).c_str(),
            (unsigned long long)st.total,
            (unsigned long long)st.bad,
            traceFormat(st.fastBurn).c_str(),
            traceFormat(st.slowBurn).c_str(),
            traceFormat(st.budgetRemaining).c_str(),
            st.burning ? "true" : "false",
            (unsigned long long)st.burnEvents,
            (unsigned long long)st.recoveredEvents);
    }
    out << strf("],\"events\":%zu,\"events_dropped\":%llu}}\n",
                events_.size(),
                (unsigned long long)events_.evicted());
}

std::string
SloTracker::exportString() const
{
    std::ostringstream ss;
    exportJsonl(ss);
    return ss.str();
}

} // namespace tomur
