/**
 * @file
 * Service-level-objective tracking as a pure fold over request
 * outcomes.
 *
 * An SloObjective declares what "good" means for a slice of traffic
 * (availability: no 5xx; latency: answered under a threshold) and
 * what fraction of requests must be good. The tracker keeps, per
 * objective, a bounded ring of good/bad verdicts and derives two
 * burn rates from it:
 *
 *     burn(window) = bad_fraction(window) / (1 - target)
 *
 * i.e. the multiple of the sustainable error rate the service is
 * currently consuming its error budget at. Burn 1.0 means exactly
 * on budget; burn 10 means the budget for the window's horizon is
 * gone in a tenth of it. Alerting follows the multi-window rule:
 * SLO_BURN fires only when BOTH the fast and the slow window burn
 * above the threshold (the fast window gives reaction time, the
 * slow window filters blips), and SLO_RECOVERED fires only after
 * the fast burn has stayed below `recoverFactor * burnThreshold`
 * for `recoverStable` consecutive outcomes — hysteresis, exactly
 * like PredictionMonitor's shift/recover pairing.
 *
 * Determinism: ingest() is a pure fold — no clocks, no RNG — so a
 * deterministic outcome stream yields byte-identical exports at any
 * TOMUR_THREADS (the serve-observatory golden diffs this). The
 * tracker also mirrors its state into `tomur_slo_*` metrics; those
 * are for live scraping, not for goldens. Not thread-safe: one
 * owner, like SamplingProfiler.
 */

#ifndef TOMUR_COMMON_SLO_HH
#define TOMUR_COMMON_SLO_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/ring.hh"

namespace tomur {

class Counter;
class Gauge;

/** What counts as a bad request for an objective. */
enum class SloKind
{
    /** Bad = 5xx (shed, internal error, deadline miss). */
    Availability,
    /** Bad = 5xx, a deadline miss, or latency above threshold. */
    Latency,
};

/** One declarative objective. */
struct SloObjective
{
    /** Metric-safe slug ([a-z0-9_]); becomes part of the
     *  tomur_slo_<name>_* metric family. */
    std::string name;
    SloKind kind = SloKind::Availability;
    /** Only outcomes with exactly this path count ("" = all). */
    std::string pathFilter;
    /** Latency objectives: a slower answer is bad (ms). */
    double latencyThresholdMs = 0.0;
    /** Required good fraction, in (0, 1) — e.g. 0.999. */
    double target = 0.999;
    /** Window sizes in outcomes (fast <= slow; slow bounds the
     *  ring). Requests, not wall time: the fold stays clock-free. */
    std::size_t fastWindow = 64;
    std::size_t slowWindow = 512;
    /** Burn rate at which both windows must sit to open SLO_BURN. */
    double burnThreshold = 2.0;
    /** Recovery requires fast burn < recoverFactor*burnThreshold... */
    double recoverFactor = 0.5;
    /** ...for this many consecutive outcomes. */
    std::size_t recoverStable = 16;
};

/** How the serve core settled one request: the access log's
 *  `verdict`. The server books outcomes by this enum; the report
 *  renderer tallies access logs by its wire names below. */
enum class Verdict
{
    Ok,        ///< the service answered
    Shed,      ///< 503 at the queue cap or while draining
    Throttled, ///< 429 from the client's token bucket
    Deadline,  ///< 504: the request's deadline tripped
    Error,     ///< 500: the handler threw
    Parse,     ///< 4xx: the byte stream did not parse
    Dropped,   ///< admitted, but the connection went first
};

constexpr std::size_t kVerdictCount = 7;

/** Verdict wire names, in Verdict order: their only spelling. */
inline constexpr const char *kVerdictNames[kVerdictCount] = {
    "ok", "shed", "throttled", "deadline",
    "error", "parse", "dropped",
};

/** One request outcome fed to the fold. */
struct SloOutcome
{
    std::string path;
    int status = 200;
    double latencyMs = 0.0;
    bool deadlineMiss = false;
};

enum class SloEventKind
{
    Burn,
    Recovered,
};

/** A burn-rate transition (JSONL-exportable). */
struct SloEvent
{
    SloEventKind kind = SloEventKind::Burn;
    std::string objective;
    /** Matching outcomes seen by this objective when it fired. */
    std::uint64_t sample = 0;
    double fastBurn = 0.0;
    double slowBurn = 0.0;
    double budgetRemaining = 0.0;

    std::string toJson() const;
};

/** Point-in-time state of one objective. */
struct SloState
{
    std::string name;
    SloKind kind = SloKind::Availability;
    double target = 0.999;
    std::uint64_t total = 0; ///< matching outcomes ingested
    std::uint64_t bad = 0;   ///< of which bad
    double fastBurn = 0.0;
    double slowBurn = 0.0;
    /** 1 - slowBurn: fraction of the slow window's error budget
     *  left; negative = in deficit. */
    double budgetRemaining = 1.0;
    bool burning = false;
    std::uint64_t burnEvents = 0;
    std::uint64_t recoveredEvents = 0;
};

class SloTracker
{
  public:
    /** Objectives are validated (name non-empty, target in (0,1),
     *  1 <= fastWindow <= slowWindow) — a bad objective panics,
     *  like a histogram re-registered with a different layout. */
    explicit SloTracker(std::vector<SloObjective> objectives);

    /** Fold one outcome into every matching objective; returns the
     *  events (possibly none) this outcome triggered. The newest
     *  kMaxEvents events are also retained for export. */
    std::vector<SloEvent> ingest(const SloOutcome &outcome);

    std::size_t objectiveCount() const { return objs_.size(); }
    /** Snapshot of every objective, in declaration order. */
    std::vector<SloState> states() const;

    /** Snapshot of the retained events, oldest first. */
    std::vector<SloEvent> events() const { return events_.snapshot(); }
    /** Oldest events evicted past kMaxEvents. */
    std::uint64_t eventsDropped() const { return events_.evicted(); }

    /** Retained-event cap. */
    static constexpr std::size_t kMaxEvents = 1024;

    /**
     * JSONL: one line per retained event, then a summary trailer
     * ({"slo_summary":...}) with per-objective state — the format
     * common/report digests. Pure function of the outcome stream.
     */
    void exportJsonl(std::ostream &out) const;
    std::string exportString() const;

  private:
    struct ObjectiveState
    {
        SloObjective obj;
        /** The newest slowWindow verdicts (1 = bad). */
        BoundedRing<std::uint8_t> ring{1};
        std::uint64_t total = 0;
        std::uint64_t bad = 0;
        std::uint64_t fastBad = 0;
        std::uint64_t slowBad = 0;
        bool burning = false;
        std::size_t stableBelow = 0;
        std::uint64_t burnEvents = 0;
        std::uint64_t recoveredEvents = 0;

        Counter *requestsMetric = nullptr;
        Counter *badMetric = nullptr;
        Gauge *fastBurnMetric = nullptr;
        Gauge *slowBurnMetric = nullptr;
        Gauge *budgetMetric = nullptr;
        Gauge *burningMetric = nullptr;

        /** Burn over the newest `window` verdicts, `windowBad` of
         *  them bad. */
        double burnRate(std::uint64_t windowBad,
                        std::size_t window) const;
    };

    static bool isBad(const SloObjective &obj,
                      const SloOutcome &outcome);
    void fillState(const ObjectiveState &os, SloState &out) const;

    std::vector<ObjectiveState> objs_;
    BoundedRing<SloEvent> events_{kMaxEvents};
    Counter *burnEventsMetric_ = nullptr;
    Counter *recoveredEventsMetric_ = nullptr;
};

} // namespace tomur

#endif // TOMUR_COMMON_SLO_HH
