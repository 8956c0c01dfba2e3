/**
 * @file
 * Observability report renderer: folds the artifact streams a run
 * can produce — a Prometheus-style metrics dump (`--metrics-out`),
 * a trace JSONL export (`--trace-out`), a monitor event stream
 * (`tomur monitor --events-out`), an SLO stream (/debug/slo), and a
 * serving access log (/debug/access or `--access-log`) — into one
 * self-contained text or HTML dashboard. Everything is parsed from
 * the serialized artifacts, not from live registries, so the
 * renderer works on files collected from another process, another
 * machine, or an earlier run.
 */

#ifndef TOMUR_COMMON_REPORT_HH
#define TOMUR_COMMON_REPORT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/ring.hh"
#include "common/slo.hh"
#include "common/status.hh"

namespace tomur {

/** Most recent raw event lines a digest keeps. */
inline constexpr std::size_t kDigestLastLines = 8;

/** The artifact bodies to render (empty string = absent). */
struct ReportArtifacts
{
    std::string metricsText;  ///< Prometheus-style dump body
    std::string traceJsonl;   ///< trace export (one JSON per line)
    std::string monitorJsonl; ///< monitor events + summary trailer
    std::string sloJsonl;     ///< SLO events + slo_summary trailer
    std::string accessJsonl;  ///< serving access log (JSONL)
    std::string chaosJsonl;   ///< chaos campaign ledger + trailer
};

/** Rendering options. */
struct ReportOptions
{
    bool html = false; ///< HTML dashboard instead of plain text
    std::string title = "Tomur observability report";
};

/** One parsed metric sample. */
struct MetricSample
{
    std::string name; ///< full series name (with any {labels})
    double value = 0.0;
};

/** Aggregated per-span-name trace stats. */
struct TraceNameStats
{
    std::string name;
    std::size_t count = 0;        ///< spans + points with this name
    std::uint64_t totalDurNs = 0; ///< summed span durations
};

/** Parsed monitor (+ optional supervisor) stream. */
struct MonitorDigest
{
    std::size_t eventCounts[5] = {}; ///< by MonitorEventKind order
    BoundedRing<std::string> lastEvents{kDigestLastLines}; ///< raw
    std::string summaryLine;             ///< raw summary trailer

    /** Time-to-recovery rollup from the summary trailer (absent in
     *  streams written before the recovery metric existed). */
    bool hasRecovery = false;
    double recoveryCount = 0.0;
    double recoveryMeanSamples = 0.0;
    double recoveryMaxSamples = 0.0;
    bool recoveryOpen = false;

    /** Autopilot runs append supervisor events to the same stream. */
    bool hasSupervisor = false;
    std::size_t supervisorEventCounts[9] = {}; ///< SupervisorEventKind
    double deadlineMisses = 0.0; ///< from the supervisor summary
    std::string supervisorSummaryLine;
};

/** One objective row from the slo_summary trailer. */
struct SloObjectiveRow
{
    std::string name;
    std::string kind; ///< "availability" | "latency"
    double target = 0.0;
    double total = 0.0;
    double bad = 0.0;
    double fastBurn = 0.0;
    double slowBurn = 0.0;
    double budgetRemaining = 0.0;
    bool burning = false;
    double burnEvents = 0.0;
    double recoveredEvents = 0.0;
};

/** Parsed SLO stream (SLO_BURN/SLO_RECOVERED events + trailer). */
struct SloDigest
{
    std::size_t burnEvents = 0;      ///< event lines seen
    std::size_t recoveredEvents = 0; ///< event lines seen
    BoundedRing<std::string> lastEvents{kDigestLastLines}; ///< raw
    bool hasSummary = false;
    std::vector<SloObjectiveRow> objectives;
    double eventsDropped = 0.0;
};

/** Parsed access-log stream, rolled up by outcome. */
struct AccessDigest
{
    std::size_t records = 0;
    /** [0]=no answer (status 0), [1..5]=1xx..5xx responses. */
    std::size_t statusClass[6] = {};
    std::size_t verdictCounts[kVerdictCount] = {}; ///< by Verdict
    std::size_t deadlineMisses = 0;
    double totalHandleMs = 0.0; ///< summed over answered requests
};

/** Per-invariant pass/fail tally from a chaos campaign ledger. */
struct ChaosInvariantRow
{
    std::string name; ///< wire name ("no_hang", ...)
    std::size_t passes = 0;
    std::size_t failures = 0;
};

/** Parsed chaos campaign ledger (plan lines + chaos_summary). */
struct ChaosDigest
{
    std::size_t plans = 0;      ///< chaos_plan lines seen
    std::size_t violations = 0; ///< summed per-plan violations
    std::size_t violatingPlans = 0;
    double crashes = 0.0;
    double resumes = 0.0;
    double faultsInjected = 0.0;
    double determinismReruns = 0.0;
    double shrinkIterations = 0.0;
    bool hasSummary = false;
    /** Invariant rows in first-seen verdict order. */
    std::vector<ChaosInvariantRow> invariants;
    BoundedRing<std::string> violatingLines{kDigestLastLines}; ///< raw
};

/* The parsers below read each line once. A line they cannot read (a
 * metrics value that is not one whole number, a JSONL line that is
 * not a JSON object) is left out and, when `skipped` is given, added
 * to *skipped; blank lines are neither read nor counted. */

/** Parse a metrics dump body (skips comments and bucket series). */
std::vector<MetricSample> parseMetricsText(const std::string &body,
                                           std::size_t *skipped = nullptr);

/** Aggregate a trace JSONL export by record name. */
std::vector<TraceNameStats> parseTraceJsonl(const std::string &body,
                                            std::size_t *skipped = nullptr);

/** Digest a monitor JSONL stream (events + summary trailer). */
MonitorDigest parseMonitorJsonl(const std::string &body,
                                std::size_t *skipped = nullptr);

/** Digest an SLO stream (`tomur serve` /debug/slo body). */
SloDigest parseSloJsonl(const std::string &body,
                        std::size_t *skipped = nullptr);

/** Digest an access-log stream (/debug/access or --access-log). */
AccessDigest parseAccessJsonl(const std::string &body,
                              std::size_t *skipped = nullptr);

/** Digest a chaos campaign ledger (`tomur chaos --events-out`). */
ChaosDigest parseChaosJsonl(const std::string &body,
                            std::size_t *skipped = nullptr);

/**
 * Render the dashboard. Returns an error only when every artifact is
 * absent (nothing to render); individual malformed lines are skipped,
 * not fatal — a report over partial artifacts beats no report.
 */
Result<std::string> renderReport(const ReportArtifacts &artifacts,
                                 const ReportOptions &opts = {});

} // namespace tomur

#endif // TOMUR_COMMON_REPORT_HH
