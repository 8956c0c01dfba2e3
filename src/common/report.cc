#include "common/report.hh"

#include <algorithm>
#include <map>
#include <sstream>

#include "common/json.hh"
#include "common/serial.hh"
#include "common/strutil.hh"
#include "common/table.hh"

namespace tomur {

namespace {

/** Monitor wire names, in MonitorEventKind order. Kept as literals:
 *  common/ sits below tomur/ in the layering, so the renderer parses
 *  the serialized stream rather than including the monitor header. */
const char *const kEventNames[5] = {
    "DRIFT_DETECTED",
    "ACCURACY_DEGRADED",
    "TRAFFIC_SHIFT",
    "RECALIBRATION_RECOMMENDED",
    "ACCURACY_RECOVERED",
};

/** Supervisor wire names, in SupervisorEventKind order (same
 *  layering note as above). */
const char *const kSupervisorEventNames[9] = {
    "RECALIBRATION_STARTED",
    "RECALIBRATION_SUCCEEDED",
    "RECALIBRATION_FAILED",
    "BREAKER_OPENED",
    "BREAKER_HALF_OPEN",
    "BREAKER_CLOSED",
    "DEADLINE_MISSED",
    "RETRY_BUDGET_EXHAUSTED",
    "CHECKPOINT_WRITTEN",
};

/** Each line of `body` that parses as a JSON object, with its raw
 *  text; other lines are skipped — a report over partial artifacts
 *  beats no report — and the non-blank ones added to *skipped. */
template <class Fn>
void
forEachObjectLine(const std::string &body, std::size_t *skipped, Fn &&fn)
{
    std::istringstream in(body);
    std::string line;
    while (std::getline(in, line)) {
        auto doc = parseJson(line);
        if (doc && doc.value().isObject())
            fn(doc.value(), line);
        else if (skipped != nullptr &&
                 line.find_first_not_of(" \t\r") != std::string::npos)
            ++*skipped;
    }
}

/** String member `key`, or "" when absent or not a string. */
const std::string &
str(const JsonValue &obj, std::string_view key)
{
    static const std::string empty;
    const JsonValue *v = obj.find(key);
    return v && v->isString() ? v->asString() : empty;
}

/** Numeric member `key`, 0 when absent. The writers quote formatted
 *  doubles (`"mean":"4"`), so a numeric string counts as well. */
double
num(const JsonValue &obj, std::string_view key)
{
    const JsonValue *v = obj.find(key);
    if (v == nullptr)
        return 0.0;
    double x = 0.0;
    if (v->isString())
        parseWhole(v->asString(), &x);
    else
        x = v->asNumber();
    return x;
}

/** Member `key` is `true` or a non-zero number. */
bool
flag(const JsonValue &obj, std::string_view key)
{
    const JsonValue *v = obj.find(key);
    return v && (v->asBool() || v->asNumber() != 0.0);
}

/** Count `value` against the first of `names` it equals. */
template <std::size_t N>
void
tally(const char *const (&names)[N], std::size_t (&counts)[N],
      const std::string &value)
{
    for (std::size_t k = 0; k < N; ++k) {
        if (value == names[k]) {
            ++counts[k];
            return;
        }
    }
}

std::string
htmlEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '&':
            out += "&amp;";
            break;
          case '<':
            out += "&lt;";
            break;
          case '>':
            out += "&gt;";
            break;
          case '"':
            out += "&quot;";
            break;
          default:
            out.push_back(c);
        }
    }
    return out;
}

} // namespace

std::vector<MetricSample>
parseMetricsText(const std::string &body, std::size_t *skipped)
{
    std::vector<MetricSample> out;
    std::istringstream in(body);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        // Histogram bucket series would swamp the table; the _sum
        // and _count series carry the aggregate.
        if (line.find("_bucket{") != std::string::npos)
            continue;
        auto space = line.rfind(' ');
        MetricSample s;
        if (space == std::string::npos || space == 0 ||
            !parseWhole(std::string_view(line).substr(space + 1),
                        &s.value)) {
            if (skipped != nullptr)
                ++*skipped;
            continue;
        }
        s.name = line.substr(0, space);
        out.push_back(std::move(s));
    }
    return out;
}

std::vector<TraceNameStats>
parseTraceJsonl(const std::string &body, std::size_t *skipped)
{
    std::map<std::string, TraceNameStats> by_name;
    forEachObjectLine(body, skipped, [&](const JsonValue &doc,
                                         const std::string &) {
        const std::string &name = str(doc, "name");
        if (name.empty())
            return;
        auto &st = by_name[name];
        st.name = name;
        ++st.count;
        st.totalDurNs +=
            static_cast<std::uint64_t>(num(doc, "dur_ns"));
    });
    std::vector<TraceNameStats> out;
    out.reserve(by_name.size());
    for (auto &kv : by_name)
        out.push_back(std::move(kv.second));
    std::sort(out.begin(), out.end(),
              [](const TraceNameStats &a, const TraceNameStats &b) {
                  if (a.totalDurNs != b.totalDurNs)
                      return a.totalDurNs > b.totalDurNs;
                  return a.name < b.name;
              });
    return out;
}

MonitorDigest
parseMonitorJsonl(const std::string &body, std::size_t *skipped)
{
    MonitorDigest d;
    forEachObjectLine(body, skipped, [&](const JsonValue &doc,
                                         const std::string &line) {
        if (const JsonValue *sum = doc.find("summary")) {
            d.summaryLine = line;
            const JsonValue *rec = sum->find("recovery");
            if (rec && rec->isObject()) {
                d.hasRecovery = true;
                d.recoveryCount = num(*rec, "count");
                d.recoveryMeanSamples = num(*rec, "mean");
                d.recoveryMaxSamples = num(*rec, "max");
                d.recoveryOpen = flag(*rec, "open");
            }
            return;
        }
        if (const JsonValue *sum = doc.find("supervisor_summary")) {
            d.hasSupervisor = true;
            d.supervisorSummaryLine = line;
            d.deadlineMisses = num(*sum, "deadline_misses");
            return;
        }
        if (const std::string &sup = str(doc, "supervisor_event");
            !sup.empty()) {
            d.hasSupervisor = true;
            tally(kSupervisorEventNames, d.supervisorEventCounts, sup);
            d.lastEvents.push(line);
            return;
        }
        const std::string &kind = str(doc, "event");
        if (kind.empty())
            return;
        tally(kEventNames, d.eventCounts, kind);
        d.lastEvents.push(line);
    });
    return d;
}

SloDigest
parseSloJsonl(const std::string &body, std::size_t *skipped)
{
    SloDigest d;
    forEachObjectLine(body, skipped, [&](const JsonValue &doc,
                                         const std::string &line) {
        if (const JsonValue *sum = doc.find("slo_summary")) {
            d.hasSummary = true;
            d.eventsDropped = num(*sum, "events_dropped");
            const JsonValue *objectives = sum->find("objectives");
            if (objectives == nullptr)
                return;
            for (const auto &o : objectives->items()) {
                SloObjectiveRow row;
                row.name = str(o, "name");
                row.kind = str(o, "kind");
                row.target = num(o, "target");
                row.total = num(o, "total");
                row.bad = num(o, "bad");
                row.fastBurn = num(o, "fast_burn");
                row.slowBurn = num(o, "slow_burn");
                row.budgetRemaining = num(o, "budget_remaining");
                row.burning = flag(o, "burning");
                row.burnEvents = num(o, "burn_events");
                row.recoveredEvents = num(o, "recovered_events");
                if (!row.name.empty())
                    d.objectives.push_back(std::move(row));
            }
            return;
        }
        const std::string &kind = str(doc, "event");
        if (kind == "SLO_BURN")
            ++d.burnEvents;
        else if (kind == "SLO_RECOVERED")
            ++d.recoveredEvents;
        else
            return;
        d.lastEvents.push(line);
    });
    return d;
}

AccessDigest
parseAccessJsonl(const std::string &body, std::size_t *skipped)
{
    AccessDigest d;
    forEachObjectLine(body, skipped, [&](const JsonValue &doc,
                                         const std::string &) {
        const std::string &verdict = str(doc, "verdict");
        if (verdict.empty())
            return;
        ++d.records;
        int cls = static_cast<int>(num(doc, "status")) / 100;
        d.statusClass[(cls >= 1 && cls <= 5) ? cls : 0] += 1;
        tally(kVerdictNames, d.verdictCounts, verdict);
        if (flag(doc, "deadline_miss"))
            ++d.deadlineMisses;
        d.totalHandleMs += num(doc, "handle_ms");
    });
    return d;
}

ChaosDigest
parseChaosJsonl(const std::string &body, std::size_t *skipped)
{
    ChaosDigest d;
    forEachObjectLine(body, skipped, [&](const JsonValue &doc,
                                         const std::string &line) {
        if (const JsonValue *sum = doc.find("chaos_summary")) {
            d.hasSummary = true;
            d.crashes = num(*sum, "crashes");
            d.resumes = num(*sum, "resumes");
            d.faultsInjected = num(*sum, "faults_injected");
            d.determinismReruns = num(*sum, "determinism_reruns");
            d.shrinkIterations = num(*sum, "shrink_iterations");
            return;
        }
        if (doc.find("chaos_plan") == nullptr)
            return;
        ++d.plans;
        auto violations =
            static_cast<std::size_t>(num(doc, "violations"));
        d.violations += violations;
        if (violations > 0) {
            ++d.violatingPlans;
            d.violatingLines.push(line);
        }
        const JsonValue *verdicts = doc.find("verdicts");
        if (verdicts == nullptr)
            return;
        for (std::size_t i = 0; i < verdicts->keys().size(); ++i) {
            const std::string &name = verdicts->keys()[i];
            auto row = std::find_if(
                d.invariants.begin(), d.invariants.end(),
                [&](const ChaosInvariantRow &r) {
                    return r.name == name;
                });
            if (row == d.invariants.end())
                row = d.invariants.insert(row, {name, 0, 0});
            if (verdicts->items()[i].asString() == "pass")
                ++row->passes;
            else
                ++row->failures;
        }
    });
    return d;
}

namespace {

/**
 * One block of the dashboard: an optional table (header + rows of
 * cells) followed by optional preformatted lines. The text and HTML
 * forms render the same section list, so they show the same rows.
 */
struct Section
{
    std::string title;
    std::vector<std::string> header = {}; ///< empty = no table
    std::vector<std::vector<std::string>> rows = {};
    std::vector<std::string> lines = {};
};

std::string
count(std::size_t n)
{
    return strf("%zu", n);
}

std::string
whole(double v)
{
    return strf("%.0f", v);
}

std::vector<Section>
buildSections(const ReportArtifacts &artifacts)
{
    // Lines each digest could not read, so a report over a truncated
    // or foreign artifact says what it left out.
    const char *const artifactNames[6] = {"metrics", "trace", "monitor",
                                          "SLO",     "access", "chaos"};
    std::size_t skipped[6] = {};
    auto metrics = parseMetricsText(artifacts.metricsText, &skipped[0]);
    auto traces = parseTraceJsonl(artifacts.traceJsonl, &skipped[1]);
    auto monitor = parseMonitorJsonl(artifacts.monitorJsonl, &skipped[2]);
    auto slo = parseSloJsonl(artifacts.sloJsonl, &skipped[3]);
    auto access = parseAccessJsonl(artifacts.accessJsonl, &skipped[4]);
    auto chaos = parseChaosJsonl(artifacts.chaosJsonl, &skipped[5]);

    std::vector<Section> out;
    auto table = [&](std::string title,
                     std::vector<std::string> header) -> Section & {
        return out.emplace_back(
            Section{std::move(title), std::move(header)});
    };
    auto lines = [&](const char *title,
                     const std::vector<std::string> &raw) {
        if (!raw.empty())
            out.push_back({title, {}, {}, raw});
    };
    if (!artifacts.monitorJsonl.empty()) {
        Section &events = table("Monitor events", {"kind", "count"});
        for (int k = 0; k < 5; ++k)
            events.rows.push_back(
                {kEventNames[k], count(monitor.eventCounts[k])});
        if (monitor.hasRecovery) {
            table("Recovery (regime change -> recovered accuracy)",
                  {"measure", "value"})
                .rows = {
                {"recoveries", whole(monitor.recoveryCount)},
                {"mean recovery (samples)",
                 strf("%.1f", monitor.recoveryMeanSamples)},
                {"max recovery (samples)",
                 whole(monitor.recoveryMaxSamples)},
                {"open regime", monitor.recoveryOpen ? "yes" : "no"}};
        }
        lines("Recent events", monitor.lastEvents.snapshot());
        if (!monitor.summaryLine.empty())
            lines("Summary", {monitor.summaryLine});
    }
    if (monitor.hasSupervisor) {
        Section &events = table("Supervisor events", {"kind", "count"});
        for (int k = 0; k < 9; ++k)
            events.rows.push_back({kSupervisorEventNames[k],
                                   count(monitor.supervisorEventCounts[k])});
        events.rows.push_back(
            {"deadline misses", whole(monitor.deadlineMisses)});
        if (!monitor.supervisorSummaryLine.empty())
            lines("Supervisor summary", {monitor.supervisorSummaryLine});
    }
    if (!artifacts.sloJsonl.empty()) {
        Section &objectives =
            table("SLO objectives",
                  {"name", "kind", "target", "total", "bad", "fast burn",
                   "slow burn", "budget", "state"});
        for (const auto &o : slo.objectives) {
            objectives.rows.push_back(
                {o.name, o.kind, strf("%.4f", o.target), whole(o.total),
                 whole(o.bad), strf("%.3f", o.fastBurn),
                 strf("%.3f", o.slowBurn), strf("%.3f", o.budgetRemaining),
                 o.burning ? "BURNING" : "ok"});
        }
        table("SLO events", {"kind", "count"}).rows = {
            {"SLO_BURN", count(slo.burnEvents)},
            {"SLO_RECOVERED", count(slo.recoveredEvents)},
            {"events dropped", whole(slo.eventsDropped)}};
        lines("Recent SLO events", slo.lastEvents.snapshot());
    }
    if (access.records > 0) {
        static const char *const cls[6] = {"no answer", "1xx", "2xx",
                                           "3xx",       "4xx", "5xx"};
        Section &log =
            table(strf("Access log (%zu records)", access.records),
                  {"outcome", "count"});
        for (int k = 0; k < 6; ++k) {
            if (access.statusClass[k] > 0)
                log.rows.push_back({cls[k], count(access.statusClass[k])});
        }
        for (std::size_t k = 0; k < kVerdictCount; ++k) {
            if (access.verdictCounts[k] > 0)
                log.rows.push_back(
                    {std::string("verdict ") + kVerdictNames[k],
                     count(access.verdictCounts[k])});
        }
        log.rows.push_back(
            {"deadline misses", count(access.deadlineMisses)});
        std::size_t answered = access.records - access.statusClass[0];
        if (answered > 0) {
            log.rows.push_back(
                {"mean handle ms",
                 strf("%.3f", access.totalHandleMs /
                                  static_cast<double>(answered))});
        }
    }
    if (chaos.plans > 0) {
        Section &invariants =
            table(strf("Chaos campaign (%zu plans)", chaos.plans),
                  {"invariant", "pass", "fail"});
        for (const auto &r : chaos.invariants)
            invariants.rows.push_back(
                {r.name, count(r.passes), count(r.failures)});
        Section &totals = table("Chaos totals", {"measure", "value"});
        totals.rows.push_back({"violations",
                               strf("%zu (%zu plans)", chaos.violations,
                                    chaos.violatingPlans)});
        if (chaos.hasSummary) {
            totals.rows.insert(
                totals.rows.end(),
                {{"crashes injected", whole(chaos.crashes)},
                 {"checkpoint resumes", whole(chaos.resumes)},
                 {"faults injected", whole(chaos.faultsInjected)},
                 {"determinism re-runs", whole(chaos.determinismReruns)},
                 {"shrink iterations", whole(chaos.shrinkIterations)}});
        }
        lines("Violating plans", chaos.violatingLines.snapshot());
    }
    if (!traces.empty()) {
        Section &spans =
            table(strf("Trace spans (%zu names)", traces.size()),
                  {"name", "count", "total ms"});
        for (const auto &t : traces) {
            spans.rows.push_back(
                {t.name, count(t.count),
                 strf("%.3f", static_cast<double>(t.totalDurNs) / 1e6)});
        }
    }
    if (!metrics.empty()) {
        Section &series =
            table(strf("Metrics (%zu series)", metrics.size()),
                  {"series", "value"});
        for (const auto &m : metrics)
            series.rows.push_back({m.name, fmtDouble(m.value, 6)});
    }
    std::vector<std::vector<std::string>> skippedRows;
    for (int k = 0; k < 6; ++k) {
        if (skipped[k] > 0)
            skippedRows.push_back({artifactNames[k], count(skipped[k])});
    }
    if (!skippedRows.empty())
        table("Lines skipped (unreadable)", {"artifact", "lines"})
            .rows = std::move(skippedRows);
    return out;
}

std::string
renderText(const std::string &title, const std::vector<Section> &sections)
{
    std::string out = "== " + title + " ==\n";
    for (const auto &s : sections) {
        out += "\n-- " + s.title + " --\n";
        if (!s.header.empty()) {
            AsciiTable table(s.header);
            for (const auto &row : s.rows)
                table.addRow(row);
            out += table.toString();
        }
        for (const auto &line : s.lines)
            out += "  " + line + "\n";
    }
    return out;
}

/** Self-contained HTML: inline style, no external assets. */
std::string
renderHtml(const std::string &title, const std::vector<Section> &sections)
{
    std::string out =
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">";
    out += "<title>" + htmlEscape(title) + "</title>\n";
    out += "<style>body{font-family:monospace;margin:2em;}"
           "table{border-collapse:collapse;margin-bottom:2em;}"
           "th,td{border:1px solid #999;padding:4px 8px;"
           "text-align:left;}th{background:#eee;}"
           "h2{border-bottom:2px solid #333;}</style></head><body>\n";
    out += "<h1>" + htmlEscape(title) + "</h1>\n";
    auto cells = [](const std::vector<std::string> &row,
                    const char *tag) {
        std::string tr = "<tr>";
        for (const auto &c : row)
            tr += strf("<%s>%s</%s>", tag, htmlEscape(c).c_str(), tag);
        return tr + "</tr>\n";
    };
    for (const auto &s : sections) {
        out += "<h2>" + htmlEscape(s.title) + "</h2>\n";
        if (!s.header.empty()) {
            out += "<table>" + cells(s.header, "th");
            for (const auto &row : s.rows)
                out += cells(row, "td");
            out += "</table>\n";
        }
        if (!s.lines.empty()) {
            out += "<pre>";
            for (const auto &line : s.lines)
                out += htmlEscape(line) + "\n";
            out += "</pre>\n";
        }
    }
    out += "</body></html>\n";
    return out;
}

} // namespace

Result<std::string>
renderReport(const ReportArtifacts &artifacts,
             const ReportOptions &opts)
{
    if (artifacts.metricsText.empty() &&
        artifacts.traceJsonl.empty() &&
        artifacts.monitorJsonl.empty() &&
        artifacts.sloJsonl.empty() &&
        artifacts.accessJsonl.empty() &&
        artifacts.chaosJsonl.empty()) {
        return Status::invalidArgument(
            "no artifacts to render (metrics, trace, monitor, SLO, "
            "access, and chaos streams are all empty)");
    }
    auto sections = buildSections(artifacts);
    return opts.html ? renderHtml(opts.title, sections)
                     : renderText(opts.title, sections);
}

} // namespace tomur
