#include "serve/service.hh"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/deadline.hh"
#include "common/json.hh"
#include "common/report.hh"
#include "common/strutil.hh"
#include "common/telemetry.hh"
#include "common/trace.hh"
#include "serve/observe.hh"
#include "tomur/attribution.hh"

namespace tomur::serve {

// ---------------------------------------------------------------
// Reply helpers
// ---------------------------------------------------------------

ServiceReply
replyFromStatus(const Status &st)
{
    ServiceReply r;
    r.status = httpStatusFor(st.code());
    r.body = errorBody(st.toString());
    return r;
}

// ---------------------------------------------------------------
// ModelService
// ---------------------------------------------------------------

ModelService::ModelService(
    ModelRegistry &registry,
    std::vector<core::ContentionLevel> reference_levels,
    std::string label)
    : registry_(registry), levels_(std::move(reference_levels)),
      label_(std::move(label))
{
}

ServiceReply
ModelService::handle(const HttpRequest &req)
{
    const std::string path = req.path();
    if (path == "/healthz") {
        if (req.method != "GET" && req.method != "HEAD")
            return {405, "application/json",
                    errorBody("use GET /healthz")};
        return handleHealthz();
    }
    if (path == "/metrics") {
        if (req.method != "GET")
            return {405, "application/json",
                    errorBody("use GET /metrics")};
        return handleMetrics();
    }
    if (path == "/report") {
        if (req.method != "GET")
            return {405, "application/json",
                    errorBody("use GET /report")};
        return handleReport(req);
    }
    if (path == "/predict") {
        if (req.method != "POST")
            return {405, "application/json",
                    errorBody("use POST /predict")};
        return handlePredict(req);
    }
    if (path == "/diagnose") {
        if (req.method != "POST")
            return {405, "application/json",
                    errorBody("use POST /diagnose")};
        return handleDiagnose(req);
    }
    if (path == "/reload") {
        if (req.method != "POST")
            return {405, "application/json",
                    errorBody("use POST /reload")};
        return handleReload(req);
    }
    if (path.rfind("/debug/", 0) == 0) {
        if (req.method != "GET")
            return {405, "application/json",
                    errorBody("use GET " + path)};
        return handleDebug(path);
    }
    return {404, "application/json",
            errorBody("no such endpoint '" + path + "'")};
}

ServiceReply
ModelService::handleHealthz() const
{
    auto snap = registry_.current();
    bool degraded =
        snap && snap.model->health().anyDegraded();
    ServiceReply r;
    r.body = strf("{\"status\":\"%s\",\"nf\":\"%s\","
                  "\"model_version\":%llu,\"degraded\":%s}",
                  draining_ ? "draining" : "ok",
                  jsonEscape(label_).c_str(),
                  (unsigned long long)snap.version,
                  degraded ? "true" : "false");
    if (!snap) {
        r.status = 503;
        r.body = errorBody("no model installed");
    }
    return r;
}

ServiceReply
ModelService::handleMetrics() const
{
    ServiceReply r;
    r.contentType = "text/plain; version=0.0.4";
    r.body = metrics().dumpString();
    return r;
}

ServiceReply
ModelService::handleReport(const HttpRequest &req) const
{
    ReportArtifacts artifacts;
    artifacts.metricsText = metrics().dumpString();
    ReportOptions opts;
    opts.html = req.queryParam("html") == "1";
    opts.title = "Tomur serve report (" + label_ + ")";
    auto rendered = renderReport(artifacts, opts);
    if (!rendered)
        return replyFromStatus(rendered.status());
    ServiceReply r;
    r.contentType =
        opts.html ? "text/html; charset=utf-8" : "text/plain";
    r.body = std::move(rendered.value());
    return r;
}

namespace {

/** /debug responses are cap-bounded like requests: keep only the
 *  newest complete lines that fit. */
constexpr std::size_t kDebugBodyCap = 256 * 1024;

std::string
capTailLines(std::string body)
{
    if (body.size() <= kDebugBodyCap)
        return body;
    std::size_t cut = body.size() - kDebugBodyCap;
    std::size_t nl = body.find('\n', cut);
    if (nl == std::string::npos)
        return {};
    return body.substr(nl + 1);
}

} // namespace

ServiceReply
ModelService::handleDebug(const std::string &path) const
{
    ServiceReply r;
    if (path == "/debug/vars") {
        r.body = metrics().dumpJsonString();
        return r;
    }
    if (path == "/debug/trace") {
        if (!tracer().enabled()) {
            r.body = "{\"enabled\":false,\"records\":0}";
            return r;
        }
        // Recording order, so the tail cap keeps the newest requests.
        r.contentType = "application/jsonl";
        r.body = capTailLines(tracer().exportString());
        return r;
    }
    // Observatory-backed views 503 without one attached — but only
    // the known views: an unknown /debug path is a 404 either way.
    bool backed = path == "/debug/slo" || path == "/debug/access" ||
                  path == "/debug/profile";
    if (backed && observatory_ == nullptr) {
        return {503, "application/json",
                errorBody("observatory not attached")};
    }
    if (path == "/debug/slo") {
        r.contentType = "application/jsonl";
        r.body = capTailLines(observatory_->slo.exportString());
        return r;
    }
    if (path == "/debug/access") {
        r.contentType = "application/jsonl";
        const auto &log = observatory_->accessLog;
        for (std::size_t i = 0; i < log.size(); ++i) {
            r.body += formatAccessRecord(log[i], /*canonical=*/false);
            r.body += '\n';
        }
        r.body = capTailLines(std::move(r.body));
        return r;
    }
    if (path == "/debug/profile") {
        if (observatory_->profiler == nullptr) {
            return {503, "application/json",
                    errorBody("no profiler attached")};
        }
        std::ostringstream ss;
        observatory_->profiler->exportText(ss);
        r.contentType = "text/plain";
        r.body = capTailLines(ss.str());
        return r;
    }
    return {404, "application/json",
            errorBody("no such endpoint '" + path + "'")};
}

namespace {

/**
 * A request body: one JSON object (the strict reader's refusals
 * apply) whose members are all named in `fields`. An unknown member —
 * a typo, or a field nested one level down — is refused rather than
 * silently answered with defaults.
 */
Result<JsonValue>
objectBody(const std::string &body,
           std::initializer_list<std::string_view> fields)
{
    auto doc = parseJson(body);
    if (!doc) {
        return Status::invalidArgument("request body: " +
                                       doc.status().message());
    }
    if (!doc.value().isObject())
        return Status::invalidArgument(
            "request body must be a JSON object");
    for (const auto &key : doc.value().keys()) {
        if (std::find(fields.begin(), fields.end(), key) == fields.end())
            return Status::invalidArgument("unknown field '" + key + "'");
    }
    return doc;
}

} // namespace

Result<traffic::TrafficProfile>
ModelService::profileFromBody(const std::string &body) const
{
    auto doc = objectBody(body, {"flows", "size", "mtbr"});
    if (!doc)
        return doc.status();
    auto profile = traffic::TrafficProfile::defaults();
    for (auto [key, attr] :
         {std::pair{"flows", traffic::Attribute::FlowCount},
          std::pair{"size", traffic::Attribute::PacketSize},
          std::pair{"mtbr", traffic::Attribute::Mtbr}}) {
        const JsonValue *v = doc.value().find(key);
        if (v == nullptr)
            continue;
        if (!v->isNumber()) {
            return Status::invalidArgument(
                strf("field '%s' is not a number", key));
        }
        double x = v->asNumber();
        traffic::AttributeRange r = traffic::inputBounds(attr);
        if (!(x >= r.min && x <= r.max)) {
            return Status::invalidArgument(
                strf("field '%s' = %g is outside [%g, %g]", key, x,
                     r.min, r.max));
        }
        profile = profile.withAttribute(attr, x);
    }
    return profile;
}

namespace {

Counter &
predictionsCounter()
{
    static Counter &c =
        metrics().counter("tomur_server_predictions_total");
    return c;
}

Counter &
diagnosesCounter()
{
    static Counter &c =
        metrics().counter("tomur_server_diagnoses_total");
    return c;
}

} // namespace

// The /predict and /diagnose bodies are written in one append pass;
// the append helpers write what printf's %llu, %g and %.Nf write.

ServiceReply
ModelService::handlePredict(const HttpRequest &req) const
{
    auto snap = registry_.current();
    if (!snap) {
        return {503, "application/json",
                errorBody("no model installed")};
    }
    auto profile = profileFromBody(req.body);
    if (!profile)
        return replyFromStatus(profile.status());

    checkDeadline("server.predict");
    const traffic::TrafficProfile &p = profile.value();
    auto b = snap.model->predictDetailed(levels_, p);
    auto a = core::attributeContention(b);
    predictionsCounter().inc();

    double drop_pct =
        b.soloThroughput > 0.0
            ? 100.0 * (1.0 - b.predicted / b.soloThroughput)
            : 0.0;
    ServiceReply r;
    std::string &o = r.body;
    o.reserve(256);
    o += "{\"nf\":\"";
    appendJsonEscaped(o, label_);
    o += "\",\"model_version\":";
    appendUnsigned(o, snap.version);
    o += ",\"profile\":{\"flows\":";
    appendUnsigned(o, p.flowCount);
    o += ",\"size\":";
    appendUnsigned(o, p.packetSize);
    o += ",\"mtbr\":";
    appendGeneral(o, p.mtbr);
    o += "},\"solo_pps\":";
    appendFixed(o, b.soloThroughput, 1);
    o += ",\"predicted_pps\":";
    appendFixed(o, b.predicted, 1);
    o += ",\"drop_pct\":";
    appendFixed(o, drop_pct, 2);
    o += ",\"dominant\":\"";
    o += core::resourceName(a.dominantResource);
    o += "\",\"confidence\":";
    appendFixed(o, b.confidence, 2);
    o += b.degraded ? ",\"degraded\":true" : ",\"degraded\":false";
    if (b.degraded) {
        o += ",\"degraded_reason\":\"";
        appendJsonEscaped(o, b.degradedReason);
        o += '"';
    }
    o += '}';
    return r;
}

ServiceReply
ModelService::handleDiagnose(const HttpRequest &req) const
{
    auto snap = registry_.current();
    if (!snap) {
        return {503, "application/json",
                errorBody("no model installed")};
    }
    auto profile = profileFromBody(req.body);
    if (!profile)
        return replyFromStatus(profile.status());

    checkDeadline("server.diagnose");
    auto b = snap.model->predictDetailed(levels_, profile.value());
    auto a = core::attributeContention(b);
    diagnosesCounter().inc();

    ServiceReply r;
    std::string &o = r.body;
    o.reserve(512);
    o += "{\"nf\":\"";
    appendJsonEscaped(o, label_);
    o += "\",\"model_version\":";
    appendUnsigned(o, snap.version);
    o += ",\"dominant\":\"";
    o += core::resourceName(a.dominantResource);
    o += "\",\"solo_pps\":";
    appendFixed(o, a.soloThroughput, 1);
    o += ",\"predicted_pps\":";
    appendFixed(o, a.predicted, 1);
    o += ",\"total_drop_pps\":";
    appendFixed(o, a.totalDrop, 1);
    o += ",\"confidence\":";
    appendFixed(o, a.confidence, 2);
    o += a.degraded ? ",\"degraded\":true" : ",\"degraded\":false";
    o += ",\"ranked\":[";
    for (std::size_t i = 0; i < a.ranked.size(); ++i) {
        const auto &c = a.ranked[i];
        o += i == 0 ? "{\"resource\":\"" : ",{\"resource\":\"";
        o += core::resourceName(c.resource);
        o += "\",\"drop_pps\":";
        appendFixed(o, c.drop, 1);
        o += ",\"share\":";
        appendFixed(o, c.share, 3);
        o += '}';
    }
    o += "]}";
    return r;
}

ServiceReply
ModelService::handleReload(const HttpRequest &req)
{
    auto doc = objectBody(req.body, {"model"});
    if (!doc)
        return replyFromStatus(doc.status());
    const JsonValue *model = doc.value().find("model");
    if (model == nullptr)
        return replyFromStatus(
            Status::notFound("field 'model' is absent"));
    if (!model->isString())
        return replyFromStatus(
            Status::invalidArgument("field 'model' is not a string"));
    const std::string &path = model->asString();
    auto swapped = registry_.swapFromFile(path);
    if (!swapped) {
        // The previous version keeps serving; say so explicitly.
        ServiceReply r = replyFromStatus(swapped.status());
        r.body = strf("{\"error\":\"%s\","
                      "\"retained_version\":%llu}",
                      jsonEscape(swapped.status().toString())
                          .c_str(),
                      (unsigned long long)registry_.version());
        return r;
    }
    ServiceReply r;
    r.body = strf("{\"version\":%llu,\"source\":\"%s\"}",
                  (unsigned long long)swapped.value(),
                  jsonEscape(path).c_str());
    return r;
}

} // namespace tomur::serve
