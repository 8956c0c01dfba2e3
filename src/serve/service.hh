/**
 * @file
 * Request handlers for the serving daemon, split from transport and
 * connection handling so the service logic is testable without
 * sockets and the server core is testable without models.
 *
 * A Service maps one parsed request onto a reply; the server core
 * wraps every call in a per-request deadline and a catch-all, so a
 * handler may throw (DeadlineExceeded included) without taking the
 * daemon down. ModelService implements the real endpoints over a
 * ModelRegistry snapshot: every request predicts against one
 * immutable model version end-to-end, no matter how many hot-swaps
 * land mid-request.
 */

#ifndef TOMUR_SERVE_SERVICE_HH
#define TOMUR_SERVE_SERVICE_HH

#include <string>
#include <vector>

#include "serve/http.hh"
#include "serve/registry.hh"
#include "tomur/contention.hh"
#include "traffic/profile.hh"

namespace tomur::serve {

struct ServerObservatory;

/** One handler outcome. */
struct ServiceReply
{
    int status = 200;
    std::string contentType = "application/json";
    std::string body;
};

/** ServiceReply from a handler Status (error mapping + JSON body). */
ServiceReply replyFromStatus(const Status &st);

class Service
{
  public:
    virtual ~Service() = default;

    /**
     * Handle one request. Runs under the server's per-request
     * deadline; implementations doing heavy work should call
     * checkDeadline() at convenient boundaries. May throw — the
     * server maps DeadlineExceeded to 504 and anything else to 500.
     */
    virtual ServiceReply handle(const HttpRequest &req) = 0;

    /** The server entered drain; handlers may flip health answers
     *  (load balancers should stop routing here). Default: no-op. */
    virtual void onDrain() {}
};

/**
 * The real endpoints:
 *
 *   GET  /healthz   liveness + model version + degradation flag
 *   GET  /metrics   Prometheus-style tomur_* registry dump
 *   GET  /report    rendered observability report (?html=1)
 *   POST /predict   {"flows":N,"size":B,"mtbr":M} -> prediction
 *   POST /diagnose  same body -> ranked contention attribution
 *   POST /reload    {"model":"PATH"} -> hot-swap the model
 *
 * POST bodies must be one JSON object, read by the strict parseJson
 * (common/json.hh), naming only the fields shown; every field of
 * /predict and /diagnose is optional (absent ones keep the default
 * traffic profile). A body that breaks these rules is a 400 naming
 * the fault.
 *
 * Live introspection (GET-only, read-only; each body keeps its
 * newest complete lines within a 256 KiB cap, the way requests are
 * capped by ParserLimits):
 *
 *   GET /debug/vars     metrics snapshot as one JSON object
 *   GET /debug/trace    the tracer's retained (newest) records in
 *                       recording order, with durations (JSONL)
 *   GET /debug/slo      SLO burn events + budget summary (JSONL)
 *   GET /debug/access   recent access-log records (JSONL)
 *   GET /debug/profile  sampling-profiler text dump
 *
 * /debug/slo, /debug/access and /debug/profile need the observatory
 * attached (attachObservatory) and answer 503 without it; the trace
 * and access bodies are the same artifacts `tomur report` ingests,
 * so `curl /debug/slo > slo.jsonl` feeds straight into the report.
 *
 * Prediction happens against the registry snapshot and the reference
 * contention levels captured at construction — the hot path touches
 * no testbed, so a request costs microseconds, not an equilibrium
 * solve.
 */
class ModelService : public Service
{
  public:
    ModelService(ModelRegistry &registry,
                 std::vector<core::ContentionLevel> reference_levels,
                 std::string label);

    ServiceReply handle(const HttpRequest &req) override;

    /** Flip the health answer to "draining" (the server calls this
     *  via onDrain when drain begins). */
    void setDraining(bool draining) { draining_ = draining; }

    void onDrain() override { setDraining(true); }

    /** Read-only view for the /debug endpoints (the same bundle the
     *  Server writes; both run on the single-threaded core). */
    void attachObservatory(const ServerObservatory *observatory)
    {
        observatory_ = observatory;
    }

  private:
    ServiceReply handleHealthz() const;
    ServiceReply handleMetrics() const;
    ServiceReply handleReport(const HttpRequest &req) const;
    ServiceReply handlePredict(const HttpRequest &req) const;
    ServiceReply handleDiagnose(const HttpRequest &req) const;
    ServiceReply handleReload(const HttpRequest &req);
    ServiceReply handleDebug(const std::string &path) const;

    Result<traffic::TrafficProfile>
    profileFromBody(const std::string &body) const;

    ModelRegistry &registry_;
    std::vector<core::ContentionLevel> levels_;
    std::string label_;
    bool draining_ = false;
    const ServerObservatory *observatory_ = nullptr;
};

} // namespace tomur::serve

#endif // TOMUR_SERVE_SERVICE_HH
