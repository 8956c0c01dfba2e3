#include "serve/observe.hh"

#include "common/strutil.hh"

namespace tomur::serve {

std::string
formatAccessRecord(const AccessRecord &rec, bool canonical)
{
    std::string line = strf(
        "{\"id\":\"%s\",\"peer\":\"%s\",\"method\":\"%s\","
        "\"path\":\"%s\",\"status\":%d,\"bytes\":%zu,"
        "\"step\":%llu,\"wait_steps\":%llu",
        jsonEscape(rec.id).c_str(), jsonEscape(rec.peer).c_str(),
        jsonEscape(rec.method).c_str(),
        jsonEscape(rec.path).c_str(), rec.status, rec.bodyBytes,
        (unsigned long long)rec.step,
        (unsigned long long)rec.waitSteps);
    if (!canonical) {
        line += strf(",\"queue_wait_ms\":%.3f,\"handle_ms\":%.3f",
                     rec.queueWaitMs, rec.handleMs);
    }
    line += strf(",\"verdict\":\"%s\",\"deadline_miss\":%s}",
                 kVerdictNames[static_cast<std::size_t>(rec.verdict)],
                 rec.verdict == Verdict::Deadline ? "true" : "false");
    return line;
}

std::vector<SloObjective>
defaultServeObjectives()
{
    SloObjective availability;
    availability.name = "availability";
    availability.kind = SloKind::Availability;
    availability.target = 0.999;
    availability.fastWindow = 64;
    availability.slowWindow = 512;
    availability.burnThreshold = 2.0;

    SloObjective predict;
    predict.name = "predict_latency";
    predict.kind = SloKind::Latency;
    predict.pathFilter = "/predict";
    predict.latencyThresholdMs = 50.0;
    predict.target = 0.99;
    predict.fastWindow = 64;
    predict.slowWindow = 512;
    predict.burnThreshold = 2.0;

    return {availability, predict};
}

ServerObservatory::ServerObservatory()
    : ServerObservatory(defaultServeObjectives())
{
}

ServerObservatory::ServerObservatory(
    std::vector<SloObjective> objectives)
    : slo(std::move(objectives))
{
}

} // namespace tomur::serve
