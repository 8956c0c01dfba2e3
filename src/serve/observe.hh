/**
 * @file
 * The serving observatory: the per-request observability state the
 * server core writes and the /debug endpoints read.
 *
 * The access log is a plain BoundedRing of AccessRecords, the newest
 * kAccessLogCapacity of them: one record per answered (or refused,
 * or dropped) request. The record is the request's one account; the
 * core copies its fields onto the request's `server.request` span.
 * formatAccessRecord() renders a record as one JSONL line in one of
 * two modes that mirror the tracer's:
 *
 *  - full: every field, wall-clock latencies included — the
 *    operator-facing `--access-log` file and /debug/access body;
 *  - canonical: wall-clock fields omitted, logical step indices
 *    kept, so a deterministic scenario exports byte-identically at
 *    any TOMUR_THREADS (the serve-observatory golden diffs this).
 *
 * ServerObservatory bundles the access log, the SLO tracker, and an
 * optional sampling profiler behind one pointer: the Server core
 * takes it via setObservatory() and feeds it; ModelService takes
 * the same pointer and serves it read-only under /debug. Both run
 * on the single-threaded core, so the bundle needs no locking —
 * same ownership rule as SamplingProfiler.
 */

#ifndef TOMUR_SERVE_OBSERVE_HH
#define TOMUR_SERVE_OBSERVE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/ring.hh"
#include "common/sampler.hh"
#include "common/slo.hh"

namespace tomur::serve {

/** One request outcome, as the access log remembers it. */
struct AccessRecord
{
    /** Correlation id: "c<conn>-r<seq>" for parsed requests,
     *  "c<conn>-parse" for parser poison (no request to number). */
    std::string id;
    std::string peer;   ///< client id ("anon" for plain sockets)
    std::string method; ///< empty for parse errors
    std::string path;   ///< empty for parse errors
    int status = 0;     ///< 0 = dropped before an answer existed
    std::size_t bodyBytes = 0; ///< response body size
    /** Logical server step indices (deterministic). */
    std::uint64_t step = 0;      ///< step the outcome landed in
    std::uint64_t waitSteps = 0; ///< steps spent queued (0 = inline)
    /** Wall-clock measurements (omitted from canonical export). */
    double queueWaitMs = 0.0;
    double handleMs = 0.0;
    /** Exported by wire name, with `deadline_miss` = Deadline. */
    Verdict verdict = Verdict::Ok;
};

/** Access records the observatory retains; a full ring overwrites
 *  its oldest record (and counts the eviction). */
constexpr std::size_t kAccessLogCapacity = 4096;

/** One record rendered as its JSONL line (no newline). canonical
 *  omits the wall-clock fields (see file header). */
std::string formatAccessRecord(const AccessRecord &rec, bool canonical);

/**
 * Everything the server core feeds and /debug serves. The profiler
 * pointer is optional (null = phase profiling off); the caller owns
 * it, same as Server::setListener.
 */
struct ServerObservatory
{
    BoundedRing<AccessRecord> accessLog{kAccessLogCapacity};
    SloTracker slo;
    SamplingProfiler *profiler = nullptr;
    /** Streaming tap: called with every record as it lands, before
     *  ring eviction can touch it — the CLI's --access-log file
     *  writer. The ring stays the bounded /debug view. */
    std::function<void(const AccessRecord &)> accessSink;

    /** Objectives default to defaultServeObjectives(). */
    ServerObservatory();
    explicit ServerObservatory(std::vector<SloObjective> objectives);
};

/**
 * The daemon's stock objectives: availability >= 99.9% over all
 * endpoints, and /predict answered within 50 ms at p99 (burn math
 * over windows of requests; see common/slo.hh).
 */
std::vector<SloObjective> defaultServeObjectives();

} // namespace tomur::serve

#endif // TOMUR_SERVE_OBSERVE_HH
