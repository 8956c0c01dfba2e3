/**
 * @file
 * The deterministic serving core: connection state machines, bounded
 * queues with explicit load shedding, per-client token-bucket
 * admission, per-request cooperative deadlines, and graceful drain.
 *
 * Robustness-first design decisions:
 *
 *  - *Shed, don't collapse.* Admission is checked the moment a
 *    request finishes parsing: a client over its token budget gets
 *    429 (+Retry-After) while the connection stays usable; a full
 *    ready queue or a connection cap gets 503 (+Retry-After, so
 *    backoff-aware clients treat shedding and throttling
 *    uniformly). Overload produces
 *    fast, well-formed refusals, never an unbounded queue.
 *  - *Bound every request's time.* Each admitted request runs under
 *    its own Deadline (wall-clock in production, granule-counted in
 *    tests); a trip maps to 504 and
 *    tomur_server_deadline_misses_total, and the daemon moves on.
 *  - *Survive anything a connection does.* Parser poison maps to a
 *    4xx and a close; handler exceptions map to 500; write-buffer
 *    blowup (a reader that never reads) drops the connection. No
 *    client behaviour reaches process exit.
 *  - *Drain, don't vanish.* beginDrain() stops admitting, answers
 *    new requests 503 + Connection: close, finishes everything
 *    already admitted, and reports drained() once the last byte is
 *    flushed.
 *
 * The core is transport-agnostic and single-threaded by design:
 * step() performs one bounded round of accept/read/handle/flush over
 * whatever Transports it holds. The epoll front end (epoll_server.hh)
 * calls step() on readiness; tests and the load generator call it
 * directly with MemoryTransports, which makes every scheduling
 * decision — and every chaos scenario — deterministic.
 */

#ifndef TOMUR_SERVE_SERVER_HH
#define TOMUR_SERVE_SERVER_HH

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "serve/http.hh"
#include "serve/observe.hh"
#include "serve/service.hh"
#include "serve/transport.hh"

namespace tomur::serve {

/** Serving limits and budgets. */
struct ServeOptions
{
    ParserLimits parser{};

    /** Open connections the daemon holds at once; excess accepts
     *  are answered 503 and closed immediately. */
    std::size_t maxConnections = 256;
    /** Parsed-and-admitted requests waiting to be handled; beyond
     *  this depth new requests are shed with 503. */
    std::size_t maxQueueDepth = 64;
    /** Requests handled per step() — the service's concurrency
     *  stand-in; keeps one step's work bounded. */
    std::size_t maxRequestsPerStep = 8;
    /** Unflushed response bytes before a non-reading client is
     *  dropped. */
    std::size_t maxWriteBufferBytes = 1 << 20;

    /** Per-request wall-clock budget (0 = off). */
    double requestDeadlineMs = 0.0;
    /** Per-request granule budget (0 = off; takes precedence over
     *  the wall-clock budget — the deterministic test mode). */
    std::uint64_t requestDeadlineGranules = 0;

    /** Token-bucket admission per client id: burst capacity and
     *  whether admission is enabled (capacity <= 0 disables it).
     *  Buckets refill via tickTokens(). */
    double bucketCapacity = 0.0;
};

/** Monotonic serving counters, mirrored into tomur_server_*
 *  metrics. Server::book alone moves the per-Verdict fields. */
struct ServerStats
{
    std::size_t accepted = 0;
    std::size_t acceptFailures = 0;
    std::size_t acceptShed = 0;     ///< 503 at the connection cap
    std::size_t parseErrors = 0;
    std::size_t requestsAdmitted = 0;
    std::size_t requestsHandled = 0;
    std::size_t shed = 0;           ///< 503 at the queue cap / drain
    std::size_t throttled = 0;      ///< 429 token-bucket refusals
    std::size_t deadlineMisses = 0; ///< 504 responses
    std::size_t internalErrors = 0; ///< 500 from handler exceptions
    std::size_t droppedRequests = 0; ///< admitted, conn died first
    std::size_t connectionsClosed = 0;
};

class Server
{
  public:
    Server(ServeOptions opts, Service &service);
    ~Server();

    /** Attach the accept source (may be null: connections can also
     *  be injected with addConnection). */
    void setListener(Listener *listener) { listener_ = listener; }

    /**
     * Attach the serving observatory (may be null = observability
     * off, the default). The core then writes an AccessRecord for
     * every request outcome, folds each outcome into the SLO
     * tracker (mirroring burn events as slo.event trace points),
     * and — when the bundle carries a profiler — wraps each step
     * phase in a sampled serve.* profiler scope. Caller owns the
     * bundle; same lifetime rule as setListener.
     */
    void setObservatory(ServerObservatory *observatory);

    /** Steps taken so far — the logical clock access records carry
     *  (deterministic, unlike wall time). */
    std::uint64_t stepIndex() const { return stepIndex_; }

    /** Inject an established connection (tests, load generator). */
    void addConnection(std::unique_ptr<Transport> transport,
                       std::string client_id);

    /**
     * One bounded round: accept new connections, read + parse every
     * connection, admit or shed completed requests, handle up to
     * maxRequestsPerStep admitted requests, flush write buffers,
     * reap dead connections. Returns true when any work was done
     * (the epoll loop uses this to decide whether to re-step before
     * sleeping).
     */
    bool step();

    /** Add `tokens` to every client bucket (capped at capacity).
     *  The epoll loop calls this with elapsed-time-scaled amounts;
     *  tests call it explicitly. */
    void tickTokens(double tokens);

    /** Stop accepting and admitting; finish what was admitted. */
    void beginDrain();
    bool draining() const { return draining_; }

    /** Everything admitted has been handled and flushed (idle
     *  keep-alive connections don't block drain; they are closed). */
    bool drained() const;

    /** Close every connection immediately (drain deadline tripped;
     *  admitted-but-unhandled requests are dropped). */
    void abortConnections();

    std::size_t openConnections() const;
    const ServerStats &stats() const { return stats_; }

  private:
    struct Connection
    {
        std::uint64_t id = 0;
        std::unique_ptr<Transport> transport;
        std::string clientId;
        HttpRequestParser parser;
        std::string writeBuf;
        std::size_t writeOff = 0;
        std::size_t inflight = 0; ///< admitted, not yet answered
        bool sawEof = false;
        bool closeAfterFlush = false;
        bool dead = false;
        /** Parser poisoned: the 4xx is held back until responses to
         *  requests pipelined *before* the garbage have gone out, so
         *  the connection never reorders responses. */
        bool parseErrorPending = false;
        HttpResponse parseErrorResp;
        /** Requests parsed on this connection — the "-r<seq>" half
         *  of the correlation id. */
        std::uint64_t requestSeq = 0;

        Connection(ParserLimits limits)
            : parser(limits)
        {
        }
    };

    struct Pending
    {
        std::shared_ptr<Connection> conn;
        HttpRequest request;
        std::uint64_t enqueuedNs = 0;
        std::string rid; ///< correlation id ("c<conn>-r<seq>")
        std::uint64_t admittedStep = 0;
    };

    void acceptPhase();
    void readPhase(const std::shared_ptr<Connection> &conn);
    void admit(const std::shared_ptr<Connection> &conn);
    void handlePhase();
    void flushPhase(const std::shared_ptr<Connection> &conn);
    void respond(const std::shared_ptr<Connection> &conn,
                 HttpResponse resp);
    ServiceReply invokeService(const HttpRequest &req);
    bool admitBucket(const std::string &client_id);
    void killConnection(const std::shared_ptr<Connection> &conn);
    /** Book one request outcome, by rec.verdict: its ServerStats
     *  field and counter, request_ms when handled, the SLO fold when
     *  answered, then the access sink and ring (DESIGN §14). */
    void book(AccessRecord rec, double latency_ms);
    /** The record of a queued request's outcome, its queue wait
     *  measured up to `wait_end_ns`. */
    AccessRecord pendingRecord(const Pending &p, Verdict verdict,
                               std::uint64_t wait_end_ns) const;

    ServeOptions opts_;
    Service &service_;
    Listener *listener_ = nullptr;
    std::vector<std::shared_ptr<Connection>> conns_;
    std::deque<Pending> ready_;
    std::map<std::string, double> buckets_;
    ServerStats stats_;
    bool draining_ = false;
    bool didWork_ = false;
    std::uint64_t nextConnId_ = 1;
    std::uint64_t stepIndex_ = 0;

    ServerObservatory *observatory_ = nullptr;
    /** The profiler whose sites setObservatory() registered. A
     *  profiler attached to the bundle afterwards is served by
     *  /debug/profile but not sampled by the core until the next
     *  setObservatory() call — beginToken() elides its bounds
     *  check, so stepping with unregistered site ids is UB. */
    SamplingProfiler *registeredProfiler_ = nullptr;
    int siteAccept_ = 0, siteRead_ = 0;
    int siteHandle_ = 0, siteFlush_ = 0;
};

} // namespace tomur::serve

#endif // TOMUR_SERVE_SERVER_HH
