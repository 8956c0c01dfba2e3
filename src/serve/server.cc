#include "serve/server.hh"

#include <algorithm>
#include <array>
#include <exception>

#include "common/deadline.hh"
#include "common/logging.hh"
#include "common/strutil.hh"
#include "common/telemetry.hh"
#include "common/trace.hh"

namespace tomur::serve {

namespace {

/** Accepts attempted per step (bounds accept storms). */
constexpr std::size_t kMaxAcceptsPerStep = 32;
/** Bytes read per read() call. */
constexpr std::size_t kReadChunkBytes = 4096;
/** read() calls per connection per step (a firehose client cannot
 *  starve the others within a step). */
constexpr std::size_t kMaxReadsPerConnPerStep = 16;

/** What booking one outcome bumps, by Verdict: a ServerStats field,
 *  its tomur_server_* counter, and whether the request reached the
 *  service (only those are timed into tomur_server_request_ms). */
struct VerdictBook
{
    std::size_t ServerStats::*stat;
    const char *counter;
    bool handled;
};

constexpr VerdictBook kVerdictBooks[kVerdictCount] = {
    {&ServerStats::requestsHandled, "tomur_server_handled_total", true},
    {&ServerStats::shed, "tomur_server_shed_total", false},
    {&ServerStats::throttled, "tomur_server_throttled_total", false},
    {&ServerStats::deadlineMisses,
     "tomur_server_deadline_misses_total", true},
    {&ServerStats::internalErrors,
     "tomur_server_internal_errors_total", true},
    {&ServerStats::parseErrors, "tomur_server_parse_errors_total",
     false},
    {&ServerStats::droppedRequests,
     "tomur_server_dropped_requests_total", false},
};

struct ServerMetrics
{
    Counter &accepted;
    Counter &acceptFailures;
    Counter &requests;
    Counter &shed; ///< also the Shed verdict's counter
    Counter &accessRecords;
    Counter &accessDropped;
    Gauge &connections;
    Gauge &queueDepth;
    Histogram &latencyMs;
    std::array<Counter *, kVerdictCount> verdicts; ///< by Verdict
};

ServerMetrics &
serverMetrics()
{
    static ServerMetrics m = {
        metrics().counter("tomur_server_accepted_total"),
        metrics().counter("tomur_server_accept_failures_total"),
        metrics().counter("tomur_server_requests_total"),
        metrics().counter("tomur_server_shed_total"),
        metrics().counter("tomur_server_access_records_total"),
        metrics().counter("tomur_server_access_dropped_total"),
        metrics().gauge("tomur_server_connections"),
        metrics().gauge("tomur_server_queue_depth"),
        metrics().histogram(
            "tomur_server_request_ms",
            Histogram::exponentialBounds(0.01, 4.0, 10)),
        [] {
            std::array<Counter *, kVerdictCount> out{};
            for (std::size_t v = 0; v < kVerdictCount; ++v)
                out[v] = &metrics().counter(kVerdictBooks[v].counter);
            return out;
        }(),
    };
    return m;
}

} // namespace

Server::Server(ServeOptions opts, Service &service)
    : opts_(opts), service_(service)
{
    serverMetrics(); // eager registration: every dump shows the family
}

Server::~Server()
{
    for (auto &conn : conns_) {
        if (!conn->transport->closed())
            conn->transport->close();
    }
}

void
Server::setObservatory(ServerObservatory *observatory)
{
    observatory_ = observatory;
    registeredProfiler_ = nullptr;
    if (observatory_ != nullptr &&
        observatory_->profiler != nullptr) {
        SamplingProfiler *prof = observatory_->profiler;
        registeredProfiler_ = prof;
        siteAccept_ = prof->registerSite("serve.accept");
        siteRead_ = prof->registerSite("serve.read");
        siteHandle_ = prof->registerSite("serve.handle");
        siteFlush_ = prof->registerSite("serve.flush");
    }
}

void
Server::book(AccessRecord rec, double latency_ms)
{
    auto v = static_cast<std::size_t>(rec.verdict);
    const VerdictBook &entry = kVerdictBooks[v];
    ++(stats_.*entry.stat);
    serverMetrics().verdicts[v]->inc();
    if (entry.handled)
        serverMetrics().latencyMs.observe(latency_ms);
    if (observatory_ == nullptr)
        return;
    if (rec.status != 0) {
        SloOutcome outcome;
        outcome.path = rec.path;
        outcome.status = rec.status;
        outcome.latencyMs = latency_ms;
        outcome.deadlineMiss = rec.verdict == Verdict::Deadline;
        for (const SloEvent &ev : observatory_->slo.ingest(outcome)) {
            // Mirror budget transitions into the trace ring so a
            // burn lines up with the requests around it.
            tracePoint("slo.event",
                       {{"event", ev.kind == SloEventKind::Burn
                                      ? "SLO_BURN"
                                      : "SLO_RECOVERED"},
                        {"objective", ev.objective},
                        {"fast_burn", traceFormat(ev.fastBurn)},
                        {"slow_burn", traceFormat(ev.slowBurn)}},
                       static_cast<std::int64_t>(ev.sample));
        }
    }
    if (observatory_->accessSink)
        observatory_->accessSink(rec);
    serverMetrics().accessRecords.inc();
    if (observatory_->accessLog.push(std::move(rec)))
        serverMetrics().accessDropped.inc();
}

AccessRecord
Server::pendingRecord(const Pending &p, Verdict verdict,
                      std::uint64_t wait_end_ns) const
{
    AccessRecord rec;
    rec.id = p.rid;
    rec.peer = p.conn->clientId;
    rec.method = p.request.method;
    rec.path = p.request.path();
    rec.step = stepIndex_;
    rec.waitSteps = stepIndex_ - p.admittedStep;
    rec.queueWaitMs =
        static_cast<double>(wait_end_ns - p.enqueuedNs) / 1e6;
    rec.verdict = verdict;
    return rec;
}

void
Server::addConnection(std::unique_ptr<Transport> transport,
                      std::string client_id)
{
    auto conn = std::make_shared<Connection>(opts_.parser);
    conn->id = nextConnId_++;
    conn->transport = std::move(transport);
    conn->clientId = std::move(client_id);
    if (conns_.size() >= opts_.maxConnections || draining_) {
        // Immediate 503 + close: the one thing an over-capacity (or
        // draining) daemon owes a new connection is a fast answer.
        ++stats_.acceptShed;
        serverMetrics().shed.inc();
        HttpResponse resp;
        resp.status = 503;
        resp.close = true;
        resp.extraHeaders.push_back("Retry-After: 1");
        resp.body = errorBody(draining_ ? "draining"
                                        : "connection limit");
        std::string bytes;
        renderResponse(bytes, resp);
        (void)conn->transport->write(bytes.data(), bytes.size());
        conn->transport->close();
        return;
    }
    ++stats_.accepted;
    serverMetrics().accepted.inc();
    conns_.push_back(std::move(conn));
    serverMetrics().connections.set(
        static_cast<double>(conns_.size()));
    didWork_ = true;
}

void
Server::acceptPhase()
{
    if (listener_ == nullptr || draining_)
        return;
    for (std::size_t i = 0; i < kMaxAcceptsPerStep; ++i) {
        AcceptResult r = listener_->accept();
        if (r.none)
            break;
        if (!r.error.isOk()) {
            // A failed accept (EMFILE, injected chaos) must never
            // stop the daemon; count it and keep serving.
            ++stats_.acceptFailures;
            serverMetrics().acceptFailures.inc();
            warnEvent("server", "accept-failed",
                      {{"error", r.error.message()}});
            continue;
        }
        addConnection(std::move(r.transport),
                      r.clientId.empty() ? "anon"
                                         : std::move(r.clientId));
    }
}

bool
Server::admitBucket(const std::string &client_id)
{
    if (opts_.bucketCapacity <= 0.0)
        return true;
    auto [it, fresh] =
        buckets_.try_emplace(client_id, opts_.bucketCapacity);
    (void)fresh;
    if (it->second < 1.0)
        return false;
    it->second -= 1.0;
    return true;
}

void
Server::tickTokens(double tokens)
{
    for (auto &[id, level] : buckets_)
        level = std::min(opts_.bucketCapacity, level + tokens);
}

void
Server::respond(const std::shared_ptr<Connection> &conn,
                HttpResponse resp)
{
    if (resp.close)
        conn->closeAfterFlush = true;
    renderResponse(conn->writeBuf, resp);
    if (conn->writeBuf.size() - conn->writeOff >
        opts_.maxWriteBufferBytes) {
        // The peer is not reading; holding its responses hostage in
        // RAM is how servers die. Drop it.
        warnEvent("server", "write-buffer-overflow",
                  {{"client", conn->clientId}});
        killConnection(conn);
    }
}

void
Server::killConnection(const std::shared_ptr<Connection> &conn)
{
    if (conn->dead)
        return;
    conn->dead = true;
    conn->transport->close();
    ++stats_.connectionsClosed;
}

void
Server::admit(const std::shared_ptr<Connection> &conn)
{
    while (conn->parser.hasRequest()) {
        ++stats_.requestsAdmitted; // admission *attempts*
        serverMetrics().requests.inc();
        Pending p;
        p.conn = conn;
        p.request = conn->parser.takeRequest();
        p.enqueuedNs = monotonicNs();
        p.rid = strf("c%llu-r%llu", (unsigned long long)conn->id,
                     (unsigned long long)++conn->requestSeq);
        p.admittedStep = stepIndex_;

        // Refusals are answered inline (never queued) and booked
        // under the request's correlation id — a shed request is
        // exactly the availability loss the burn rate must see.
        auto refuse = [&](Verdict verdict, int status, bool close,
                          const char *why) {
            HttpResponse resp;
            resp.status = status;
            resp.close = close;
            resp.extraHeaders.push_back("Retry-After: 1");
            resp.extraHeaders.push_back("X-Request-Id: " + p.rid);
            resp.body = errorBody(why);
            AccessRecord rec = pendingRecord(p, verdict, p.enqueuedNs);
            rec.status = status;
            rec.bodyBytes = resp.body.size();
            respond(conn, std::move(resp));
            book(std::move(rec), 0.0);
        };

        if (draining_) {
            refuse(Verdict::Shed, 503, true, "draining");
        } else if (!admitBucket(conn->clientId)) {
            refuse(Verdict::Throttled, 429, !p.request.keepAlive,
                   "client over admission budget");
        } else if (ready_.size() >= opts_.maxQueueDepth) {
            refuse(Verdict::Shed, 503, !p.request.keepAlive,
                   "request queue is full");
        } else {
            ready_.push_back(std::move(p));
            ++conn->inflight;
            didWork_ = true;
        }
    }
    serverMetrics().queueDepth.set(
        static_cast<double>(ready_.size()));
}

void
Server::readPhase(const std::shared_ptr<Connection> &conn)
{
    if (conn->dead || conn->sawEof || conn->parser.failed())
        return;
    char buf[kReadChunkBytes];
    for (std::size_t i = 0; i < kMaxReadsPerConnPerStep; ++i) {
        IoResult r = conn->transport->read(buf, sizeof(buf));
        if (!r.ok()) {
            killConnection(conn);
            return;
        }
        if (r.eof) {
            conn->sawEof = true;
            break;
        }
        if (r.wouldBlock)
            break;
        if (r.n == 0)
            break;
        didWork_ = true;
        if (Status st = conn->parser.feed(buf, r.n); !st) {
            conn->parseErrorPending = true;
            conn->parseErrorResp.status =
                conn->parser.httpErrorStatus();
            conn->parseErrorResp.close = true;
            conn->parseErrorResp.body = errorBody(st.toString());
            // The trace keeps the parser's reason beside the access
            // record, which has no field for it.
            tracePoint("server.parse",
                       {{"conn", std::to_string(conn->id)},
                        {"peer", conn->clientId},
                        {"error", st.toString()}});
            // Parser poison has no request to number; it is still
            // booked (and folded — a 4xx is not an availability loss,
            // but the stream stays complete).
            AccessRecord rec;
            rec.id = strf("c%llu-parse",
                          (unsigned long long)conn->id);
            rec.peer = conn->clientId;
            rec.status = conn->parseErrorResp.status;
            rec.bodyBytes = conn->parseErrorResp.body.size();
            rec.step = stepIndex_;
            rec.verdict = Verdict::Parse;
            book(std::move(rec), 0.0);
            break;
        }
    }
    admit(conn);
    // A peer that half-closed mid-request will never complete it;
    // drop the carcass once every admitted request is answered.
    if (conn->sawEof && conn->inflight == 0 &&
        !conn->parseErrorPending &&
        conn->writeBuf.size() == conn->writeOff) {
        killConnection(conn);
    }
}

ServiceReply
Server::invokeService(const HttpRequest &req)
{
    if (opts_.requestDeadlineGranules > 0) {
        Deadline dl =
            Deadline::afterGranules(opts_.requestDeadlineGranules);
        ScopedDeadline scope(dl);
        return service_.handle(req);
    }
    if (opts_.requestDeadlineMs > 0.0) {
        Deadline dl = Deadline::afterMillis(opts_.requestDeadlineMs);
        ScopedDeadline scope(dl);
        return service_.handle(req);
    }
    return service_.handle(req);
}

void
Server::handlePhase()
{
    std::size_t budget = opts_.maxRequestsPerStep;
    while (budget-- > 0 && !ready_.empty()) {
        Pending p = std::move(ready_.front());
        ready_.pop_front();
        didWork_ = true;
        if (p.conn->dead) {
            // The client hung up after admission; the work is moot.
            book(pendingRecord(p, Verdict::Dropped, monotonicNs()), 0.0);
            continue;
        }
        --p.conn->inflight;

        // The request's one span wraps the handler (so service spans
        // nest under it) and the booking (so slo.event points do);
        // its fields are the access record's, written once.
        std::uint64_t handleStartNs = monotonicNs();
        TraceSpan span("server.request");
        AccessRecord rec = pendingRecord(p, Verdict::Ok, handleStartNs);
        HttpResponse resp;
        resp.close = !p.request.keepAlive;
        try {
            ServiceReply reply = invokeService(p.request);
            resp.status = reply.status;
            resp.contentType = reply.contentType;
            resp.body = std::move(reply.body);
        } catch (const DeadlineExceeded &e) {
            resp.status = 504;
            resp.body = errorBody(e.what());
            rec.verdict = Verdict::Deadline;
        } catch (const std::exception &e) {
            resp.status = 500;
            resp.body = errorBody("internal error");
            rec.verdict = Verdict::Error;
            warnEvent("server", "handler-exception",
                      {{"target", p.request.target},
                       {"what", e.what()}});
        }
        std::uint64_t doneNs = monotonicNs();
        rec.status = resp.status;
        rec.bodyBytes = resp.body.size();
        rec.handleMs =
            static_cast<double>(doneNs - handleStartNs) / 1e6;
        resp.extraHeaders.push_back("X-Request-Id: " + p.rid);
        respond(p.conn, std::move(resp));
        if (span.active()) {
            span.field("request_id", rec.id);
            span.field("peer", rec.peer);
            span.field("method", rec.method);
            span.field("path", rec.path);
            span.field("status", static_cast<std::int64_t>(rec.status));
            span.field("bytes",
                       static_cast<std::uint64_t>(rec.bodyBytes));
        }
        book(std::move(rec),
             static_cast<double>(doneNs - p.enqueuedNs) / 1e6);
    }
    serverMetrics().queueDepth.set(
        static_cast<double>(ready_.size()));
}

void
Server::flushPhase(const std::shared_ptr<Connection> &conn)
{
    if (conn->dead)
        return;
    if (conn->parseErrorPending && conn->inflight == 0) {
        conn->parseErrorPending = false;
        respond(conn, std::move(conn->parseErrorResp));
        if (conn->dead)
            return;
    }
    while (conn->writeOff < conn->writeBuf.size()) {
        IoResult r = conn->transport->write(
            conn->writeBuf.data() + conn->writeOff,
            conn->writeBuf.size() - conn->writeOff);
        if (!r.ok() || r.eof) {
            killConnection(conn);
            return;
        }
        if (r.wouldBlock || r.n == 0)
            break;
        conn->writeOff += r.n;
        didWork_ = true;
    }
    if (conn->writeOff == conn->writeBuf.size()) {
        conn->writeBuf.clear();
        conn->writeOff = 0;
        if (conn->closeAfterFlush ||
            (conn->sawEof && conn->inflight == 0)) {
            killConnection(conn);
        }
    }
}

bool
Server::step()
{
    // Only sample with the profiler whose sites we registered: a
    // profiler swapped into the bundle mid-flight would be indexed
    // with stale site ids (see registeredProfiler_).
    SamplingProfiler *prof =
        observatory_ != nullptr &&
                observatory_->profiler == registeredProfiler_
            ? registeredProfiler_
            : nullptr;
    ++stepIndex_;
    didWork_ = false;
    {
        SamplingProfiler::Scope scope(prof, siteAccept_);
        acceptPhase();
    }
    {
        // Iterate over a snapshot: phases may mark connections dead
        // but never add while iterating.
        SamplingProfiler::Scope scope(prof, siteRead_);
        for (std::size_t i = 0; i < conns_.size(); ++i)
            readPhase(conns_[i]);
    }
    {
        SamplingProfiler::Scope scope(prof, siteHandle_);
        handlePhase();
    }
    {
        SamplingProfiler::Scope scope(prof, siteFlush_);
        for (std::size_t i = 0; i < conns_.size(); ++i)
            flushPhase(conns_[i]);
    }
    std::size_t before = conns_.size();
    conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                                [](const auto &c) {
                                    return c->dead;
                                }),
                 conns_.end());
    if (conns_.size() != before) {
        didWork_ = true;
        serverMetrics().connections.set(
            static_cast<double>(conns_.size()));
    }
    return didWork_;
}

void
Server::beginDrain()
{
    if (draining_)
        return;
    draining_ = true;
    service_.onDrain();
    TraceSpan span("server.drain-begin");
    inform("server: drain started");
}

bool
Server::drained() const
{
    if (!draining_)
        return false;
    if (!ready_.empty())
        return false;
    for (const auto &conn : conns_) {
        if (conn->dead)
            continue;
        if (conn->inflight > 0 || conn->parseErrorPending ||
            conn->writeOff < conn->writeBuf.size())
            return false;
    }
    return true;
}

void
Server::abortConnections()
{
    for (auto &conn : conns_)
        killConnection(conn);
    std::uint64_t now = monotonicNs();
    for (const Pending &p : ready_)
        book(pendingRecord(p, Verdict::Dropped, now), 0.0);
    ready_.clear();
    conns_.clear();
    serverMetrics().connections.set(0.0);
    serverMetrics().queueDepth.set(0.0);
}

std::size_t
Server::openConnections() const
{
    std::size_t n = 0;
    for (const auto &conn : conns_) {
        if (!conn->dead)
            ++n;
    }
    return n;
}

} // namespace tomur::serve
