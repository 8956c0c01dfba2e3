/**
 * @file
 * Hardened incremental HTTP/1.1 request parsing + response rendering
 * for the serving daemon.
 *
 * Threat model: the bytes come from an untrusted, possibly hostile or
 * half-broken client over a transport that tears requests mid-byte.
 * Accordingly:
 *
 *  - the parser is incremental — feed() accepts any split of the
 *    stream, one byte at a time if the transport insists, and never
 *    over-reads past the current request;
 *  - every dimension a client controls is capped (request-line bytes,
 *    header bytes and count, body bytes) and the caps are checked
 *    *before* bytes are buffered, so a hostile Content-Length or an
 *    endless header can never drive allocation;
 *  - malformed input poisons the parser with a Status (and an HTTP
 *    status to answer with) — it never throws, crashes, or silently
 *    resynchronizes on garbage;
 *  - pipelined requests are supported: completed requests queue up
 *    and leftover bytes seed the next parse.
 *
 * Only the subset the daemon needs is implemented: GET/POST,
 * Content-Length bodies (no chunked encoding), Connection handling.
 * Everything else is rejected deterministically, which for a
 * robustness-first server is a feature.
 */

#ifndef TOMUR_SERVE_HTTP_HH
#define TOMUR_SERVE_HTTP_HH

#include <cstddef>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hh"

namespace tomur::serve {

/** One parsed request. */
struct HttpRequest
{
    std::string method;  ///< "GET", "POST", ...
    std::string target;  ///< path + optional query ("/predict")
    std::string body;    ///< exactly Content-Length bytes
    bool keepAlive = true;
    /** Lower-cased name -> value, in arrival order. */
    std::vector<std::pair<std::string, std::string>> headers;

    /** Header value by lower-case name ("" when absent). */
    std::string header(const std::string &name) const;
    /** Path without the query string. */
    std::string path() const;
    /** Query parameter value by name ("" when absent). */
    std::string queryParam(const std::string &name) const;
};

/** Client-controlled dimensions and their caps. */
struct ParserLimits
{
    std::size_t maxRequestLineBytes = 4096;
    std::size_t maxHeaderBytes = 8192; ///< all header lines together
    std::size_t maxHeaders = 64;
    std::size_t maxBodyBytes = 1 << 20;
};

/**
 * Incremental request parser. feed() consumes any prefix of the
 * stream; completed requests are popped with takeRequest(). A
 * malformed stream poisons the parser permanently — the connection
 * must answer with httpErrorStatus() and close.
 */
class HttpRequestParser
{
  public:
    explicit HttpRequestParser(ParserLimits limits = {});

    /**
     * Consume `n` bytes. Returns ok() while the stream is healthy
     * (complete requests may now be pending); returns the poisoning
     * error otherwise. Feeding a poisoned parser keeps returning the
     * same error and buffers nothing.
     */
    Status feed(const char *data, std::size_t n);

    /** A complete request is ready to take. */
    bool hasRequest() const { return !ready_.empty(); }

    /** Pop the oldest completed request (call only when
     *  hasRequest()). */
    HttpRequest takeRequest();

    /** True once the stream is poisoned. */
    bool failed() const { return !error_.isOk(); }
    const Status &error() const { return error_; }

    /** HTTP status to answer a poisoned stream with (400 malformed,
     *  413 oversized body, 431 oversized line/headers, 505 bad
     *  version, 501 unsupported encoding). */
    int httpErrorStatus() const { return httpStatus_; }

    /** Mid-request: bytes consumed toward an incomplete request.
     *  Used by drain logic to tell an idle keep-alive connection
     *  from one that stopped mid-request. */
    bool midRequest() const;

  private:
    enum class State { RequestLine, Headers, Body };

    Status poison(int http_status, Status why);
    Status parseRequestLine(const std::string &line);
    Status parseHeaderLine(const std::string &line);
    Status finishHeaders();

    ParserLimits limits_;
    State state_ = State::RequestLine;
    std::string buf_;          ///< unconsumed stream bytes
    HttpRequest cur_;
    std::size_t headerBytes_ = 0;
    std::size_t bodyExpected_ = 0;
    bool sawContentLength_ = false;
    std::deque<HttpRequest> ready_;
    Status error_ = Status::ok();
    int httpStatus_ = 0;
};

/** One response to render. */
struct HttpResponse
{
    int status = 200;
    std::string contentType = "application/json";
    std::string body;
    bool close = false; ///< emit "Connection: close"
    /** Extra headers, rendered verbatim ("Retry-After: 1"). */
    std::vector<std::string> extraHeaders;
};

/** Reason phrase for the status codes the daemon emits. */
const char *httpStatusText(int status);

/** Append a response's wire bytes (HTTP/1.1, Content-Length
 *  framing) to `out`. */
void renderResponse(std::string &out, const HttpResponse &resp);

/** Map a Status from a service handler onto an HTTP status. */
int httpStatusFor(StatusCode code);

/** {"error":"..."} body for an error response. */
std::string errorBody(const std::string &message);

} // namespace tomur::serve

#endif // TOMUR_SERVE_HTTP_HH
