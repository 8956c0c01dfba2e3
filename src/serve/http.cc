#include "serve/http.hh"

#include <algorithm>
#include <cctype>

#include "common/strutil.hh"

namespace tomur::serve {

namespace {

std::string
toLower(std::string s)
{
    for (char &c : s)
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    return s;
}

/** Strip one trailing '\r' (lines are split on '\n'). */
void
chompCr(std::string &line)
{
    if (!line.empty() && line.back() == '\r')
        line.pop_back();
}

/** HTTP token characters (RFC 9110 tchar, the subset that matters). */
bool
isTokenChar(char c)
{
    unsigned char u = static_cast<unsigned char>(c);
    return std::isalnum(u) || c == '-' || c == '_' || c == '.' ||
           c == '!' || c == '#' || c == '$' || c == '%' ||
           c == '&' || c == '\'' || c == '*' || c == '+' ||
           c == '^' || c == '`' || c == '|' || c == '~';
}

/** Printable ASCII (targets, header values must not smuggle
 *  control bytes into logs or responses). */
bool
isPrintable(char c)
{
    unsigned char u = static_cast<unsigned char>(c);
    return u >= 0x20 && u < 0x7f;
}

std::string
trimSpace(const std::string &s)
{
    std::size_t b = s.find_first_not_of(" \t");
    if (b == std::string::npos)
        return "";
    std::size_t e = s.find_last_not_of(" \t");
    return s.substr(b, e - b + 1);
}

/**
 * Strict non-negative integer parse for Content-Length: digits only,
 * no sign, no whitespace, and an overflow guard well under the point
 * where the value could matter (the caller caps it far lower anyway).
 */
Result<std::size_t>
parseContentLength(const std::string &s)
{
    if (s.empty() || s.size() > 12)
        return Status::invalidArgument(
            "Content-Length is empty or absurdly long");
    std::size_t v = 0;
    for (char c : s) {
        if (c < '0' || c > '9')
            return Status::invalidArgument(
                "Content-Length is not a plain integer");
        v = v * 10 + static_cast<std::size_t>(c - '0');
    }
    return v;
}

} // namespace

// ---------------------------------------------------------------
// HttpRequest
// ---------------------------------------------------------------

std::string
HttpRequest::header(const std::string &name) const
{
    for (const auto &[k, v] : headers) {
        if (k == name)
            return v;
    }
    return "";
}

std::string
HttpRequest::path() const
{
    std::size_t q = target.find('?');
    return q == std::string::npos ? target : target.substr(0, q);
}

std::string
HttpRequest::queryParam(const std::string &name) const
{
    std::size_t q = target.find('?');
    if (q == std::string::npos)
        return "";
    for (const auto &kv : split(target.substr(q + 1), '&')) {
        std::size_t eq = kv.find('=');
        if (eq == std::string::npos) {
            if (kv == name)
                return "1";
            continue;
        }
        if (kv.substr(0, eq) == name)
            return kv.substr(eq + 1);
    }
    return "";
}

// ---------------------------------------------------------------
// HttpRequestParser
// ---------------------------------------------------------------

HttpRequestParser::HttpRequestParser(ParserLimits limits)
    : limits_(limits)
{
}

bool
HttpRequestParser::midRequest() const
{
    return state_ != State::RequestLine || !buf_.empty();
}

Status
HttpRequestParser::poison(int http_status, Status why)
{
    error_ = std::move(why);
    httpStatus_ = http_status;
    buf_.clear();
    buf_.shrink_to_fit();
    cur_ = HttpRequest{};
    return error_;
}

Status
HttpRequestParser::feed(const char *data, std::size_t n)
{
    if (failed())
        return error_;
    buf_.append(data, n);

    for (;;) {
        if (state_ == State::Body) {
            // Append only bytes that actually arrived; bodyExpected_
            // was validated against maxBodyBytes before we got here,
            // so this loop can never buffer more than the cap.
            std::size_t need = bodyExpected_ - cur_.body.size();
            std::size_t take = std::min(need, buf_.size());
            cur_.body.append(buf_, 0, take);
            buf_.erase(0, take);
            if (cur_.body.size() < bodyExpected_)
                return Status::ok(); // wait for more bytes
            ready_.push_back(std::move(cur_));
            cur_ = HttpRequest{};
            state_ = State::RequestLine;
            headerBytes_ = 0;
            bodyExpected_ = 0;
            sawContentLength_ = false;
            continue;
        }

        // Line-oriented states. Cap the unterminated prefix before
        // looking for the newline so an endless line cannot grow the
        // buffer unboundedly.
        std::size_t cap = state_ == State::RequestLine
                              ? limits_.maxRequestLineBytes
                              : limits_.maxHeaderBytes;
        std::size_t nl = buf_.find('\n');
        if (nl == std::string::npos) {
            if (buf_.size() > cap) {
                return poison(
                    431, Status::invalidArgument(strf(
                             "unterminated %s exceeds %zu bytes",
                             state_ == State::RequestLine
                                 ? "request line"
                                 : "header line",
                             cap)));
            }
            return Status::ok(); // wait for more bytes
        }
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        chompCr(line);

        if (state_ == State::RequestLine) {
            if (line.empty())
                continue; // tolerate blank lines between requests
            if (line.size() > limits_.maxRequestLineBytes) {
                return poison(431,
                              Status::invalidArgument(
                                  "request line exceeds the cap"));
            }
            if (Status st = parseRequestLine(line); !st)
                return st;
            state_ = State::Headers;
            continue;
        }

        // State::Headers
        headerBytes_ += line.size() + 1;
        if (headerBytes_ > limits_.maxHeaderBytes) {
            return poison(431, Status::invalidArgument(strf(
                                   "headers exceed %zu bytes",
                                   limits_.maxHeaderBytes)));
        }
        if (line.empty()) {
            if (Status st = finishHeaders(); !st)
                return st;
            state_ = State::Body;
            continue;
        }
        if (cur_.headers.size() >= limits_.maxHeaders) {
            return poison(431,
                          Status::invalidArgument(strf(
                              "more than %zu headers",
                              limits_.maxHeaders)));
        }
        if (Status st = parseHeaderLine(line); !st)
            return st;
    }
}

Status
HttpRequestParser::parseRequestLine(const std::string &line)
{
    for (char c : line) {
        if (!isPrintable(c)) {
            return poison(400,
                          Status::invalidArgument(
                              "control byte in request line"));
        }
    }
    std::size_t sp1 = line.find(' ');
    std::size_t sp2 =
        sp1 == std::string::npos ? std::string::npos
                                 : line.find(' ', sp1 + 1);
    if (sp1 == std::string::npos || sp2 == std::string::npos ||
        line.find(' ', sp2 + 1) != std::string::npos) {
        return poison(400, Status::invalidArgument(
                               "request line is not "
                               "'METHOD TARGET VERSION'"));
    }
    std::string method = line.substr(0, sp1);
    std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
    std::string version = line.substr(sp2 + 1);

    if (method.empty() || method.size() > 16 ||
        !std::all_of(method.begin(), method.end(), isTokenChar)) {
        return poison(400, Status::invalidArgument(
                               "malformed HTTP method"));
    }
    if (target.empty() || target[0] != '/') {
        return poison(400, Status::invalidArgument(
                               "target must start with '/'"));
    }
    if (version == "HTTP/1.1") {
        cur_.keepAlive = true;
    } else if (version == "HTTP/1.0") {
        cur_.keepAlive = false;
    } else {
        return poison(505, Status::invalidArgument(
                               "unsupported HTTP version '" +
                               version + "'"));
    }
    cur_.method = std::move(method);
    cur_.target = std::move(target);
    return Status::ok();
}

Status
HttpRequestParser::parseHeaderLine(const std::string &line)
{
    std::size_t colon = line.find(':');
    if (colon == std::string::npos || colon == 0) {
        return poison(400, Status::invalidArgument(
                               "header line without 'Name:'"));
    }
    std::string name = line.substr(0, colon);
    if (!std::all_of(name.begin(), name.end(), isTokenChar)) {
        return poison(400, Status::invalidArgument(
                               "malformed header name"));
    }
    std::string value = trimSpace(line.substr(colon + 1));
    for (char c : value) {
        if (!isPrintable(c) && c != '\t') {
            return poison(400, Status::invalidArgument(
                               "control byte in header value"));
        }
    }
    cur_.headers.emplace_back(toLower(std::move(name)),
                              std::move(value));
    return Status::ok();
}

Status
HttpRequestParser::finishHeaders()
{
    bodyExpected_ = 0;
    sawContentLength_ = false;
    for (const auto &[name, value] : cur_.headers) {
        if (name == "content-length") {
            // Duplicate Content-Length is the classic request-
            // smuggling vector; reject rather than pick one.
            if (sawContentLength_) {
                return poison(400,
                              Status::invalidArgument(
                                  "duplicate Content-Length"));
            }
            auto len = parseContentLength(value);
            if (!len)
                return poison(400, len.status());
            if (len.value() > limits_.maxBodyBytes) {
                return poison(
                    413, Status::invalidArgument(strf(
                             "body of %zu bytes exceeds the %zu "
                             "byte cap",
                             len.value(), limits_.maxBodyBytes)));
            }
            bodyExpected_ = len.value();
            sawContentLength_ = true;
        } else if (name == "transfer-encoding") {
            return poison(501,
                          Status::invalidArgument(
                              "chunked transfer encoding is not "
                              "supported"));
        } else if (name == "connection") {
            std::string v = toLower(value);
            if (v == "close")
                cur_.keepAlive = false;
            else if (v == "keep-alive")
                cur_.keepAlive = true;
        }
    }
    return Status::ok();
}

HttpRequest
HttpRequestParser::takeRequest()
{
    HttpRequest r = std::move(ready_.front());
    ready_.pop_front();
    return r;
}

// ---------------------------------------------------------------
// Responses
// ---------------------------------------------------------------

const char *
httpStatusText(int status)
{
    switch (status) {
      case 200: return "OK";
      case 400: return "Bad Request";
      case 404: return "Not Found";
      case 405: return "Method Not Allowed";
      case 409: return "Conflict";
      case 413: return "Payload Too Large";
      case 429: return "Too Many Requests";
      case 431: return "Request Header Fields Too Large";
      case 500: return "Internal Server Error";
      case 501: return "Not Implemented";
      case 503: return "Service Unavailable";
      case 504: return "Gateway Timeout";
      case 505: return "HTTP Version Not Supported";
      default:  return "Unknown";
    }
}

void
renderResponse(std::string &out, const HttpResponse &resp)
{
    out += "HTTP/1.1 ";
    out += std::to_string(resp.status);
    out += ' ';
    out += httpStatusText(resp.status);
    out += "\r\nContent-Type: ";
    out += resp.contentType;
    out += "\r\nContent-Length: ";
    appendUnsigned(out, resp.body.size());
    out += "\r\n";
    for (const auto &h : resp.extraHeaders) {
        out += h;
        out += "\r\n";
    }
    if (resp.close)
        out += "Connection: close\r\n";
    out += "\r\n";
    out += resp.body;
}

int
httpStatusFor(StatusCode code)
{
    switch (code) {
      case StatusCode::Ok:                 return 200;
      case StatusCode::InvalidArgument:    return 400;
      case StatusCode::CorruptData:        return 400;
      case StatusCode::NotFound:           return 404;
      case StatusCode::FailedPrecondition: return 409;
      case StatusCode::Unavailable:        return 503;
      case StatusCode::IoError:            return 500;
    }
    return 500;
}

std::string
errorBody(const std::string &message)
{
    return "{\"error\":\"" + jsonEscape(message) + "\"}";
}

} // namespace tomur::serve
