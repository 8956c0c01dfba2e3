#include "common/serial.hh"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstring>
#include <istream>
#include <streambuf>

#include "common/strutil.hh"

namespace tomur {

std::uint64_t
fnv1a64(std::string_view bytes, std::uint64_t h)
{
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL; // FNV-1a 64 prime
    }
    return h;
}

void
appendSerialDouble(std::string &out, double v)
{
    // to_chars(general, 17) follows printf's %.17g, which is what
    // ostream << setprecision(17) produced, without the locale and
    // stream-state machinery.
    char buf[32];
    auto res = std::to_chars(buf, buf + sizeof(buf), v,
                             std::chars_format::general, 17);
    out.append(buf, static_cast<std::size_t>(res.ptr - buf));
}

bool
parseHexDigest(std::string_view s, std::uint64_t *v)
{
    return s.size() == 16 &&
           s.find_first_not_of("0123456789abcdef") == s.npos &&
           parseWhole(s, v, 16);
}

void
appendFrame(std::string &out, const FrameFormat &format,
            std::string_view head, std::string_view body)
{
    out += strf("%.*s %d %zu %llx\n", static_cast<int>(format.magic.size()),
                format.magic.data(), format.version,
                head.size() + body.size(),
                static_cast<unsigned long long>(
                    fnv1a64(body, fnv1a64(head))));
    out += head;
    out += body;
}

Status
readFrame(std::string_view bytes, const FrameFormat &format,
          FrameView *frame)
{
    *frame = {};
    const char *name = format.name;
    const std::size_t nl = bytes.substr(0, kMaxFrameHeaderBytes).find('\n');
    if (nl == bytes.npos) {
        frame->torn = bytes.size() < kMaxFrameHeaderBytes &&
                      (bytes.starts_with(format.magic) ||
                       format.magic.starts_with(bytes));
        return Status::corruptData(strf("%s header truncated", name));
    }
    // Exactly four tokens, one space apart, each parsed whole.
    const auto tok = split(std::string(bytes.substr(0, nl)), ' ');
    int version = 0;
    if (tok.size() != 4 || tok[0] != format.magic ||
        !parseWhole(tok[1], &version))
        return Status::corruptData(strf(
            "%s header malformed (expected '%.*s <version> <bytes> "
            "<checksum>')",
            name, static_cast<int>(format.magic.size()),
            format.magic.data()));
    frame->version = version;
    if (version != format.version)
        return Status::corruptData(
            strf("unsupported %s version %d (this build reads version %d)",
                 name, version, format.version));
    std::size_t size = 0;
    std::uint64_t checksum = 0;
    if (!parseWhole(tok[2], &size) || !parseWhole(tok[3], &checksum, 16))
        return Status::corruptData(
            strf("%s header: bad length or checksum token", name));
    if (size == 0 || size > format.maxBytes)
        return Status::corruptData(
            strf("%s header: payload length %zu outside [1, %zu]", name,
                 size, format.maxBytes));
    frame->payload = bytes.substr(nl + 1, size);
    if (frame->payload.size() < size) {
        frame->torn = true;
        return Status::corruptData(
            strf("%s payload truncated: header says %zu bytes, found %zu",
                 name, size, frame->payload.size()));
    }
    if (std::uint64_t got = fnv1a64(frame->payload); got != checksum)
        return Status::corruptData(strf(
            "%s checksum mismatch: payload hashes to %llx, header says "
            "%llx (damaged in transit or storage)",
            name, static_cast<unsigned long long>(got),
            static_cast<unsigned long long>(checksum)));
    frame->size = nl + 1 + size;
    return Status::ok();
}

void
SerialWriter::separate()
{
    if (!lineStart_)
        out_ += ' ';
    lineStart_ = false;
}

void
SerialWriter::token(std::string_view s)
{
    separate();
    out_ += s;
}

void
SerialWriter::real(double v)
{
    separate();
    appendSerialDouble(out_, v);
}

void
SerialWriter::hexDigest(std::uint64_t v)
{
    separate();
    out_ += strf("%016llx", static_cast<unsigned long long>(v));
}

void
SerialWriter::endLine()
{
    out_ += '\n';
    lineStart_ = true;
}

void
SerialDigest::real(double v)
{
    if (std::isnan(v))
        mix(std::signbit(v) ? 0xfff8000000000000ULL
                            : 0x7ff8000000000000ULL);
    else
        mix(std::bit_cast<std::uint64_t>(v));
}

void
SerialDigest::line(std::string_view s)
{
    mix(s.size());
    for (std::size_t i = 0; i < s.size(); i += 8) {
        std::uint64_t w = 0;
        std::memcpy(&w, s.data() + i,
                    std::min<std::size_t>(8, s.size() - i));
        mix(w);
    }
}

namespace {

/** The C locale's isspace, which is what `istream >>` splits on. */
bool
isSpace(int c)
{
    return c == ' ' || (c >= '\t' && c <= '\r');
}

} // namespace

SerialReader::SerialReader(std::istream &in) : in_(*in.rdbuf()) {}

bool
SerialReader::token()
{
    if (!ok())
        return false;
    using Traits = std::streambuf::traits_type;
    int c = in_.sgetc();
    while (c != Traits::eof() && isSpace(c))
        c = in_.snextc();
    tok_.clear();
    while (c != Traits::eof() && !isSpace(c)) {
        tok_.push_back(static_cast<char>(c));
        c = in_.snextc();
    }
    if (tok_.empty()) {
        fail("unexpected end of input");
        return false;
    }
    return true;
}

void
SerialReader::fail(const std::string &what)
{
    if (ok()) {
        status_ = Status::corruptData(
            strf("%s section: %s", section_, what.c_str()));
    }
}

void
SerialReader::failToken(const char *expected)
{
    // Quote at most 32 bytes: a hostile token may be the whole input.
    fail(strf("expected %s, got '%.32s'", expected, tok_.c_str()));
}

void
SerialReader::tag(const char *t)
{
    section_ = t;
    if (token() && tok_ != t)
        failToken(strf("'%s'", t).c_str());
}

void
SerialReader::flag(bool &b)
{
    int v = 0;
    integer(v);
    b = v != 0;
}

void
SerialReader::text(std::string &s)
{
    if (token())
        s = tok_ == "-" ? std::string() : tok_;
}

void
SerialReader::hexDigest(std::uint64_t &v)
{
    if (token() && !parseHexDigest(tok_, &v))
        failToken("a 16-digit hex digest");
}

void
SerialReader::line(std::string &s)
{
    if (!ok())
        return;
    using Traits = std::streambuf::traits_type;
    if (in_.sbumpc() != ' ') {
        fail("expected a space before the line text");
        return;
    }
    s.clear();
    for (int c = in_.sbumpc(); c != '\n'; c = in_.sbumpc()) {
        if (c == Traits::eof()) {
            fail("unterminated line");
            return;
        }
        s.push_back(static_cast<char>(c));
    }
}

} // namespace tomur
