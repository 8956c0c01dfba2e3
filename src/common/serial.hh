/**
 * @file
 * Shared text-serialization primitives.
 *
 * Every persistent artifact in the repo (trained models, checkpoint
 * generations, monitor/supervisor state) uses the same line-oriented
 * discipline: magic tokens, max_digits10 doubles so reloads are
 * bit-identical, and FNV-1a 64 checksums over framed bodies.
 *
 * One walk per format. A persisted type defines its format exactly
 * once, as a field walk
 *
 *     template <class Self, class Sink>
 *     static void walk(Self &self, Sink &s);
 *
 * and three sinks run that walk: SerialWriter (Self const) writes
 * the text, SerialDigest (Self const) hashes the same fields, and
 * SerialReader (Self mutable) parses the text back, in the same
 * order. Save, digest and load therefore cannot drift apart.
 *
 * Sink protocol: tag() for a constant keyword; integer() / real() /
 * flag() / text() for values, text() being one whitespace-free token
 * (the empty string travels as "-"); line() for the rest of a line
 * (spaces allowed); enumerated() / keyword() for an enum written as
 * its index / as a name; hexDigest() for a 64-bit digest, written as
 * 16 lowercase hex digits; count() then elements() for a sequence;
 * check() for a validity rule; endLine() after each line. loaded()
 * sets a field a load derives (fitted flags) and present() opens an
 * optional sub-object; both only act when reading.
 *
 * Reader rules. Tokens are whitespace-separated and each one must
 * parse whole into its field's type (an out-of-range integer is an
 * error, not a wrap). A walk sets every field it visits (count()
 * clears a sequence first; present() fills an absent optional), so
 * callers parse into a temporary and commit only on success. count()
 * checks the declared count against the walk's bound, and elements()
 * appends elements as they are read and never sizes a container from
 * the count, so allocation follows the bytes actually read. The first
 * failure latches a CorruptData Status naming the section (the last
 * tag read); every later op is a no-op.
 */

#ifndef TOMUR_COMMON_SERIAL_HH
#define TOMUR_COMMON_SERIAL_HH

#include <charconv>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "common/status.hh"

namespace tomur {

/** FNV-1a 64-bit over a byte string (checksums, key digests). Pass
 *  a previous result as `h` to hash on across a second run. */
std::uint64_t fnv1a64(std::string_view bytes,
                      std::uint64_t h = 0xcbf29ce484222325ULL);

/** Append a double with max_digits10 so a reload is bit-identical.
 *  The bytes equal `stream << std::setprecision(17) << v`. */
void appendSerialDouble(std::string &out, double v);

/** Parse all of `s` into `*v` with from_chars(`fmt`...); false, and
 *  `*v` untouched, unless the whole of `s` is one in-range number. */
template <class T, class... Fmt>
bool
parseWhole(std::string_view s, T *v, Fmt... fmt)
{
    T parsed{};
    const char *end = s.data() + s.size();
    auto res = std::from_chars(s.data(), end, parsed, fmt...);
    if (s.empty() || res.ec != std::errc() || res.ptr != end)
        return false;
    *v = parsed;
    return true;
}

/** The number grammar of every text input (scenario and plan values,
 *  CLI flags, environment variables): all of `s` parses into T by
 *  parseWhole() (so no leading '+', no hex, no spaces; an integer
 *  type takes no fraction or exponent), and lo <= value <= hi. With
 *  finite bounds that also refuses NaN and infinities. False, and
 *  `*v` untouched, otherwise. */
template <class T>
bool
readNumber(std::string_view s, T lo, T hi, T *v)
{
    T parsed{};
    if (!parseWhole(s, &parsed) || !(parsed >= lo && parsed <= hi))
        return false;
    *v = parsed;
    return true;
}

/** Parse a digest as SerialWriter::hexDigest() writes it: exactly 16
 *  lowercase hex digits. */
bool parseHexDigest(std::string_view s, std::uint64_t *v);

/**
 * One kind of checksummed frame: a header line
 *
 *     <magic> <version> <payload-bytes> <fnv1a64-hex>
 *
 * then exactly <payload-bytes> bytes of payload. Model files and
 * checkpoint log frames are both frames; appendFrame() writes one
 * and readFrame() reads and verifies one, for every kind.
 */
struct FrameFormat
{
    std::string_view magic;
    /** The one version this build writes and reads. */
    int version = 0;
    /** Bound on a declared payload length, checked before anything
     *  is sized from it. */
    std::size_t maxBytes = 0;
    /** Names the kind in errors ("model", "checkpoint"). */
    const char *name = "";
};

/** Past any header appendFrame() writes: a frame whose first
 *  newline is not within this many bytes is not a frame. */
constexpr std::size_t kMaxFrameHeaderBytes = 80;

/** Append the frame of the payload `head` + `body` to `out`. The two
 *  parts are hashed as one run, so nothing joins them first. */
void appendFrame(std::string &out, const FrameFormat &format,
                 std::string_view head, std::string_view body = {});

/** A frame readFrame() found at the start of some bytes. */
struct FrameView
{
    /** The payload (valid only when readFrame() returned ok). */
    std::string_view payload;
    /** Header and payload bytes. */
    std::size_t size = 0;
    /** The header's version when its magic and version parsed, else
     *  0; a frame of another version fails, but reports it here. */
    int version = 0;
    /** The bytes end inside the frame (a torn append). */
    bool torn = false;
};

/** Read and verify the frame `bytes` starts with: each header token
 *  whole, the version, the length against the bound, the payload's
 *  presence and its checksum. CorruptData naming the kind otherwise.
 *  Bytes after the frame are not looked at. */
Status readFrame(std::string_view bytes, const FrameFormat &format,
                 FrameView *frame);

/** The ops SerialWriter and SerialDigest share: composites over
 *  their integer() / text() and the reader-only ops as no-ops. */
template <class Out>
class SerialOutput
{
  public:
    void flag(bool b) { out().integer(b ? 1 : 0); }

    template <class E>
    void
    enumerated(E e, int)
    {
        out().integer(static_cast<int>(e));
    }

    template <class E, std::size_t N>
    void
    keyword(E e, const char *const (&names)[N])
    {
        out().text(names[static_cast<std::size_t>(e)]);
    }

    template <class Seq>
    std::size_t
    count(const Seq &seq, std::size_t)
    {
        out().integer(seq.size());
        return seq.size();
    }

    template <class Seq, class Fn>
    void
    elements(const Seq &seq, std::size_t, Fn &&each)
    {
        for (const auto &e : seq)
            each(e);
    }

    void check(bool, const char *) {}

    template <class T, class V> void loaded(const T &, V &&) {}

    template <class T>
    const T &
    present(const std::optional<T> &slot)
    {
        return *slot;
    }

  private:
    Out &out() { return static_cast<Out &>(*this); }
};

/** Appends a walk as text to a string: tokens space-separated,
 *  endLine() a newline. */
class SerialWriter : public SerialOutput<SerialWriter>
{
  public:
    explicit SerialWriter(std::string &out) : out_(out) {}

    void tag(std::string_view t) { token(t); }

    template <std::integral T>
    void
    integer(T v)
    {
        char buf[24];
        auto res = std::to_chars(buf, buf + sizeof(buf), v);
        token({buf, static_cast<std::size_t>(res.ptr - buf)});
    }

    void real(double v);
    void text(std::string_view s) { token(s.empty() ? "-" : s); }
    void line(std::string_view s) { token(s); }
    void hexDigest(std::uint64_t v);
    void endLine();

  private:
    /** Tokens on one line are joined by single spaces. */
    void separate();
    void token(std::string_view s);

    std::string &out_;
    bool lineStart_ = true;
};

/**
 * 64-bit digest of walked fields, one word at a time with no text
 * formatting. Two walks digest equal exactly when SerialWriter would
 * write equal bytes (up to 64-bit collisions): tags are skipped
 * because a walk's structure fixes them, and NaNs are canonicalized
 * because the text format prints every NaN of a sign alike.
 */
class SerialDigest : public SerialOutput<SerialDigest>
{
  public:
    void tag(std::string_view) {}

    template <std::integral T>
    void
    integer(T v)
    {
        mix(static_cast<std::uint64_t>(v));
    }

    void real(double v);
    void text(std::string_view s) { line(s.empty() ? "-" : s); }
    void line(std::string_view s);
    void hexDigest(std::uint64_t v) { mix(v); }
    void endLine() {}

    std::uint64_t value() const { return h_; }

  private:
    void
    mix(std::uint64_t w)
    {
        // splitmix64's finalizer over the chained state: a bijection
        // per step, so distinct sequences collide only by chance.
        std::uint64_t z = h_ ^ w;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        h_ = z ^ (z >> 31);
    }

    std::uint64_t h_ = 0x6a09e667f3bcc909ULL;
};

/**
 * Parses SerialWriter's text back through the same walk (see the
 * reader rules above). Reads straight from the stream's buffer and
 * consumes nothing past the last token's end, so a caller can read
 * on from the stream afterwards.
 */
class SerialReader
{
  public:
    explicit SerialReader(std::istream &in);

    /** Require keyword `t` (a string literal); it names the section
     *  in any later error. */
    void tag(const char *t);

    template <std::integral T>
    void
    integer(T &v)
    {
        number(v, "an integer");
    }

    void real(double &v) { number(v, "a number"); }
    void flag(bool &b);
    void text(std::string &s);
    void line(std::string &s);
    void hexDigest(std::uint64_t &v);
    void endLine() {}

    template <class E>
    void
    enumerated(E &e, int n)
    {
        int v = 0;
        integer(v);
        check(v >= 0 && v < n, "enum value out of range");
        if (ok())
            e = static_cast<E>(v);
    }

    template <class E, std::size_t N>
    void
    keyword(E &e, const char *const (&names)[N])
    {
        if (!token())
            return;
        for (std::size_t i = 0; i < N; ++i) {
            if (tok_ == names[i]) {
                e = static_cast<E>(i);
                return;
            }
        }
        failToken("a known keyword");
    }

    template <class Seq>
    std::size_t
    count(Seq &seq, std::size_t max)
    {
        seq.clear();
        std::size_t n = 0;
        integer(n);
        check(n <= max, "count exceeds its bound");
        return ok() ? n : 0;
    }

    template <class Seq, class Fn>
    void
    elements(Seq &seq, std::size_t n, Fn &&each)
    {
        for (std::size_t i = 0; i < n && ok(); ++i) {
            seq.emplace_back();
            each(seq.back());
        }
    }

    void check(bool cond, const char *what)
    {
        if (!cond)
            fail(what);
    }

    template <class T, class V>
    void
    loaded(T &field, V &&v)
    {
        field = std::forward<V>(v);
    }

    template <class T>
    T &
    present(std::optional<T> &slot)
    {
        if (!slot)
            slot.emplace();
        return *slot;
    }

    bool ok() const { return status_.isOk(); }
    const Status &status() const { return status_; }

  private:
    /** Next whitespace-delimited token into tok_; false (latching a
     *  failure at end of input) when there is none. */
    bool token();
    void fail(const std::string &what);
    void failToken(const char *expected);

    /** Parse the next token, whole, into `v`. */
    template <class T>
    void
    number(T &v, const char *expected)
    {
        if (token() && !parseWhole(tok_, &v))
            failToken(expected);
    }

    std::streambuf &in_;
    std::string tok_;
    const char *section_ = "start";
    Status status_;
};

} // namespace tomur

#endif // TOMUR_COMMON_SERIAL_HH
