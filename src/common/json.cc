#include "common/json.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "common/strutil.hh"

namespace tomur {

const JsonValue *
JsonValue::find(std::string_view key) const
{
    for (std::size_t i = 0; i < keys_.size(); ++i) {
        if (keys_[i] == key)
            return &items_[i];
    }
    return nullptr;
}

/** Recursive-descent reader over one document; the first fault stops
 *  it and becomes the returned Status. */
class JsonParser
{
  public:
    explicit JsonParser(std::string_view text) : s_(text) {}

    Status
    document(JsonValue &out)
    {
        if (Status st = value(out, 0); !st)
            return st;
        skipSpace();
        return atEnd() ? Status::ok()
                       : fail("trailing characters after the value");
    }

  private:
    Status
    fail(const std::string &why) const
    {
        return Status::invalidArgument(
            strf("malformed JSON at byte %zu: %s", pos_, why.c_str()));
    }

    bool atEnd() const { return pos_ >= s_.size(); }
    bool at(char c) const { return !atEnd() && s_[pos_] == c; }

    void
    skipSpace()
    {
        while (at(' ') || at('\t') || at('\n') || at('\r'))
            ++pos_;
    }

    /** Consume a run of digits; false when there is none. */
    bool
    digits()
    {
        std::size_t from = pos_;
        while (!atEnd() && s_[pos_] >= '0' && s_[pos_] <= '9')
            ++pos_;
        return pos_ > from;
    }

    Status
    value(JsonValue &out, int depth)
    {
        if (++values_ > kJsonMaxValues)
            return fail(strf("more than %zu values", kJsonMaxValues));
        skipSpace();
        if (atEnd())
            return fail("unexpected end of input");
        char c = s_[pos_];
        if (c == '{' || c == '[') {
            if (depth >= kJsonMaxDepth)
                return fail(strf("nesting deeper than %d levels",
                                 kJsonMaxDepth));
            return container(out, depth + 1);
        }
        if (c == '"') {
            out.kind_ = JsonValue::Kind::String;
            return string(out.string_);
        }
        if (c == '-' || (c >= '0' && c <= '9'))
            return number(out);
        if (c == '+')
            return fail("a number may not start with '+'");
        for (std::string_view word : {"true", "false", "null"}) {
            if (s_.substr(pos_, word.size()) == word) {
                out.kind_ = c == 'n' ? JsonValue::Kind::Null
                                     : JsonValue::Kind::Bool;
                out.bool_ = c == 't';
                pos_ += word.size();
                return Status::ok();
            }
        }
        if (c == 't' || c == 'f' || c == 'n')
            return fail("invalid literal (NaN and Inf are not JSON)");
        return fail(strf("unexpected character 0x%02x",
                         static_cast<unsigned char>(c)));
    }

    Status
    number(JsonValue &out)
    {
        const std::size_t start = pos_;
        if (at('-'))
            ++pos_;
        if (at('0'))
            ++pos_;
        else if (!digits())
            return fail("expected a digit");
        if (at('.') && (++pos_, !digits()))
            return fail("expected a digit after '.'");
        if (at('e') || at('E')) {
            ++pos_;
            if (at('+') || at('-'))
                ++pos_;
            if (!digits())
                return fail("expected a digit in the exponent");
        }
        // The token is grammar-checked, so strtod reads all of it;
        // underflow rounds toward zero, overflow is refused.
        out.kind_ = JsonValue::Kind::Number;
        std::string token(s_.substr(start, pos_ - start));
        out.number_ = std::strtod(token.c_str(), nullptr);
        if (std::isinf(out.number_))
            return fail("number overflows a double");
        return Status::ok();
    }

    /** The code unit of a `uXXXX` escape body. */
    bool
    hex4(unsigned &unit)
    {
        if (!at('u') || s_.size() - pos_ < 5)
            return false;
        const char *p = s_.data() + pos_ + 1;
        auto [end, ec] = std::from_chars(p, p + 4, unit, 16);
        pos_ += 5;
        return ec == std::errc() && end == p + 4;
    }

    /** A \u escape as UTF-8: a UTF-16 surrogate pair is one code
     *  point, a lone surrogate is refused. */
    Status
    unicodeEscape(std::string &out)
    {
        unsigned cp = 0, low = 0;
        if (!hex4(cp))
            return fail("\\u needs four hex digits");
        if (cp >= 0xd800 && cp <= 0xdbff) {
            if (!at('\\') || (++pos_, !hex4(low)) || low < 0xdc00 ||
                low > 0xdfff)
                return fail("unpaired UTF-16 surrogate");
            cp = 0x10000 + ((cp - 0xd800) << 10) + (low - 0xdc00);
        } else if (cp >= 0xdc00 && cp <= 0xdfff) {
            return fail("unpaired UTF-16 surrogate");
        }
        static const unsigned lead[4] = {0x00, 0xc0, 0xe0, 0xf0};
        int tail = cp < 0x80 ? 0 : cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
        out.push_back(
            static_cast<char>(lead[tail] | (cp >> (6 * tail))));
        for (int i = tail - 1; i >= 0; --i)
            out.push_back(
                static_cast<char>(0x80 | ((cp >> (6 * i)) & 0x3f)));
        return Status::ok();
    }

    Status
    string(std::string &out)
    {
        static const char kEscapes[] = "\"\\/bfnrt";
        static const char kDecoded[] = "\"\\/\b\f\n\r\t";
        ++pos_; // opening quote
        while (true) {
            std::size_t run = pos_;
            while (run < s_.size() && s_[run] != '"' &&
                   s_[run] != '\\' &&
                   static_cast<unsigned char>(s_[run]) >= 0x20)
                ++run;
            out.append(s_.data() + pos_, run - pos_);
            pos_ = run;
            if (atEnd())
                return fail("unterminated string");
            char c = s_[pos_++];
            if (c == '"')
                return Status::ok();
            if (c != '\\')
                return fail("unescaped control character in string");
            if (atEnd())
                return fail("unterminated string");
            const char *hit = std::strchr(kEscapes, s_[pos_]);
            if (s_[pos_] != '\0' && hit != nullptr) {
                out.push_back(kDecoded[hit - kEscapes]);
                ++pos_;
            } else if (!at('u')) {
                return fail("bad escape in string");
            } else if (Status st = unicodeEscape(out); !st) {
                return st;
            }
        }
    }

    /** An array or object: values, each after `"key":` in an object. */
    Status
    container(JsonValue &out, int depth)
    {
        const bool object = s_[pos_++] == '{';
        const char close = object ? '}' : ']';
        out.kind_ = object ? JsonValue::Kind::Object
                           : JsonValue::Kind::Array;
        skipSpace();
        while (!at(close)) {
            if (!out.items_.empty()) {
                if (!at(','))
                    return fail(strf("expected ',' or '%c' in %s", close,
                                     object ? "object" : "array"));
                ++pos_;
            }
            if (object) {
                skipSpace();
                if (!at('"'))
                    return fail("expected a string key");
                if (Status st = string(out.keys_.emplace_back()); !st)
                    return st;
                skipSpace();
                if (!at(':'))
                    return fail("expected ':' after a key");
                ++pos_;
            }
            if (Status st = value(out.items_.emplace_back(), depth); !st)
                return st;
            skipSpace();
            if (atEnd())
                return fail(object ? "unterminated object"
                                   : "unterminated array");
        }
        ++pos_;
        // Sorted, so a hostile many-key body costs n log n, not n^2.
        std::vector<std::string_view> keys(out.keys_.begin(),
                                           out.keys_.end());
        std::sort(keys.begin(), keys.end());
        if (auto dup = std::adjacent_find(keys.begin(), keys.end());
            dup != keys.end())
            return fail("duplicate key '" + std::string(*dup) + "'");
        return Status::ok();
    }

    std::string_view s_;
    std::size_t pos_ = 0;
    std::size_t values_ = 0;
};

Result<JsonValue>
parseJson(std::string_view text)
{
    JsonValue out;
    if (Status st = JsonParser(text).document(out); !st)
        return st;
    return out;
}

} // namespace tomur
