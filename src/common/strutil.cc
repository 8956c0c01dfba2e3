#include "common/strutil.hh"

#include <charconv>
#include <cstdio>
#include <sstream>

#include "common/logging.hh"

namespace tomur {

std::string
strf(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list args2;
    va_copy(args2, args);
    int n = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);
    std::string out;
    if (n > 0) {
        out.resize(static_cast<std::size_t>(n) + 1);
        std::vsnprintf(out.data(), out.size(), fmt, args2);
        out.resize(static_cast<std::size_t>(n));
    }
    va_end(args2);
    return out;
}

std::vector<std::string>
split(const std::string &s, char delim)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : s) {
        if (c == delim) {
            out.push_back(cur);
            cur.clear();
        } else {
            cur.push_back(c);
        }
    }
    out.push_back(cur);
    return out;
}

std::string
join(const std::vector<std::string> &parts, const std::string &sep)
{
    std::string out;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        if (i)
            out += sep;
        out += parts[i];
    }
    return out;
}

std::string
fmtDouble(double v, int decimals)
{
    return strf("%.*f", decimals, v);
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    appendJsonEscaped(out, s);
    return out;
}

void
appendJsonEscaped(std::string &out, std::string_view s)
{
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += strf("\\u%04x", c);
            else
                out.push_back(c);
        }
    }
}

void
appendUnsigned(std::string &out, unsigned long long v)
{
    char buf[24];
    auto res = std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, res.ptr);
}

// std::to_chars with a precision formats as printf does in the "C"
// locale: chars_format::fixed as "%.*f", general as "%.*g".

void
appendFixed(std::string &out, double v, int decimals)
{
    // DBL_MAX has 309 integer digits; room for a sign, the point and
    // the decimals a caller asks for.
    char buf[400];
    auto res = std::to_chars(buf, buf + sizeof(buf), v,
                             std::chars_format::fixed, decimals);
    if (res.ec != std::errc())
        panic("appendFixed: too many decimals");
    out.append(buf, res.ptr);
}

void
appendGeneral(std::string &out, double v)
{
    char buf[32];
    auto res = std::to_chars(buf, buf + sizeof(buf), v,
                             std::chars_format::general, 6);
    out.append(buf, res.ptr);
}

} // namespace tomur
