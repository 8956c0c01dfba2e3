/**
 * @file
 * Small string formatting helpers (gcc 12 lacks std::format).
 */

#ifndef TOMUR_COMMON_STRUTIL_HH
#define TOMUR_COMMON_STRUTIL_HH

#include <cstdarg>
#include <string>
#include <string_view>
#include <vector>

namespace tomur {

/** printf-style formatting into a std::string. */
std::string strf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Split on a delimiter character (keeps empty fields). */
std::vector<std::string> split(const std::string &s, char delim);

/** Join with a separator. */
std::string join(const std::vector<std::string> &parts,
                 const std::string &sep);

/** Format a double with the given number of decimals. */
std::string fmtDouble(double v, int decimals = 1);

/** Minimal JSON string escaping (quotes, backslash, control). */
std::string jsonEscape(const std::string &s);

/** Append `s` JSON-escaped as jsonEscape() writes it. */
void appendJsonEscaped(std::string &out, std::string_view s);

/** Append an unsigned integer in decimal (printf's "%llu"). */
void appendUnsigned(std::string &out, unsigned long long v);

/** Append `v` as printf's "%.<decimals>f" writes it. */
void appendFixed(std::string &out, double v, int decimals);

/** Append `v` as printf's "%g" writes it. */
void appendGeneral(std::string &out, double v);

} // namespace tomur

#endif // TOMUR_COMMON_STRUTIL_HH
