/**
 * @file
 * The one reader of key=value text lines, which scenario scripts
 * (traffic/synth.hh) and chaos repro files (chaos/plan.hh) are made
 * of:
 *
 *     <directive> key=value key=value ...   # comment
 */

#ifndef TOMUR_COMMON_DIRECTIVE_HH
#define TOMUR_COMMON_DIRECTIVE_HH

#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/serial.hh"
#include "common/status.hh"
#include "common/strutil.hh"

namespace tomur {

/** What readNumber(s, lo, hi, ...) asks for, for an error message:
 *  "an integer in [0, 65535]", "a finite number in [0, 1]". */
template <class T>
std::string
expectedNumber(T lo, T hi)
{
    if constexpr (std::is_integral_v<T>) {
        return "an integer in [" + std::to_string(lo) + ", " +
               std::to_string(hi) + "]";
    } else {
        return strf("a finite number in [%g, %g]", lo, hi);
    }
}

/**
 * One directive line. The constructor strips the `#` comment, splits
 * the whitespace-separated tokens and refuses a token without `=`,
 * an empty key and a repeated key. Each accessor reads one key (its
 * default when the key is absent) and checks its range before the
 * value is used. The first error latches as "<input> line N: ..."
 * and later accessors return their defaults; finish() returns it, or
 * refuses a key that no accessor read.
 */
class DirectiveArgs
{
  public:
    /** Line `lineno` of an `input` ("scenario", "plan"). */
    DirectiveArgs(const char *input, int lineno, std::string_view line);

    /** The first token; empty for a blank or comment-only line. */
    const std::string &directive() const { return directive_; }

    /** The key's value by readNumber() into T, within [lo, hi]. */
    template <class T>
    T
    number(const char *key, T def, std::type_identity_t<T> lo,
           std::type_identity_t<T> hi)
    {
        T v = def;
        const std::string *text = take(key);
        if (text && !readNumber<T>(*text, lo, hi, &v))
            failValue(key, *text, expectedNumber<T>(lo, hi));
        return v;
    }

    /** The index of the key's value in `names`; `def` when the key
     *  is absent, which a negative `def` refuses. */
    int name(const char *key, int def,
             std::span<const char *const> names);

    Status finish() const;

  private:
    struct Arg
    {
        std::string key;
        std::string value;
        bool read = false;
    };

    /** The key's value, marked read; null when it is absent or an
     *  error has latched. */
    const std::string *take(const char *key);
    void failValue(const char *key, const std::string &value,
                   const std::string &expected);
    void fail(const std::string &what);

    const char *input_;
    int lineno_;
    std::string directive_;
    std::vector<Arg> args_;
    Status error_;
};

} // namespace tomur

#endif // TOMUR_COMMON_DIRECTIVE_HH
