/**
 * @file
 * The one JSON reader: strict RFC 8259, no options.
 *
 * Every JSON the program reads goes through parseJson — request
 * bodies in serve/, artifact lines in the report renderer — so there
 * is one grammar and one set of refusals:
 *
 *  - duplicate keys in an object;
 *  - anything but whitespace after the value;
 *  - NaN, Inf, a leading '+', and numbers that overflow a double;
 *  - unterminated strings, raw control characters and bad escapes;
 *  - nesting deeper than kJsonMaxDepth (the recursion bound);
 *  - more than kJsonMaxValues values (the memory bound).
 *
 * Strings decode `\" \\ \/ \b \f \n \r \t \uXXXX` (surrogate pairs to
 * UTF-8); other bytes, including every byte >= 0x80, pass through
 * unchanged, so whatever jsonEscape writes reads back byte for byte.
 * Work is n log n in the input, recursion is bounded by kJsonMaxDepth
 * and the tree by kJsonMaxValues; byte size is the caller's to bound
 * (request bodies are capped by the HTTP parser).
 */

#ifndef TOMUR_COMMON_JSON_HH
#define TOMUR_COMMON_JSON_HH

#include <string>
#include <string_view>
#include <vector>

#include "common/status.hh"

namespace tomur {

/** Arrays and objects nested deeper than this are refused. */
constexpr int kJsonMaxDepth = 64;

/** A document with more values than this is refused, so the tree a
 *  1 MiB body parses into stays smaller than the body; artifact lines
 *  and request bodies hold a few dozen. */
constexpr std::size_t kJsonMaxValues = 4096;

/** One parsed JSON value. */
class JsonValue
{
  public:
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isObject() const { return kind_ == Kind::Object; }

    /** The scalar, or false / 0 / "" for a value of another kind. */
    bool asBool() const { return bool_; }
    double asNumber() const { return number_; }
    const std::string &asString() const { return string_; }

    /** An array's elements, or an object's member values in
     *  document order (empty for scalars). */
    const std::vector<JsonValue> &items() const { return items_; }
    /** An object's member names, parallel to items(). */
    const std::vector<std::string> &keys() const { return keys_; }

    /** Member `key` of this object — the top level only, never a
     *  nested object's. Null when absent or not an object. */
    const JsonValue *find(std::string_view key) const;

  private:
    friend class JsonParser;

    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<std::string> keys_;
    std::vector<JsonValue> items_;
};

/** Parse one complete JSON document. InvalidArgument names the first
 *  fault and its byte offset. */
Result<JsonValue> parseJson(std::string_view text);

} // namespace tomur

#endif // TOMUR_COMMON_JSON_HH
