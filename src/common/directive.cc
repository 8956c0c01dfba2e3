#include "common/directive.hh"

#include <sstream>

namespace tomur {

DirectiveArgs::DirectiveArgs(const char *input, int lineno,
                             std::string_view line)
    : input_(input), lineno_(lineno)
{
    std::istringstream in(std::string(line.substr(0, line.find('#'))));
    in >> directive_;
    for (std::string token; in >> token;) {
        auto eq = token.find('=');
        if (eq == std::string::npos || eq == 0) {
            fail("expected key=value, found '" + token + "'");
            return;
        }
        std::string key = token.substr(0, eq);
        for (const auto &seen : args_) {
            if (seen.key == key) {
                fail("duplicate key '" + key + "'");
                return;
            }
        }
        args_.push_back({std::move(key), token.substr(eq + 1)});
    }
}

int
DirectiveArgs::name(const char *key, int def,
                    std::span<const char *const> names)
{
    const std::string *text = take(key);
    if (!text) {
        if (def < 0 && error_.isOk())
            fail(strf("%s needs %s=", directive_.c_str(), key));
        return def;
    }
    for (std::size_t i = 0; i < names.size(); ++i) {
        if (*text == names[i])
            return static_cast<int>(i);
    }
    failValue(key, *text, "a known name");
    return def;
}

Status
DirectiveArgs::finish() const
{
    if (!error_.isOk())
        return error_;
    for (const auto &arg : args_) {
        if (!arg.read) {
            return Status::invalidArgument(
                strf("%s line %d: %s does not take key '%s'", input_,
                     lineno_, directive_.c_str(), arg.key.c_str()));
        }
    }
    return Status::ok();
}

const std::string *
DirectiveArgs::take(const char *key)
{
    if (!error_.isOk())
        return nullptr;
    for (auto &arg : args_) {
        if (arg.key == key) {
            arg.read = true;
            return &arg.value;
        }
    }
    return nullptr;
}

void
DirectiveArgs::failValue(const char *key, const std::string &value,
                         const std::string &expected)
{
    fail(strf("%s %s='%s' is not %s", directive_.c_str(), key,
              value.c_str(), expected.c_str()));
}

void
DirectiveArgs::fail(const std::string &what)
{
    if (error_.isOk()) {
        error_ = Status::invalidArgument(
            strf("%s line %d: %s", input_, lineno_, what.c_str()));
    }
}

} // namespace tomur
