#include "traffic/synth.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <istream>
#include <map>
#include <set>
#include <sstream>

#include "common/strutil.hh"

namespace tomur::traffic {

namespace {

/** Sanity bounds on profile values and repeats: generous, meant to
 *  reject garbage that lexes as a number — and to stop a fuzzer from
 *  smuggling in a profile or repeat count that melts the replay —
 *  not to police realistic traffic. */
constexpr double kMaxFlows = 1e9;
constexpr double kMaxPacketSize = 1e6;
constexpr double kMaxMtbr = 1e12;
constexpr double kMaxRepeats = 1e6;
/** Steps per phase directive (period, ramp, hold, decay, churn). */
constexpr double kMaxPhaseSteps = 4096;
constexpr double kMaxCycles = 64;
constexpr double kMaxPeak = 1000.0;
/** Whole-scenario step budget: bounds the compiled vector (and with
 *  kMaxRepeats the total sample count) no matter what the script
 *  says. */
constexpr std::size_t kMaxScenarioSteps = 100000;

double
clampFlows(double flows)
{
    return std::clamp(flows, 1.0, kMaxFlows);
}

double
clampMtbr(double mtbr)
{
    return std::clamp(mtbr, 0.0, kMaxMtbr);
}

TrafficProfile
withFlows(const TrafficProfile &base, double flows)
{
    return base.withAttribute(Attribute::FlowCount,
                              clampFlows(flows));
}

/** Strict full-token numeric parse: the whole token must be one
 *  finite number (no trailing junk, no partial reads). */
bool
parseNumberToken(const std::string &token, double *out)
{
    const char *begin = token.c_str();
    char *end = nullptr;
    double v = std::strtod(begin, &end);
    if (end == begin || *end != '\0' || !std::isfinite(v))
        return false;
    *out = v;
    return true;
}

/** The key=value arguments of one directive line, with range-checked
 *  typed accessors that accumulate the first error. */
class DirectiveArgs
{
  public:
    DirectiveArgs(int lineno, std::string directive)
        : lineno_(lineno), directive_(std::move(directive))
    {
    }

    Status add(const std::string &token)
    {
        auto eq = token.find('=');
        if (eq == std::string::npos || eq == 0) {
            return Status::invalidArgument(
                strf("scenario line %d: expected key=value, "
                     "found '%s'",
                     lineno_, token.c_str()));
        }
        std::string key = token.substr(0, eq);
        std::string val = token.substr(eq + 1);
        if (values_.count(key)) {
            return Status::invalidArgument(
                strf("scenario line %d: duplicate key '%s'",
                     lineno_, key.c_str()));
        }
        double v = 0.0;
        if (!parseNumberToken(val, &v)) {
            return Status::invalidArgument(
                strf("scenario line %d: %s value '%s' is not a "
                     "finite number",
                     lineno_, key.c_str(), val.c_str()));
        }
        values_[key] = v;
        return Status::ok();
    }

    /** Range-checked fetch; absent keys yield the default. */
    double num(const char *key, double def, double lo, double hi)
    {
        auto it = values_.find(key);
        double v = it == values_.end() ? def : it->second;
        if (!error_.isOk())
            return v;
        if (v < lo || v > hi) {
            error_ = Status::invalidArgument(
                strf("scenario line %d: %s %s out of range "
                     "[%g, %g]",
                     lineno_, directive_.c_str(), key, lo, hi));
        }
        consumed_.insert(key);
        return v;
    }

    /** Like num() but requires an integral value. */
    int integer(const char *key, int def, double lo, double hi)
    {
        double v = num(key, static_cast<double>(def), lo, hi);
        if (error_.isOk() && v != std::floor(v)) {
            error_ = Status::invalidArgument(
                strf("scenario line %d: %s %s must be an integer",
                     lineno_, directive_.c_str(), key));
        }
        return static_cast<int>(v);
    }

    /** First range/type error, or an unknown-key error: every key on
     *  the line must have been consumed by an accessor. */
    Status finish() const
    {
        if (!error_.isOk())
            return error_;
        for (const auto &kv : values_) {
            if (!consumed_.count(kv.first)) {
                return Status::invalidArgument(
                    strf("scenario line %d: %s does not take "
                         "key '%s'",
                         lineno_, directive_.c_str(),
                         kv.first.c_str()));
            }
        }
        return Status::ok();
    }

  private:
    int lineno_;
    std::string directive_;
    std::map<std::string, double> values_;
    std::set<std::string> consumed_;
    Status error_ = Status::ok();
};

} // namespace

std::size_t
scenarioSamples(const std::vector<SynthStep> &steps)
{
    std::size_t n = 0;
    for (const auto &s : steps)
        n += static_cast<std::size_t>(s.repeats);
    return n;
}

std::vector<SynthStep>
diurnalSteps(const DiurnalOptions &opts)
{
    std::vector<SynthStep> out;
    double base = static_cast<double>(opts.base.flowCount);
    for (int c = 0; c < opts.cycles; ++c) {
        for (int i = 0; i < opts.period; ++i) {
            double phase = 2.0 * M_PI * static_cast<double>(i) /
                           static_cast<double>(opts.period);
            double flows =
                base * (1.0 + opts.amplitude * std::sin(phase));
            out.push_back(
                {withFlows(opts.base, flows), opts.repeats});
        }
    }
    return out;
}

std::vector<SynthStep>
flashCrowdSteps(const FlashCrowdOptions &opts)
{
    std::vector<SynthStep> out;
    double base = static_cast<double>(opts.base.flowCount);
    for (int i = 1; i <= opts.ramp; ++i) {
        double m = 1.0 + (opts.peak - 1.0) *
                             static_cast<double>(i) /
                             static_cast<double>(opts.ramp);
        out.push_back({withFlows(opts.base, base * m), opts.repeats});
    }
    for (int i = 0; i < opts.hold; ++i) {
        out.push_back(
            {withFlows(opts.base, base * opts.peak), opts.repeats});
    }
    for (int i = 1; i <= opts.decay; ++i) {
        double m = opts.peak + (1.0 - opts.peak) *
                                   static_cast<double>(i) /
                                   static_cast<double>(opts.decay);
        out.push_back({withFlows(opts.base, base * m), opts.repeats});
    }
    return out;
}

std::vector<SynthStep>
flowChurnSteps(const FlowChurnOptions &opts)
{
    std::vector<SynthStep> out;
    for (int i = 0; i < opts.steps; ++i) {
        double frac = opts.steps == 1
                          ? 0.0
                          : static_cast<double>(i) /
                                static_cast<double>(opts.steps - 1);
        double flows = opts.fromFlows +
                       (opts.toFlows - opts.fromFlows) * frac;
        out.push_back({withFlows(opts.base, flows), opts.repeats});
    }
    return out;
}

std::vector<SynthStep>
mtbrSpikeSteps(const MtbrSpikeOptions &opts)
{
    std::vector<SynthStep> out;
    double base = opts.base.mtbr;
    auto at = [&](double mtbr) {
        return SynthStep{opts.base.withAttribute(Attribute::Mtbr,
                                                 clampMtbr(mtbr)),
                         opts.repeats};
    };
    for (int i = 1; i <= opts.ramp; ++i) {
        out.push_back(at(base + (opts.mtbr - base) *
                                    static_cast<double>(i) /
                                    static_cast<double>(opts.ramp)));
    }
    for (int i = 0; i < opts.hold; ++i)
        out.push_back(at(opts.mtbr));
    for (int i = 1; i <= opts.ramp; ++i) {
        out.push_back(at(opts.mtbr +
                         (base - opts.mtbr) *
                             static_cast<double>(i) /
                             static_cast<double>(opts.ramp)));
    }
    return out;
}

std::vector<SynthStep>
steadySteps(const TrafficProfile &base, int samples)
{
    return {{base, samples}};
}

std::vector<SynthStep>
defaultComposite(const TrafficProfile &base)
{
    std::vector<SynthStep> out = steadySteps(base, 40);
    auto append = [&](std::vector<SynthStep> steps) {
        out.insert(out.end(), steps.begin(), steps.end());
    };
    DiurnalOptions diurnal;
    diurnal.base = base;
    diurnal.amplitude = 0.6;
    diurnal.period = 24;
    append(diurnalSteps(diurnal));
    append(steadySteps(base, 10));
    FlashCrowdOptions flash;
    flash.base = base;
    flash.peak = 6.0;
    flash.ramp = 3;
    flash.hold = 6;
    flash.decay = 3;
    append(flashCrowdSteps(flash));
    append(steadySteps(base, 10));
    MtbrSpikeOptions spike;
    spike.base = base;
    spike.mtbr = 1100.0;
    spike.ramp = 2;
    spike.hold = 8;
    append(mtbrSpikeSteps(spike));
    append(steadySteps(base, 20));
    return out;
}

Result<std::vector<SynthStep>>
parseScenario(std::istream &in)
{
    std::vector<SynthStep> steps;
    TrafficProfile base = TrafficProfile::defaults();
    std::string line;
    int lineno = 0;

    auto append = [&](std::vector<SynthStep> more) -> Status {
        if (steps.size() + more.size() > kMaxScenarioSteps) {
            return Status::invalidArgument(
                strf("scenario line %d: compiled scenario exceeds "
                     "%zu steps",
                     lineno, kMaxScenarioSteps));
        }
        steps.insert(steps.end(), more.begin(), more.end());
        return Status::ok();
    };

    while (std::getline(in, line)) {
        ++lineno;
        auto hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        std::istringstream ss(line);
        std::vector<std::string> tokens;
        std::string tok;
        while (ss >> tok)
            tokens.push_back(tok);
        if (tokens.empty())
            continue; // blank / comment-only line

        DirectiveArgs args(lineno, tokens[0]);
        for (std::size_t i = 1; i < tokens.size(); ++i) {
            if (auto st = args.add(tokens[i]); !st)
                return st;
        }

        const std::string &directive = tokens[0];
        Status appended = Status::ok();
        if (directive == "base") {
            double flows =
                args.num("flows",
                         static_cast<double>(base.flowCount), 1.0,
                         kMaxFlows);
            double size =
                args.num("size",
                         static_cast<double>(base.packetSize), 1.0,
                         kMaxPacketSize);
            double mtbr =
                args.num("mtbr", base.mtbr, 0.0, kMaxMtbr);
            if (auto st = args.finish(); !st)
                return st;
            base = base.withAttribute(Attribute::FlowCount, flows)
                       .withAttribute(Attribute::PacketSize, size)
                       .withAttribute(Attribute::Mtbr, mtbr);
        } else if (directive == "steady") {
            int n = args.integer("n", 20, 1.0, kMaxRepeats);
            if (auto st = args.finish(); !st)
                return st;
            appended = append(steadySteps(base, n));
        } else if (directive == "diurnal") {
            DiurnalOptions o;
            o.base = base;
            o.amplitude = args.num("amplitude", 0.5, 0.0, 0.99);
            o.period = args.integer("period", 32, 2.0,
                                    kMaxPhaseSteps);
            o.cycles = args.integer("cycles", 1, 1.0, kMaxCycles);
            o.repeats =
                args.integer("repeats", 1, 1.0, kMaxRepeats);
            if (auto st = args.finish(); !st)
                return st;
            appended = append(diurnalSteps(o));
        } else if (directive == "flash") {
            FlashCrowdOptions o;
            o.base = base;
            o.peak = args.num("peak", 8.0, 1.0, kMaxPeak);
            o.ramp =
                args.integer("ramp", 4, 1.0, kMaxPhaseSteps);
            o.hold =
                args.integer("hold", 8, 1.0, kMaxPhaseSteps);
            o.decay =
                args.integer("decay", 4, 1.0, kMaxPhaseSteps);
            o.repeats =
                args.integer("repeats", 1, 1.0, kMaxRepeats);
            if (auto st = args.finish(); !st)
                return st;
            appended = append(flashCrowdSteps(o));
        } else if (directive == "churn") {
            FlowChurnOptions o;
            o.base = base;
            o.fromFlows = args.num("from", 4000.0, 1.0, kMaxFlows);
            o.toFlows = args.num("to", 256000.0, 1.0, kMaxFlows);
            o.steps =
                args.integer("steps", 16, 2.0, kMaxPhaseSteps);
            o.repeats =
                args.integer("repeats", 1, 1.0, kMaxRepeats);
            if (auto st = args.finish(); !st)
                return st;
            appended = append(flowChurnSteps(o));
        } else if (directive == "mtbr_spike") {
            MtbrSpikeOptions o;
            o.base = base;
            o.mtbr = args.num("mtbr", 1100.0, 0.0, kMaxMtbr);
            o.ramp =
                args.integer("ramp", 2, 1.0, kMaxPhaseSteps);
            o.hold =
                args.integer("hold", 8, 1.0, kMaxPhaseSteps);
            o.repeats =
                args.integer("repeats", 1, 1.0, kMaxRepeats);
            if (auto st = args.finish(); !st)
                return st;
            appended = append(mtbrSpikeSteps(o));
        } else if (directive == "step") {
            double flows =
                args.num("flows",
                         static_cast<double>(base.flowCount), 1.0,
                         kMaxFlows);
            double size =
                args.num("size",
                         static_cast<double>(base.packetSize), 1.0,
                         kMaxPacketSize);
            double mtbr =
                args.num("mtbr", base.mtbr, 0.0, kMaxMtbr);
            int repeats =
                args.integer("repeats", 1, 1.0, kMaxRepeats);
            if (auto st = args.finish(); !st)
                return st;
            SynthStep step;
            step.profile =
                base.withAttribute(Attribute::FlowCount, flows)
                    .withAttribute(Attribute::PacketSize, size)
                    .withAttribute(Attribute::Mtbr, mtbr);
            step.repeats = repeats;
            appended = append({step});
        } else {
            return Status::invalidArgument(
                strf("scenario line %d: unknown directive '%s'",
                     lineno, directive.c_str()));
        }
        if (!appended)
            return appended;
    }
    if (steps.empty())
        return Status::invalidArgument("scenario has no steps");
    return steps;
}

std::string
emitScenario(const std::vector<SynthStep> &steps)
{
    std::string out = "# tomur scenario (canonical form)\n";
    for (const auto &s : steps) {
        out += strf("step flows=%llu size=%llu mtbr=%.17g "
                    "repeats=%d\n",
                    (unsigned long long)s.profile.flowCount,
                    (unsigned long long)s.profile.packetSize,
                    s.profile.mtbr, s.repeats);
    }
    return out;
}

} // namespace tomur::traffic
