#include "traffic/synth.hh"

#include <algorithm>
#include <cmath>
#include <istream>

#include "common/directive.hh"
#include "common/strutil.hh"

namespace tomur::traffic {

namespace {

/** Sanity bounds on repeats and phase lengths: generous, meant to
 *  reject garbage that lexes as a number — and to stop a fuzzer from
 *  smuggling in a repeat count that melts the replay — not to police
 *  realistic traffic. */
constexpr int kMaxRepeats = 1000000;
/** Steps per phase directive (period, ramp, hold, decay, churn). */
constexpr int kMaxPhaseSteps = 4096;
constexpr int kMaxCycles = 64;
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
    while (std::getline(in, line)) {
        ++lineno;
        DirectiveArgs args("scenario", lineno, line);
        const std::string &directive = args.directive();
        if (directive.empty())
            continue; // blank / comment-only line
        auto repeats = [&] {
            return args.number("repeats", 1, 1, kMaxRepeats);
        };

        std::vector<SynthStep> more;
        if (directive == "base" || directive == "step") {
            double flows = args.number(
                "flows", static_cast<double>(base.flowCount), 1.0,
                kMaxFlows);
            double size = args.number(
                "size", static_cast<double>(base.packetSize), 1.0,
                kMaxPacketSize);
            double mtbr = args.number("mtbr", base.mtbr, 0.0, kMaxMtbr);
            TrafficProfile p =
                base.withAttribute(Attribute::FlowCount, flows)
                    .withAttribute(Attribute::PacketSize, size)
                    .withAttribute(Attribute::Mtbr, mtbr);
            if (directive == "base")
                base = p;
            else
                more = {{p, repeats()}};
        } else if (directive == "steady") {
            more = steadySteps(base,
                               args.number("n", 20, 1, kMaxRepeats));
        } else if (directive == "diurnal") {
            DiurnalOptions o;
            o.base = base;
            o.amplitude = args.number("amplitude", 0.5, 0.0, 0.99);
            o.period = args.number("period", 32, 2, kMaxPhaseSteps);
            o.cycles = args.number("cycles", 1, 1, kMaxCycles);
            o.repeats = repeats();
            more = diurnalSteps(o);
        } else if (directive == "flash") {
            FlashCrowdOptions o;
            o.base = base;
            o.peak = args.number("peak", 8.0, 1.0, kMaxPeak);
            o.ramp = args.number("ramp", 4, 1, kMaxPhaseSteps);
            o.hold = args.number("hold", 8, 1, kMaxPhaseSteps);
            o.decay = args.number("decay", 4, 1, kMaxPhaseSteps);
            o.repeats = repeats();
            more = flashCrowdSteps(o);
        } else if (directive == "churn") {
            FlowChurnOptions o;
            o.base = base;
            o.fromFlows = args.number("from", 4000.0, 1.0, kMaxFlows);
            o.toFlows = args.number("to", 256000.0, 1.0, kMaxFlows);
            o.steps = args.number("steps", 16, 2, kMaxPhaseSteps);
            o.repeats = repeats();
            more = flowChurnSteps(o);
        } else if (directive == "mtbr_spike") {
            MtbrSpikeOptions o;
            o.base = base;
            o.mtbr = args.number("mtbr", 1100.0, 0.0, kMaxMtbr);
            o.ramp = args.number("ramp", 2, 1, kMaxPhaseSteps);
            o.hold = args.number("hold", 8, 1, kMaxPhaseSteps);
            o.repeats = repeats();
            more = mtbrSpikeSteps(o);
        } else {
            return Status::invalidArgument(
                strf("scenario line %d: unknown directive '%s'",
                     lineno, directive.c_str()));
        }
        if (auto st = args.finish(); !st)
            return st;
        if (steps.size() + more.size() > kMaxScenarioSteps) {
            return Status::invalidArgument(
                strf("scenario line %d: compiled scenario exceeds "
                     "%zu steps",
                     lineno, kMaxScenarioSteps));
        }
        steps.insert(steps.end(), more.begin(), more.end());
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
