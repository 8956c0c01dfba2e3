/**
 * @file
 * Nonstationary traffic synthesis: composable generators that turn a
 * base TrafficProfile into a schedule of profile steps exercising the
 * dynamics the paper's traffic-aware claim must survive — diurnal
 * load curves, flash crowds, flow-churn ramps that thrash NAT/LB flow
 * tables, and MTBR spikes (regex-heavy adversarial payloads) — plus a
 * small scenario-script DSL that compiles to the same step list.
 *
 * Everything here is deterministic (no RNG, no wall clock): a
 * scenario is a pure function of its script/options, so the replay
 * layers above (tomur/monitor, tomur/supervisor) keep their
 * width-invariant event-stream contract.
 *
 * The DSL is the one text format for a replay schedule: a literal
 * schedule is a list of `step flows= size= mtbr= repeats=` lines.
 *
 * Layering: traffic/ sits below tomur/, so steps are expressed as
 * SynthStep (profile + repeats); tomur::core::toSchedule() lowers
 * them onto the ScheduleStep list that core::runAutopilot replays.
 */

#ifndef TOMUR_TRAFFIC_SYNTH_HH
#define TOMUR_TRAFFIC_SYNTH_HH

#include <iosfwd>
#include <vector>

#include "common/status.hh"
#include "traffic/profile.hh"

namespace tomur::traffic {

/** One schedule step: hold `profile` for `repeats` samples (one
 *  `step` line of a scenario script). Mirrors core::ScheduleStep
 *  without the layering cycle. */
struct SynthStep
{
    TrafficProfile profile;
    int repeats = 1;

    bool operator==(const SynthStep &o) const = default;
};

/** Total sample count of a step list (sum of repeats). */
std::size_t scenarioSamples(const std::vector<SynthStep> &steps);

// ---------------------------------------------------------------
// Generators (each is one scenario "family")
// ---------------------------------------------------------------

/** Diurnal load curve: flow count follows one sinusoidal cycle per
 *  `period` steps, `cycles` times, swinging `amplitude` of the base
 *  flow count in each direction. */
struct DiurnalOptions
{
    TrafficProfile base;
    double amplitude = 0.5; ///< fraction of base flows, in [0, 0.99]
    int period = 32;        ///< steps per cycle
    int cycles = 1;
    int repeats = 1; ///< samples per step
};
std::vector<SynthStep> diurnalSteps(const DiurnalOptions &opts);

/** Flash crowd: flow count ramps to `peak`x base, holds, decays. */
struct FlashCrowdOptions
{
    TrafficProfile base;
    double peak = 8.0; ///< multiplier at the crest
    int ramp = 4;      ///< steps climbing to the peak
    int hold = 8;      ///< steps at the peak
    int decay = 4;     ///< steps back down to base
    int repeats = 1;
};
std::vector<SynthStep> flashCrowdSteps(const FlashCrowdOptions &opts);

/** Flow-churn ramp: flow count sweeps linearly fromFlows -> toFlows
 *  across `steps` points (a NAT/LB flow-table thrash pattern). */
struct FlowChurnOptions
{
    TrafficProfile base;
    double fromFlows = 4000.0;
    double toFlows = 256000.0;
    int steps = 16;
    int repeats = 1;
};
std::vector<SynthStep> flowChurnSteps(const FlowChurnOptions &opts);

/** MTBR spike: match-to-byte ratio ramps to `mtbr` (regex-heavy
 *  adversarial payloads), holds, ramps back to base. */
struct MtbrSpikeOptions
{
    TrafficProfile base;
    double mtbr = 1100.0; ///< matches/MB at the spike
    int ramp = 2;         ///< steps up (and again down)
    int hold = 8;         ///< steps at the spike
    int repeats = 1;
};
std::vector<SynthStep> mtbrSpikeSteps(const MtbrSpikeOptions &opts);

/** Stationary phase: `samples` samples at `base`. */
std::vector<SynthStep> steadySteps(const TrafficProfile &base,
                                   int samples);

/** The stress composite the CLI `replay` command runs by default:
 *  steady -> diurnal -> flash crowd -> MTBR spike -> steady. */
std::vector<SynthStep>
defaultComposite(const TrafficProfile &base);

// ---------------------------------------------------------------
// Scenario-script DSL
// ---------------------------------------------------------------

/**
 * Parse a scenario script. One directive per line, `key=value`
 * arguments in any order, '#' comments and blank lines ignored:
 *
 *   base flows=16000 size=1500 mtbr=600   # set the base profile
 *   steady n=40                           # n samples at base
 *   diurnal period=32 cycles=2 amplitude=0.5 [repeats=1]
 *   flash peak=8 ramp=4 hold=8 decay=4 [repeats=1]
 *   churn from=4000 to=256000 steps=16 [repeats=1]
 *   mtbr_spike mtbr=1100 ramp=2 hold=8 [repeats=1]
 *   step flows=F size=S mtbr=M [repeats=1]   # one literal step
 *
 * All-or-nothing: any unknown directive/key, non-numeric value, or
 * out-of-range argument rejects the whole script with a descriptive
 * Status. A script that emits no steps is an error.
 */
Result<std::vector<SynthStep>> parseScenario(std::istream &in);

/** Canonical lowered form: one `step` line per SynthStep. The output
 *  reparses to an equal step list (parse -> emit -> parse is the
 *  identity), which the DSL fuzz tests pin. */
std::string emitScenario(const std::vector<SynthStep> &steps);

} // namespace tomur::traffic

#endif // TOMUR_TRAFFIC_SYNTH_HH
