/**
 * @file
 * Fault-injection harness over Testbed measurements.
 *
 * Real SmartNIC profiling runs are not pristine: PMU counters
 * glitch to zero or saturate, a measurement window gets cut short, a
 * co-run batch loses members, throughput readings spike from
 * unrelated host activity, and a multi-tenant accelerator can be
 * persistently degraded by a neighbour. FaultInjectingTestbed wraps
 * an inner Testbed and corrupts its measurements with configurable,
 * seeded (reproducible) fault modes so the training/prediction
 * pipeline can be hardened and its graceful degradation tested —
 * the same role chaos testing plays for a service.
 *
 * The injector only rewrites *measured* fields (throughput +
 * counters); ground-truth fields (truthThroughput, bottleneck, ...)
 * stay intact so tests can always score against the clean truth.
 */

#ifndef TOMUR_SIM_FAULTS_HH
#define TOMUR_SIM_FAULTS_HH

#include <cstddef>
#include <string>

#include "sim/testbed.hh"

namespace tomur::sim {

/** Fault modes, for reporting and per-mode counters. */
enum class FaultMode
{
    DroppedMeasurement, ///< measurement lost (all-zero readings)
    NanCounters,        ///< counter readout returns NaN
    ZeroCounters,       ///< counter glitch: perf counters read zero
    SaturatedCounters,  ///< counters stuck at a saturated sentinel
    ThroughputOutlier,  ///< throughput reading off by a large factor
    TruncatedBatch,     ///< co-run batch loses trailing members
    DegradedAccel,      ///< accelerator persistently degraded
};

constexpr int numFaultModes = 7;

/** Fault mode name for reports. */
const char *faultModeName(FaultMode mode);

/** The bias factors a text input (a CLI flag, a chaos repro file)
 *  may set FaultConfig::biasFactor to. */
constexpr double kMinBiasFactor = 0.01;
constexpr double kMaxBiasFactor = 100.0;

/** Per-mode injection probabilities (all independent, per sample). */
struct FaultConfig
{
    double dropProb = 0.0;     ///< whole measurement lost
    double nanProb = 0.0;      ///< NaN perf counters + throughput
    double zeroProb = 0.0;     ///< zeroed perf counters
    double saturateProb = 0.0; ///< saturated perf counters
    double outlierProb = 0.0;  ///< throughput outlier
    /** Outlier magnitude: throughput is multiplied or divided by a
     *  factor drawn uniformly from [2, outlierFactor]. */
    double outlierFactor = 8.0;
    /** Probability a co-run batch is truncated (loses a uniformly
     *  chosen suffix, possibly the whole batch). */
    double truncateBatchProb = 0.0;

    /** Deterministic degraded-accelerator mode: when enabled, every
     *  measurement of a workload using this accelerator kind has its
     *  throughput scaled by degradedAccelFactor (no randomness —
     *  a degraded engine is degraded for everyone, every time). */
    bool degradedAccelEnabled = false;
    hw::AccelKind degradedAccelKind = hw::AccelKind::Regex;
    double degradedAccelFactor = 0.5;

    /** Deterministic measurement bias: every throughput reading is
     *  scaled by this factor (1.0 = off). Models a systematic level
     *  shift — the workload drifting away from the trained model —
     *  and consumes no randomness, so switching it mid-stream leaves
     *  the injector's fault-draw sequence untouched (the monitor's
     *  drift-detection tests depend on exactly that). */
    double biasFactor = 1.0;

    std::uint64_t seed = 7777;

    /** Chaos hook: when >= 0, run() throws SimulatedCrash after this
     *  many further batches (the counter decrements per run() call;
     *  the throwing call completes no measurement). Simulates a
     *  kill -9 landing mid-replay for crash-resume tests; -1 = off. */
    long crashAfterBatches = -1;

    /** Uniform shorthand: all random corruption modes at rate p
     *  (split evenly across drop/NaN/zero/saturate/outlier, plus
     *  batch truncation at p/2). */
    static FaultConfig uniformCorruption(double p,
                                         std::uint64_t seed = 7777);
};

/** Per-mode injection counters (observability + test assertions). */
struct FaultStats
{
    std::size_t injected[numFaultModes] = {};
    std::size_t measurements = 0; ///< measurements passed through
    std::size_t batches = 0;      ///< run() calls seen

    std::size_t
    total() const
    {
        std::size_t t = 0;
        for (std::size_t c : injected)
            t += c;
        return t;
    }
};

/**
 * A Testbed whose measurements pass through a fault injector.
 *
 * Construct over an inner testbed (which keeps sole ownership of the
 * equilibrium solver and its noise stream; the injector draws from
 * its own seeded Rng so enabling faults never perturbs the inner
 * testbed's measurement-noise sequence). The fault configuration can
 * be swapped at any time, so a harness can profile its bench library
 * cleanly and only then turn faults on.
 */
class FaultInjectingTestbed : public Testbed
{
  public:
    FaultInjectingTestbed(Testbed &inner, FaultConfig config = {});

    std::vector<Measurement>
    run(const std::vector<framework::WorkloadProfile> &workloads)
        override;

    /**
     * Warm the *inner* testbed's solve cache. Fault injection sits
     * above the memoization layer: prewarming solves draws no noise
     * and injects no faults, so every subsequent run() still passes
     * through corrupt() with a fresh fault draw — a cached solve can
     * never replay a corrupted (or clean) reading.
     */
    void prewarm(
        const std::vector<std::vector<framework::WorkloadProfile>>
            &batch) override;

    /** Replace the fault configuration (keeps the Rng stream).
     *  Injection counters reset so stats() reflects only the new
     *  config — per-plan fault accounting in chaos campaigns depends
     *  on reconfigure starting from a clean ledger. */
    void
    setConfig(const FaultConfig &config)
    {
        config_ = config;
        resetStats();
    }
    const FaultConfig &faultConfig() const { return config_; }

    /** Injection counters so far. */
    const FaultStats &stats() const { return stats_; }
    void resetStats() { stats_ = FaultStats{}; }

    /** Snapshot / restore the fault-draw stream for checkpointing
     *  (resume must replay the exact same fault sequence). */
    RngState faultRngState() const { return rng_.state(); }
    void setFaultRngState(const RngState &st) { rng_.setState(st); }

  private:
    void corrupt(Measurement &m, bool uses_degraded_accel);

    Testbed &inner_;
    FaultConfig config_;
    FaultStats stats_;
    Rng rng_;
};

} // namespace tomur::sim

#endif // TOMUR_SIM_FAULTS_HH
