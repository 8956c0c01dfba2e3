/**
 * @file
 * Offline profiling and training harness (Appendix F.2).
 *
 * BenchLibrary profiles the synthetic competitors once (their
 * contention levels are reusable across all target NFs). TomurTrainer
 * then builds a TomurModel for a target NF: memory-model training
 * data via adaptive/random/full profiling against mem-bench,
 * accelerator-model calibration against regex-/compression-bench,
 * and black-box execution-pattern detection.
 */

#ifndef TOMUR_TOMUR_PROFILER_HH
#define TOMUR_TOMUR_PROFILER_HH

#include <map>
#include <memory>

#include "nfs/bench_nfs.hh"
#include "sim/testbed.hh"
#include "tomur/predictor.hh"

namespace tomur::core {

/**
 * Profiled synthetic competitors (one-time effort, reused by every
 * target NF).
 */
class BenchLibrary
{
  public:
    /** One mem-bench configuration with its measured contention. */
    struct MemBenchEntry
    {
        nfs::MemBenchConfig config;
        framework::WorkloadProfile workload;
        ContentionLevel level;
    };

    /** One accelerator-bench configuration. */
    struct AccelBenchEntry
    {
        hw::AccelKind kind = hw::AccelKind::Regex;
        double requestRate = 0.0; ///< 0 = closed loop
        double serviceTime = 0.0; ///< measured per-request time
        framework::WorkloadProfile workload;
        ContentionLevel level;
    };

    BenchLibrary(sim::Testbed &testbed,
                 const framework::DeviceSet &devices,
                 const regex::RuleSet &rules);

    /** All profiled mem-bench contention levels. */
    const std::vector<MemBenchEntry> &memBenches() const
    {
        return memBenches_;
    }

    /** A uniformly random mem-bench entry. */
    const MemBenchEntry &randomMemBench(Rng &rng) const;

    /**
     * An accelerator bench at the given offered rate and traffic.
     * Entries are profiled on first use and cached.
     * @param rate offered request rate, 0 for closed loop
     * @param mtbr bench traffic MTBR (regex) — controls its service
     *        time; for compression, packet size plays this role
     */
    const AccelBenchEntry &accelBench(hw::AccelKind kind, double rate,
                                      double mtbr);

    /** Competitors a deployment is watched against, with the
     *  contention levels the model reads for them. */
    struct Reference
    {
        std::vector<ContentionLevel> levels;
        std::vector<framework::WorkloadProfile> workloads;
    };

    /**
     * Reference contention for workload `w`: the heaviest large-WSS
     * mem-bench (highest cache access rate at >= 12 MiB WSS), then,
     * in AccelKind order, a moderate open-loop bench (150k req/s) on
     * each accelerator `w` uses. The diagnose, monitor, autopilot,
     * serve and chaos paths all place their target against it.
     */
    Reference referenceContention(const framework::WorkloadProfile &w);

    sim::Testbed &testbed() { return testbed_; }
    const regex::RuleSet &rules() const { return rules_; }
    const framework::DeviceSet &devices() const { return devices_; }

  private:
    sim::Testbed &testbed_;
    framework::DeviceSet devices_;
    regex::RuleSet rules_;
    std::vector<MemBenchEntry> memBenches_;
    std::map<std::tuple<int, double, double>, AccelBenchEntry>
        accelCache_;
};

/** Sampling strategies for memory-model training data (§7.6). */
enum class SamplingStrategy
{
    Adaptive, ///< Algorithm 1
    Random,   ///< same quota, uniform random traffic + contention
    Full,     ///< dense 7^3 grid, 3 co-runs per point (reference)
};

/**
 * Measurement screening / retry policy (the robustness layer).
 *
 * Every training measurement passes a plausibility screen (finite,
 * positive, complete co-run batch, damage ratio below a physical
 * ceiling); a sample that fails is re-measured up to a fixed retry
 * budget and abandoned (with a structured WARN) if it never passes.
 * The screen constants (profiler.cc) are chosen so a fault-free
 * testbed never triggers a retry — clean profiling runs pay nothing
 * for it.
 *
 * Suspiciously low damage ratios (below verifyBelowRatio) can
 * additionally be verified by repetition: the deployment is
 * re-measured and the readings screened by median absolute
 * deviation, keeping the median — a faulted low outlier disagrees
 * with its re-measurements, a genuinely heavy contention level
 * reproduces. verifyBelowRatio = 0 (default) disables this extra
 * cost; enable it when profiling on a faulty testbed.
 */
struct ScreenOptions
{
    /** Verify-by-repetition threshold (0 disables). */
    double verifyBelowRatio = 0.0;
};

/** Training options. */
struct TrainOptions
{
    SamplingStrategy sampling = SamplingStrategy::Adaptive;
    AdaptiveOptions adaptive{};
    MemoryModelOptions memory{};
    ScreenOptions screen{};
    std::uint64_t seed = 99;
};

/** Training report (profiling cost bookkeeping for Table 8, plus
 *  fault-screen accounting). */
struct TrainReport
{
    std::size_t memorySamples = 0;
    std::size_t accelCalibrationRuns = 0;
    std::vector<traffic::Attribute> keptAttributes;

    /** Measurements rejected by the plausibility/MAD screens. */
    std::size_t faultySamplesDetected = 0;
    /** Extra measurements spent re-measuring faulted samples. */
    std::size_t retriesUsed = 0;
    /** Samples given up on after the retry budget ran out. */
    std::size_t samplesAbandoned = 0;
    /** Sub-models that could not be trained/calibrated (the model
     *  was marked degraded instead of aborting the run). */
    std::size_t subModelsDegraded = 0;
};

/**
 * Builds TomurModels against a testbed and bench library.
 */
class TomurTrainer
{
  public:
    TomurTrainer(BenchLibrary &library);

    /**
     * Train a model for one NF.
     * @param nf the target (will be reset/profiled repeatedly)
     * @param defaults the default traffic profile
     * @param report optional cost bookkeeping
     */
    TomurModel train(framework::NetworkFunction &nf,
                     const traffic::TrafficProfile &defaults,
                     const TrainOptions &opts = {},
                     TrainReport *report = nullptr);

    /**
     * Profile the contention level an NF applies at a traffic
     * profile (used to describe deployed competitors at prediction
     * time). Cached per (NF name, profile).
     */
    const ContentionLevel &
    contentionOf(framework::NetworkFunction &nf,
                 const traffic::TrafficProfile &profile);

    /** Workload profile cache (exposed for the experiment benches). */
    const framework::WorkloadProfile &
    workloadOf(framework::NetworkFunction &nf,
               const traffic::TrafficProfile &profile);

    /** The bench library this trainer draws on. */
    BenchLibrary &library() { return library_; }

    /** Profile every uncached profile of a planned sweep, smallest
     *  flow count first, so the incremental session warms each flow
     *  exactly once. Purely a cache warmer: subsequent workloadOf
     *  calls hit the cache in any order. */
    void
    prewarmWorkloads(framework::NetworkFunction &nf,
                     std::vector<traffic::TrafficProfile> profiles);

  private:
    /** The incremental profiling session for one NF (created on
     *  first use, replaced if a different instance takes the name). */
    framework::WorkloadProfiler &
    profilerFor(framework::NetworkFunction &nf);

    BenchLibrary &library_;
    std::map<std::string,
             std::unique_ptr<framework::WorkloadProfiler>>
        profilers_;
    std::map<std::pair<std::string, std::vector<double>>,
             framework::WorkloadProfile>
        workloadCache_;
    std::map<std::pair<std::string, std::vector<double>>,
             ContentionLevel>
        contentionCache_;
    /** Warm-start seeds for retraining: the previous run's fitted
     *  ensembles per NF name. Reuse never changes results (the
     *  regressors' fingerprint contract); it only skips re-binning
     *  and no-op refits in the supervisor's bounded retrain loop. */
    std::map<std::string, MemoryModel> warmMemory_;
    std::map<std::string,
             std::vector<ml::GradientBoostingRegressor>>
        warmSolo_;
};

} // namespace tomur::core

#endif // TOMUR_TOMUR_PROFILER_HH
