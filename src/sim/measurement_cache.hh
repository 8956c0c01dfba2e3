/**
 * @file
 * Deployment-measurement memoization.
 *
 * Profiling sweeps re-deploy identical (workload set, traffic)
 * combinations thousands of times — solo anchors, bench co-runs and
 * calibration pairs recur across training strategies and across the
 * experiment harnesses. The equilibrium solve is deterministic in
 * its inputs, so its result can be memoized; only the measurement
 * noise (and any fault injection layered above) must stay per-call.
 *
 * The cache key is a canonical byte-exact serialization of the
 * solver options plus every field of every WorkloadProfile in the
 * deployment (doubles are serialized by bit pattern, so two profiles
 * differing in the last ulp key differently — the cache can never
 * substitute an "almost identical" deployment).
 *
 * Thread safety: the map takes an internal mutex; the hit/miss
 * statistics are lock-free atomics routed through the process-wide
 * metrics registry (tomur_cache_*), so stats() never races the
 * counting done inside concurrent lookup()/store() calls — TSan
 * verifies this via ParallelTelemetryCache.StatsRaceFree.
 */

#ifndef TOMUR_SIM_MEASUREMENT_CACHE_HH
#define TOMUR_SIM_MEASUREMENT_CACHE_HH

#include <atomic>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/testbed.hh"

namespace tomur::sim {

/**
 * Canonical cache key for one deployment under one solver setup.
 * FNV-1a of this string is the "canonical hash"; the full string is
 * kept as the map key so hash collisions cannot alias deployments.
 */
std::string
deploymentKey(const TestbedOptions &opts,
              const std::vector<framework::WorkloadProfile> &w);

/** Memoized noise-free measurement batches, keyed by deploymentKey. */
class MeasurementCache
{
  public:
    MeasurementCache();

    struct Stats
    {
        std::size_t hits = 0;
        std::size_t misses = 0;
        std::size_t entries = 0;
    };

    /** Copy the cached batch into *out; counts a hit or a miss. */
    bool lookup(const std::string &key,
                std::vector<Measurement> *out) const;

    /** Insert (first writer wins; duplicate stores are dropped). */
    void store(const std::string &key,
               std::vector<Measurement> value);

    /** Per-instance counters (process-wide aggregates additionally
     *  accumulate in the tomur_cache_* metrics). Safe to call while
     *  other threads look up or store. */
    Stats stats() const;
    void clear();

  private:
    mutable std::mutex mutex_; ///< guards map_ only
    std::unordered_map<std::string, std::vector<Measurement>> map_;
    // Lock-free so readers (stats()) never race the counting writes
    // issued under concurrent lookup()/store().
    mutable std::atomic<std::size_t> hits_{0};
    mutable std::atomic<std::size_t> misses_{0};
};

} // namespace tomur::sim

#endif // TOMUR_SIM_MEASUREMENT_CACHE_HH
