/**
 * @file
 * Shared scaffolding for the experiment harnesses: a ready-made
 * testbed + bench library + trainer, accuracy bookkeeping, and the
 * common co-location / traffic randomisation used across tables.
 */

#ifndef BENCH_COMMON_HH
#define BENCH_COMMON_HH

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/threadpool.hh"
#include "common/strutil.hh"
#include "common/table.hh"
#include "ml/metrics.hh"
#include "nfs/bench_nfs.hh"
#include "nfs/registry.hh"
#include "nfs/synthetic.hh"
#include "slomo/slomo.hh"
#include "tomur/lab.hh"
#include "usecases/diagnosis.hh"
#include "usecases/placement.hh"

namespace tomur::bench {

/** Everything an experiment needs: the lab of one NIC model, plus
 *  an NF cache and the profile RNG. */
struct BenchEnv : core::Lab
{
    explicit BenchEnv(hw::NicConfig config = hw::blueField2(),
                      std::uint64_t seed = 2024);

    Rng rng;

    /** Instantiate (and cache) an NF by catalog name. */
    framework::NetworkFunction &nf(const std::string &name);

    /** Workload profile for an NF at a traffic profile (cached). */
    const framework::WorkloadProfile &
    workload(const std::string &name,
             const traffic::TrafficProfile &p);

    /** Measured solo throughput (noise-free baseline). */
    double solo(const std::string &name,
                const traffic::TrafficProfile &p);

    /** A uniformly random traffic profile within default ranges. */
    traffic::TrafficProfile randomProfile();

  private:
    std::map<std::string,
             std::unique_ptr<framework::NetworkFunction>>
        nfs_;
    std::map<std::pair<std::string, std::vector<double>>, double>
        soloCache_;
};

/** Accumulates (truth, prediction) pairs per approach. */
class AccuracyTracker
{
  public:
    void add(const std::string &approach, double truth,
             double predicted);

    double mape(const std::string &approach) const;
    double accWithin(const std::string &approach, double pct) const;
    /** Per-sample absolute percentage errors. */
    std::vector<double> errors(const std::string &approach) const;
    std::size_t count(const std::string &approach) const;

  private:
    struct Series
    {
        std::vector<double> truth;
        std::vector<double> pred;
    };
    std::map<std::string, Series> series_;
};

/** Standard header line for every harness. */
void printHeader(const char *experiment, const char *paper_claim);

/** Render a box-plot row "p5 p25 p50 p75 p95" for a sample. */
std::string boxRow(const std::vector<double> &xs, int decimals = 1);

/**
 * Run `items` independent experiment repetitions across the global
 * pool. Each item gets its own RNG stream derived from (seed, item
 * index), so results are bit-identical at any TOMUR_THREADS setting;
 * they are collected in item order. fn must not touch shared mutable
 * state (BenchEnv caches are NOT thread-safe — pre-resolve workloads
 * and models before fanning out).
 */
template <typename F>
auto
runExperiments(std::size_t items, std::uint64_t seed, F fn)
    -> std::vector<decltype(fn(std::size_t{},
                               std::declval<Rng &>()))>
{
    return parallelMap(items, [&](std::size_t i) {
        Rng rng(deriveSeed(seed, i));
        return fn(i, rng);
    });
}

} // namespace tomur::bench

#endif // BENCH_COMMON_HH
