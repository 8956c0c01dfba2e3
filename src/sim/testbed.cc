#include "sim/testbed.hh"

#include <algorithm>
#include <cmath>

#include "common/deadline.hh"
#include "common/logging.hh"
#include "common/serial.hh"
#include "common/strutil.hh"
#include "common/telemetry.hh"
#include "common/threadpool.hh"
#include "common/trace.hh"
#include "hw/cache.hh"
#include "hw/dram.hh"
#include "sim/measurement_cache.hh"

namespace tomur::sim {

namespace fw = framework;

namespace {

/** Equilibrium-solver metrics (tomur_solver_*). */
struct SolverMetrics
{
    Counter &solves = metrics().counter("tomur_solver_solves_total");
    Counter &iterations =
        metrics().counter("tomur_solver_iterations_total");
    Counter &converged =
        metrics().counter("tomur_solver_converged_total");
    Counter &maxedOut =
        metrics().counter("tomur_solver_maxed_out_total");
    Histogram &perSolve = metrics().histogram(
        "tomur_solver_iterations",
        {4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 400.0});
};

SolverMetrics &
solverMetrics()
{
    static SolverMetrics sm;
    return sm;
}

} // namespace

namespace {

/** Bottleneck tag for accelerator kind index k. */
sim::Bottleneck
accelBottleneck(int k)
{
    switch (static_cast<hw::AccelKind>(k)) {
      case hw::AccelKind::Regex:
        return sim::Bottleneck::Regex;
      case hw::AccelKind::Compression:
        return sim::Bottleneck::Compression;
      case hw::AccelKind::Crypto:
        return sim::Bottleneck::Crypto;
    }
    panic("accelBottleneck: bad kind");
}

} // namespace

const char *
bottleneckName(Bottleneck b)
{
    switch (b) {
      case Bottleneck::CpuMemory:
        return "cpu+memory";
      case Bottleneck::Regex:
        return "regex";
      case Bottleneck::Compression:
        return "compression";
      case Bottleneck::Crypto:
        return "crypto";
      case Bottleneck::NicLineRate:
        return "nic";
      case Bottleneck::Pacing:
        return "pacing";
    }
    panic("bottleneckName: bad value");
}

Testbed::Testbed(hw::NicConfig config, TestbedOptions opts)
    : config_(std::move(config)), opts_(opts), rng_(opts.seed),
      cache_(opts.cacheSolves ? std::make_unique<MeasurementCache>()
                              : nullptr)
{
}

Testbed::~Testbed() = default;

namespace {

/** Per-request accelerator service time for a workload. */
double
accelServiceTime(const hw::NicConfig &cfg,
                 const fw::WorkloadProfile &w, int kind)
{
    const auto &use = w.accel[kind];
    const auto &ac = cfg.accel[kind];
    if (!use.used)
        return 0.0;
    if (!ac.present)
        fatal(strf("NF %s uses absent accelerator %s on %s",
                   w.nfName.c_str(),
                   hw::accelName(static_cast<hw::AccelKind>(kind)),
                   cfg.name.c_str()));
    return ac.setupTime + use.bytesPerRequest / ac.bytesPerSec +
           use.matchesPerRequest * ac.perMatchTime;
}

} // namespace

std::vector<Measurement>
Testbed::solve(const std::vector<fw::WorkloadProfile> &w) const
{
    const std::size_t n = w.size();
    std::vector<Measurement> out(n);
    if (n == 0)
        return out;

    TraceSpan span("sim.solve");
    if (span.active()) {
        // Identity fields are deterministic functions of the inputs,
        // so canonical trace exports sort solve spans stably however
        // the pool scheduled them.
        std::string names;
        for (const auto &wl : w) {
            if (!names.empty())
                names += "+";
            names += wl.nfName;
        }
        span.field("deployment", names);
        span.field("key", strf("%016llx",
                               (unsigned long long)tomur::fnv1a64(
                                   deploymentKey(opts_, w))));
        span.field("n", static_cast<std::uint64_t>(n));
    }

    int total_cores = 0;
    for (const auto &wl : w)
        total_cores += wl.cores;
    if (total_cores > config_.cores) {
        fatal(strf("deployment needs %d cores but %s has %d",
                   total_cores, config_.name.c_str(), config_.cores));
    }

    // Static per-workload quantities.
    std::vector<double> instr_time(n), accesses(n);
    std::vector<std::array<double, hw::numAccelKinds>> service(n);
    for (std::size_t i = 0; i < n; ++i) {
        instr_time[i] =
            w[i].instrPerPacket / (config_.baseIpc * config_.coreHz);
        accesses[i] =
            w[i].llcReadsPerPacket + w[i].llcWritesPerPacket;
        for (int k = 0; k < hw::numAccelKinds; ++k)
            service[i][k] = accelServiceTime(config_, w[i], k);
    }

    // Initial throughput guesses: compute-bound estimate. The same
    // uncontended rate also serves as each workload's fixed cache
    // "pressure" for occupancy competition: using the contended rate
    // would close a positive feedback loop (more cache -> faster ->
    // more insertions -> more cache) that makes the fixed point
    // bistable; real LLCs damp this through way-granular eviction.
    std::vector<double> T(n), pressure(n);
    for (std::size_t i = 0; i < n; ++i) {
        double t0 = instr_time[i] +
                    accesses[i] * config_.llcHitTime + 1e-12;
        T[i] = w[i].cores / t0;
        if (w[i].pacedRate > 0.0)
            T[i] = std::min(T[i], w[i].pacedRate);
        pressure[i] = T[i] * accesses[i];
    }

    std::vector<double> t_cm(n, 0.0);
    std::vector<double> miss(n, 0.0);
    std::vector<std::array<double, hw::numAccelKinds>> sojourn(n);
    std::vector<std::array<double, hw::numAccelKinds>> stage_pps(n);
    std::vector<Bottleneck> bottleneck(n, Bottleneck::CpuMemory);

    int iters_run = 0;
    double final_delta = 0.0;
    bool converged = false;
    for (int iter = 0; iter < opts_.maxIterations; ++iter) {
        // --- Memory subsystem ---
        std::vector<hw::CacheWorkload> cache_w(n);
        for (std::size_t i = 0; i < n; ++i) {
            cache_w[i].wssBytes = w[i].wssBytes;
            cache_w[i].accessRate = pressure[i];
            cache_w[i].reuse = w[i].reuse;
        }
        auto shares = hw::solveCacheSharing(
            config_.llcBytes, config_.missFloor, cache_w);

        double dram_demand = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            miss[i] = shares[i].missRatio;
            // Actual (contended) miss traffic drives the memory
            // controller, unlike the occupancy pressure above.
            dram_demand += T[i] * accesses[i] * miss[i] *
                           config_.cacheLineBytes;
        }
        double lat_factor = hw::dramLatencyFactor(
            dram_demand, config_.dramPeakBytesPerSec);

        for (std::size_t i = 0; i < n; ++i) {
            double t_acc = config_.llcHitTime +
                           miss[i] * config_.dramTime * lat_factor;
            t_cm[i] = instr_time[i] + accesses[i] * t_acc;
        }

        // --- Accelerators: per focal NF round-robin equilibrium ---
        for (int k = 0; k < hw::numAccelKinds; ++k) {
            // Collect users of this accelerator.
            std::vector<std::size_t> users;
            for (std::size_t i = 0; i < n; ++i)
                if (w[i].accel[k].used)
                    users.push_back(i);
            if (users.empty())
                continue;

            for (std::size_t i : users) {
                std::vector<hw::AccelQueue> queues;
                std::size_t focal_first = 0;
                int focal_queues = w[i].accel[k].queues;
                for (std::size_t j : users) {
                    const auto &use = w[j].accel[k];
                    double offered = T[j] * use.requestsPerPacket /
                                     use.queues;
                    bool focal = j == i;
                    // The focal NF probes its backlogged share: its
                    // queues are closed-loop, competitors are open at
                    // their current offered load. The focal closed
                    // queue's sojourn then equals the round-robin
                    // round time, which is what a synchronous
                    // submitter waits per request.
                    bool closed = focal;
                    if (focal)
                        focal_first = queues.size();
                    for (int q = 0; q < use.queues; ++q) {
                        queues.push_back(hw::AccelQueue{
                            service[j][k], offered, closed});
                    }
                }
                auto res = hw::solveRoundRobin(queues);
                double req_rate = 0.0;
                double soj = 0.0;
                for (int q = 0; q < focal_queues; ++q) {
                    req_rate += res[focal_first + q].throughput;
                    soj += res[focal_first + q].sojournTime;
                }
                soj /= focal_queues;
                double rpp = w[i].accel[k].requestsPerPacket;
                sojourn[i][k] = soj;
                stage_pps[i][k] = req_rate / rpp;
            }
        }

        // --- Compose per-NF throughput ---
        double delta = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            double cand;
            Bottleneck bn = Bottleneck::CpuMemory;
            double c_cpu = w[i].cores / t_cm[i];
            bool min_compose =
                w[i].pattern == fw::ExecutionPattern::Pipeline ||
                w[i].pacedRate > 0.0;
            if (min_compose) {
                // Decoupled stages (or a load generator): throughput
                // is the slowest stage.
                cand = c_cpu;
                for (int k = 0; k < hw::numAccelKinds; ++k) {
                    if (!w[i].accel[k].used)
                        continue;
                    if (stage_pps[i][k] < cand) {
                        cand = stage_pps[i][k];
                        bn = accelBottleneck(k);
                    }
                }
            } else {
                // Run-to-completion: a core carries its packet end to
                // end, blocking on each in-flight request. Classic
                // closed-network bound: throughput is the minimum of
                // the synchronous cycle rate c / (t_cpu+mem + sum of
                // request sojourns) and each stage's round-robin
                // share (the engine cannot complete more than the
                // focal queues' fair share even when fully pushed).
                double t_total = t_cm[i];
                double worst_time = t_cm[i];
                double cap = c_cpu;
                Bottleneck cap_bn = Bottleneck::CpuMemory;
                for (int k = 0; k < hw::numAccelKinds; ++k) {
                    if (!w[i].accel[k].used)
                        continue;
                    double t_k = w[i].accel[k].requestsPerPacket *
                                 sojourn[i][k];
                    t_total += t_k;
                    if (t_k > worst_time) {
                        worst_time = t_k;
                        bn = accelBottleneck(k);
                    }
                    if (stage_pps[i][k] < cap) {
                        cap = stage_pps[i][k];
                        cap_bn = accelBottleneck(k);
                    }
                }
                cand = w[i].cores / t_total;
                if (cap < cand) {
                    cand = cap;
                    bn = cap_bn;
                }
            }

            double c_nic = w[i].frameBytes > 0.0
                ? config_.nicLineRateBytesPerSec / w[i].frameBytes
                : cand;
            if (c_nic < cand) {
                cand = c_nic;
                bn = Bottleneck::NicLineRate;
            }
            if (w[i].pacedRate > 0.0 && w[i].pacedRate <= cand) {
                cand = w[i].pacedRate;
                bn = Bottleneck::Pacing;
            }
            bottleneck[i] = bn;

            double next = T[i] + opts_.damping * (cand - T[i]);
            delta = std::max(delta,
                             std::fabs(next - T[i]) /
                                 std::max(1.0, T[i]));
            T[i] = next;
        }
        ++iters_run;
        final_delta = delta;
        if (span.active()) {
            // Logical step index = iteration number, so the residual
            // series is diffable run-to-run without wall-clock data.
            tracePoint("sim.solve.iter",
                       {{"residual", traceFormat(delta)}}, iter);
        }
        if (delta < 1e-7) {
            converged = true;
            break;
        }
    }
    auto &sm = solverMetrics();
    sm.solves.inc();
    sm.iterations.inc(static_cast<std::uint64_t>(iters_run));
    sm.perSolve.observe(static_cast<double>(iters_run));
    if (converged) {
        sm.converged.inc();
    } else {
        sm.maxedOut.inc();
        warnEvent("testbed", "solver-maxed-out",
                  {{"iterations", strf("%d", iters_run)},
                   {"residual", strf("%.3g", final_delta)}});
    }
    if (span.active()) {
        span.field("iterations",
                   static_cast<std::int64_t>(iters_run));
        span.field("residual", final_delta);
        span.field("converged", converged ? "true" : "false");
    }

    // --- Emit measurements ---
    for (std::size_t i = 0; i < n; ++i) {
        Measurement &m = out[i];
        m.nfName = w[i].nfName;
        m.truthThroughput = T[i];
        m.throughput = T[i];
        m.cpuMemTimePerPacket = t_cm[i];
        for (int k = 0; k < hw::numAccelKinds; ++k) {
            m.accelSojourn[k] =
                w[i].accel[k].used ? sojourn[i][k] : 0.0;
            m.accelStageCapacity[k] =
                w[i].accel[k].used ? stage_pps[i][k] : 0.0;
        }
        m.bottleneck = bottleneck[i];

        hw::PerfCounters &c = m.counters;
        double instr_rate = T[i] * w[i].instrPerPacket;
        double busy_time_per_pkt = t_cm[i];
        c.instrRetired = instr_rate;
        c.ipc = busy_time_per_pkt > 0.0
            ? w[i].instrPerPacket /
                  (busy_time_per_pkt * config_.coreHz)
            : config_.baseIpc;
        c.l2ReadRate = T[i] * w[i].llcReadsPerPacket;
        c.l2WriteRate = T[i] * w[i].llcWritesPerPacket;
        c.memReadRate = c.l2ReadRate * miss[i];
        c.memWriteRate = c.l2WriteRate * miss[i];
        c.wssBytes = w[i].wssBytes;
    }
    return out;
}

std::vector<Measurement>
Testbed::solveCached(const std::vector<fw::WorkloadProfile> &w) const
{
    if (!cache_)
        return solve(w);
    TraceSpan span("sim.cache");
    auto key = deploymentKey(opts_, w);
    if (span.active()) {
        span.field("key",
                   strf("%016llx",
                        (unsigned long long)tomur::fnv1a64(key)));
    }
    std::vector<Measurement> out;
    if (cache_->lookup(key, &out)) {
        span.field("outcome", "hit");
        return out;
    }
    span.field("outcome", "miss");
    out = solve(w);
    cache_->store(key, out);
    return out;
}

std::vector<Measurement>
Testbed::run(const std::vector<fw::WorkloadProfile> &workloads)
{
    TraceSpan span("sim.run");
    span.field("n",
               static_cast<std::uint64_t>(workloads.size()));
    span.field("noise_sigma", opts_.noiseSigma);
    auto out = solveCached(workloads);
    if (opts_.noiseSigma > 0.0) {
        // The noise stream is the one mutable bit of measurement
        // state; serialize it so concurrent run() calls stay
        // race-free (ordered determinism is runBatch's job).
        std::lock_guard<std::mutex> lock(noiseMutex_);
        for (auto &m : out) {
            m.throughput *= rng_.lognormalFactor(opts_.noiseSigma);
            hw::PerfCounters &c = m.counters;
            double s = opts_.noiseSigma;
            c.ipc *= rng_.lognormalFactor(s);
            c.instrRetired *= rng_.lognormalFactor(s);
            c.l2ReadRate *= rng_.lognormalFactor(s);
            c.l2WriteRate *= rng_.lognormalFactor(s);
            c.memReadRate *= rng_.lognormalFactor(s);
            c.memWriteRate *= rng_.lognormalFactor(s);
            c.wssBytes *= rng_.lognormalFactor(s);
        }
    }
    return out;
}

void
Testbed::prewarm(
    const std::vector<std::vector<fw::WorkloadProfile>> &batch)
{
    if (!cache_ || batch.empty())
        return;
    TraceSpan span("sim.prewarm");
    span.field("n", static_cast<std::uint64_t>(batch.size()));
    parallelFor(batch.size(),
                [&](std::size_t i) { solveCached(batch[i]); });
}

std::vector<std::vector<Measurement>>
Testbed::runBatch(
    const std::vector<std::vector<fw::WorkloadProfile>> &batch)
{
    TraceSpan span("sim.runBatch");
    span.field("n", static_cast<std::uint64_t>(batch.size()));
    // Phase 1: fan the deterministic solves across the pool.
    prewarm(batch);
    // Phase 2: draw noise (and, through the virtual run(), any
    // interposed faults) strictly in submission order — bit-identical
    // to the serial loop whatever the pool width. Each deployment is
    // one cancellation granule for the cooperative deadline.
    std::vector<std::vector<Measurement>> out;
    out.reserve(batch.size());
    for (const auto &deploy : batch) {
        checkDeadline("sim.runBatch");
        out.push_back(run(deploy));
    }
    return out;
}

RngState
Testbed::noiseState() const
{
    std::lock_guard<std::mutex> lock(noiseMutex_);
    return rng_.state();
}

void
Testbed::setNoiseState(const RngState &st)
{
    std::lock_guard<std::mutex> lock(noiseMutex_);
    rng_.setState(st);
}

std::unique_ptr<Testbed>
Testbed::clone(std::uint64_t seed) const
{
    TestbedOptions opts = opts_;
    opts.seed = seed;
    return std::make_unique<Testbed>(config_, opts);
}

std::size_t
Testbed::cacheHits() const
{
    return cache_ ? cache_->stats().hits : 0;
}

std::size_t
Testbed::cacheMisses() const
{
    return cache_ ? cache_->stats().misses : 0;
}

void
Testbed::clearCache()
{
    if (cache_)
        cache_->clear();
}

Measurement
Testbed::runSolo(const fw::WorkloadProfile &workload)
{
    auto ms = run({workload});
    if (ms.empty()) {
        // A fault-injecting harness may truncate the batch to
        // nothing; surface that as an all-zero measurement rather
        // than indexing out of range.
        Measurement dropped;
        dropped.nfName = workload.nfName;
        return dropped;
    }
    return ms[0];
}

} // namespace tomur::sim
