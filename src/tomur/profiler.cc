#include "tomur/profiler.hh"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "common/logging.hh"
#include "common/stats.hh"
#include "common/strutil.hh"
#include "common/telemetry.hh"
#include "common/threadpool.hh"
#include "common/trace.hh"
#include "net/packet.hh"

namespace tomur::core {

namespace fw = framework;

namespace {

constexpr double MB = 1024.0 * 1024.0;

/** Tiny traffic profile for the bench NFs themselves (they are not
 *  flow-sensitive; 16 flows keeps their profiling instant). */
traffic::TrafficProfile
benchTraffic(double mtbr = 0.0, std::uint64_t packet_size = 1500)
{
    traffic::TrafficProfile p;
    p.flowCount = 16;
    p.packetSize = packet_size;
    p.mtbr = mtbr;
    return p;
}

/** Counter readings above this are glitched (stuck/saturated): the
 *  simulated NIC tops out around 1e9 events/s. */
constexpr double kCounterCeiling = 1e13;

/** Re-measurements allowed per faulted training sample. */
constexpr int kRetryBudget = 3;
/** Damage ratios above this are physically implausible (contention
 *  cannot speed an NF up beyond noise). */
constexpr double kRatioCeiling = 1.3;
/** MAD multiple beyond which a repeated reading is an outlier. */
constexpr double kMadThreshold = 6.0;
/** Full sampling: grid points per attribute, and contended co-runs
 *  per grid point. */
constexpr int kFullGridPerAttribute = 7;
constexpr int kFullContentionSamplesPerPoint = 3;

/** A measured throughput that can enter training data. */
bool
plausibleThroughput(const sim::Measurement &m)
{
    return std::isfinite(m.throughput) && m.throughput > 0.0;
}

/** Counter plausibility: finite and below the saturation ceiling. */
bool
plausibleCounters(const hw::PerfCounters &c)
{
    for (double v : c.toVector()) {
        if (!std::isfinite(v) || v < 0.0 || v > kCounterCeiling)
            return false;
    }
    return true;
}

/**
 * Solo-run with a small bounded retry against measurement faults
 * (dropped/NaN readings). Library profiling has no TrainOptions, so
 * the budget is fixed; on a clean testbed the first attempt always
 * passes and behaviour is unchanged.
 */
sim::Measurement
soloScreened(sim::Testbed &bed, const fw::WorkloadProfile &w,
             bool need_counters = false, int attempts = 4)
{
    sim::Measurement m;
    for (int i = 0; i < attempts; ++i) {
        m = bed.runSolo(w);
        if (plausibleThroughput(m) && m.truthThroughput > 0.0 &&
            (!need_counters || plausibleCounters(m.counters))) {
            return m;
        }
    }
    warnEvent("profiler", "solo-measurement-faulty",
              {{"nf", w.nfName},
               {"attempts", strf("%d", attempts)}});
    return m;
}

} // namespace

BenchLibrary::BenchLibrary(sim::Testbed &testbed,
                           const fw::DeviceSet &devices,
                           const regex::RuleSet &rules)
    : testbed_(testbed), devices_(devices), rules_(rules)
{
    TraceSpan span("profiler.benchlib");
    // Phase 1: enumerate the bench grid (names + configs only).
    const double wss_grid[] = {1, 2, 4, 6, 8, 12, 16, 24, 32, 48};
    const double car_grid[] = {5e6,  10e6, 20e6, 40e6,
                               60e6, 80e6, 100e6};
    const double ipa_grid[] = {2, 16, 48};
    for (double wss : wss_grid) {
        for (double car : car_grid) {
            for (double ipa : ipa_grid) {
                MemBenchEntry e;
                e.config.wssBytes = wss * MB;
                e.config.targetAccessRate = car;
                e.config.instructionsPerAccess = ipa;
                e.config.mode = nfs::MemAccessMode::Random;
                e.level.name = strf("mem-bench(%.0fMB,%.0fM,%.0f)",
                                    wss, car / 1e6, ipa);
                memBenches_.push_back(std::move(e));
            }
        }
    }
    // A stripe of streaming-mode entries widens the behaviour space.
    for (double wss : {4.0, 8.0, 16.0, 32.0}) {
        MemBenchEntry e;
        e.config.wssBytes = wss * MB;
        e.config.targetAccessRate = 40e6;
        e.config.mode = nfs::MemAccessMode::Stream;
        e.level.name = strf("mem-bench-stream(%.0fMB)", wss);
        memBenches_.push_back(std::move(e));
    }

    // Phase 2: profile every bench workload across the pool. Each
    // task owns its NF instance and profileWorkload is deterministic
    // in (config, traffic), so results are independent of scheduling.
    auto workloads =
        parallelMap(memBenches_.size(), [&](std::size_t i) {
            auto nf = nfs::makeMemBench(memBenches_[i].config);
            return fw::profileWorkload(*nf, benchTraffic(), nullptr);
        });
    for (std::size_t i = 0; i < memBenches_.size(); ++i)
        memBenches_[i].workload = std::move(workloads[i]);

    // Phase 3: measure all solo contention levels as one batch —
    // solves fan out in parallel, measurement noise is drawn in
    // entry order, exactly as the old one-at-a-time sweep did.
    std::vector<std::vector<fw::WorkloadProfile>> batch;
    batch.reserve(memBenches_.size());
    for (const auto &e : memBenches_)
        batch.push_back({e.workload});
    auto measured = testbed_.runBatch(batch);

    for (std::size_t i = 0; i < memBenches_.size(); ++i) {
        sim::Measurement m =
            measured[i].empty() ? sim::Measurement{} : measured[i][0];
        if (!(plausibleThroughput(m) && m.truthThroughput > 0.0 &&
              plausibleCounters(m.counters))) {
            // The batched first attempt failed the screen (possible
            // only on a faulted testbed): spend the remaining retry
            // budget one-at-a-time, as the serial sweep would.
            m = soloScreened(testbed_, memBenches_[i].workload, true,
                            3);
        }
        memBenches_[i].level.counters = m.counters;
    }
    span.field("mem_benches",
               static_cast<std::uint64_t>(memBenches_.size()));
    metrics().counter("tomur_profiler_bench_levels_total")
        .inc(memBenches_.size());
}

const BenchLibrary::MemBenchEntry &
BenchLibrary::randomMemBench(Rng &rng) const
{
    return memBenches_[rng.uniformInt(memBenches_.size())];
}

BenchLibrary::Reference
BenchLibrary::referenceContention(const framework::WorkloadProfile &w)
{
    const MemBenchEntry *mem = &memBenches_.front();
    for (const auto &e : memBenches_) {
        if (e.config.wssBytes >= 12.0 * 1024 * 1024 &&
            e.level.counters.cacheAccessRate() >
                mem->level.counters.cacheAccessRate()) {
            mem = &e;
        }
    }
    Reference ref;
    ref.levels.push_back(mem->level);
    ref.workloads.push_back(mem->workload);
    // Bench knob per accelerator: regex MTBR, compression and crypto
    // bytes per request.
    static constexpr struct
    {
        hw::AccelKind kind;
        double knob;
    } kAccel[] = {
        {hw::AccelKind::Regex, 800.0},
        {hw::AccelKind::Compression, 8000.0},
        {hw::AccelKind::Crypto, 16000.0},
    };
    for (const auto &a : kAccel) {
        if (!w.usesAccel(a.kind))
            continue;
        const auto &entry = accelBench(a.kind, 150e3, a.knob);
        ref.levels.push_back(entry.level);
        ref.workloads.push_back(entry.workload);
    }
    return ref;
}

const BenchLibrary::AccelBenchEntry &
BenchLibrary::accelBench(hw::AccelKind kind, double rate, double knob)
{
    auto key = std::make_tuple(static_cast<int>(kind), rate, knob);
    auto it = accelCache_.find(key);
    if (it != accelCache_.end())
        return it->second;

    AccelBenchEntry e;
    e.kind = kind;
    e.requestRate = rate;

    std::unique_ptr<fw::NetworkFunction> nf;
    traffic::TrafficProfile tp;
    if (kind == hw::AccelKind::Regex) {
        nfs::RegexBenchConfig cfg;
        cfg.requestRate = rate;
        nf = nfs::makeRegexBench(devices_, cfg);
        tp = benchTraffic(knob); // knob = bench MTBR
    } else if (kind == hw::AccelKind::Compression) {
        nfs::CompressionBenchConfig cfg;
        cfg.requestRate = rate;
        cfg.requestBytes = knob; // knob = bytes per request
        nf = nfs::makeCompressionBench(devices_, cfg);
        tp = benchTraffic(0.0, 1500);
    } else {
        nfs::CryptoBenchConfig cfg;
        cfg.requestRate = rate;
        cfg.requestBytes = knob; // knob = bytes per request
        nf = nfs::makeCryptoBench(devices_, cfg);
        tp = benchTraffic(0.0, 1500);
    }
    e.workload = fw::profileWorkload(*nf, tp, &rules_);

    // Measure the per-request service time: the closed-loop variant
    // solo is accelerator-bound, so t_b = 1 / throughput.
    fw::WorkloadProfile closed = e.workload;
    closed.pacedRate = 0.0;
    auto solo = soloScreened(testbed_, closed);
    e.serviceTime = solo.truthThroughput > 0.0
        ? 1.0 / solo.truthThroughput
        : 1e-6; // faulted beyond retry: keep a sane placeholder

    // Contention level as competitors see it.
    auto m = soloScreened(testbed_, e.workload, true);
    e.level.name = strf("%s-bench(rate=%.0f,knob=%.0f)",
                        hw::accelName(kind), rate, knob);
    e.level.counters = m.counters;
    auto &ac = e.level.accel[static_cast<int>(kind)];
    ac.used = true;
    ac.queues = 1;
    ac.serviceTime = e.serviceTime;
    ac.offeredRate = rate;
    ac.closedLoop = rate <= 0.0;

    auto [pos, inserted] = accelCache_.emplace(key, std::move(e));
    (void)inserted;
    return pos->second;
}

TomurTrainer::TomurTrainer(BenchLibrary &library) : library_(library)
{
}

fw::WorkloadProfiler &
TomurTrainer::profilerFor(fw::NetworkFunction &nf)
{
    auto it = profilers_.find(nf.name());
    if (it == profilers_.end() || it->second->target() != &nf) {
        it = profilers_
                 .insert_or_assign(
                     nf.name(),
                     std::make_unique<fw::WorkloadProfiler>(
                         nf, &library_.rules()))
                 .first;
    }
    return *it->second;
}

const fw::WorkloadProfile &
TomurTrainer::workloadOf(fw::NetworkFunction &nf,
                         const traffic::TrafficProfile &profile)
{
    auto key = std::make_pair(nf.name(), profile.toVector());
    auto it = workloadCache_.find(key);
    if (it != workloadCache_.end())
        return it->second;
    auto w = profilerFor(nf).profile(profile);
    return workloadCache_.emplace(key, std::move(w)).first->second;
}

void
TomurTrainer::prewarmWorkloads(
    fw::NetworkFunction &nf,
    std::vector<traffic::TrafficProfile> profiles)
{
    // Distinct uncached profiles only, then smallest flow count
    // first (ties keep plan order): the profiling session's warm
    // flow set only ever grows, so the sweep's total warm-up cost is
    // its *largest* flow count, not the sum. Profiling draws no
    // shared randomness, so reordering it cannot shift the
    // measurement-phase noise stream.
    std::map<std::vector<double>, bool> seen;
    std::vector<traffic::TrafficProfile> todo;
    for (auto &p : profiles) {
        auto key = std::make_pair(nf.name(), p.toVector());
        if (workloadCache_.count(key))
            continue;
        if (seen.emplace(p.toVector(), true).second)
            todo.push_back(std::move(p));
    }
    if (todo.empty())
        return;
    std::stable_sort(todo.begin(), todo.end(),
                     [](const traffic::TrafficProfile &a,
                        const traffic::TrafficProfile &b) {
                         return a.flowCount < b.flowCount;
                     });
    TraceSpan span("train.profile");
    span.field("profiles", static_cast<std::uint64_t>(todo.size()));
    for (const auto &p : todo)
        workloadOf(nf, p);
}

const ContentionLevel &
TomurTrainer::contentionOf(fw::NetworkFunction &nf,
                           const traffic::TrafficProfile &profile)
{
    auto key = std::make_pair(nf.name(), profile.toVector());
    auto it = contentionCache_.find(key);
    if (it != contentionCache_.end())
        return it->second;

    const auto &w = workloadOf(nf, profile);
    auto solo = soloScreened(library_.testbed(), w, true);
    if (!plausibleCounters(solo.counters)) {
        // Out of retries and the counters are still glitched: scrub
        // them so downstream feature vectors stay finite, and say so.
        solo.counters = hw::PerfCounters{};
        warnEvent("profiler", "contention-counters-scrubbed",
                  {{"nf", nf.name()}});
    }

    ContentionLevel level;
    level.name = nf.name();
    level.counters = solo.counters;

    for (int k = 0; k < hw::numAccelKinds; ++k) {
        if (!w.accel[k].used)
            continue;
        auto kind = static_cast<hw::AccelKind>(k);
        // Calibrate the per-request time from one equilibrium co-run
        // with the closed-loop bench (Appendix F.2): at equilibrium
        // 1/T = t + t_b/n with the bench's known t_b.
        double knob =
            kind == hw::AccelKind::Regex ? 1600.0 : 16000.0;
        const auto &bench = library_.accelBench(kind, 0.0, knob);
        // Bounded retry: a truncated batch or faulted reading must
        // not leave a NaN service time in the cached level.
        double t = 0.0;
        for (int attempt = 0; attempt < 4; ++attempt) {
            auto ms = library_.testbed().run({w, bench.workload});
            if (ms.empty() || ms[0].truthThroughput <= 0.0)
                continue;
            int n = nf.queueCount(kind);
            t = 1.0 / ms[0].truthThroughput -
                bench.serviceTime / n;
            break;
        }
        t = std::max(t, 1e-9);

        auto &ac = level.accel[k];
        ac.used = true;
        ac.queues = nf.queueCount(kind);
        ac.serviceTime = t;
        ac.offeredRate = solo.truthThroughput;
        // Accelerator-bound NFs keep their queues non-empty at any
        // co-location; others offer their (solo) packet rate. The
        // NF is accelerator-bound when its solo rate approaches the
        // engine's solo stage rate 1/t.
        ac.closedLoop = solo.truthThroughput >= 0.9 / t;
    }
    return contentionCache_.emplace(key, std::move(level))
        .first->second;
}

TomurModel
TomurTrainer::train(fw::NetworkFunction &nf,
                    const traffic::TrafficProfile &defaults,
                    const TrainOptions &opts, TrainReport *report)
{
    TraceSpan train_span("train");
    train_span.field("nf", nf.name());
    train_span.field(
        "strategy",
        opts.sampling == SamplingStrategy::Adaptive ? "adaptive"
        : opts.sampling == SamplingStrategy::Random ? "random"
                                                    : "full");
    metrics().counter("tomur_train_runs_total").inc();

    Rng rng(opts.seed);
    TomurModel model;
    model.nfName_ = nf.name();
    model.memory_ = MemoryModel(opts.memory);
    // Warm-start from the previous run's ensemble for this NF (the
    // supervisor's bounded retrain loop trains the same NF over and
    // over): the regressors' fingerprint contract guarantees the
    // fitted result is byte-identical to a cold fit — reuse only
    // skips work whose inputs did not change.
    if (auto wm = warmMemory_.find(nf.name());
        wm != warmMemory_.end() &&
        wm->second.options() == opts.memory) {
        model.memory_ = wm->second;
    }

    auto &bed = library_.testbed();
    const double verify_below = opts.screen.verifyBelowRatio;

    // ---- Screened measurement helpers (the outlier-rejection /
    // retry loop). On a fault-free testbed the first attempt always
    // passes every screen, so clean runs are unchanged. ----
    auto noteFault = [&] {
        if (report)
            ++report->faultySamplesDetected;
        metrics().counter("tomur_train_faulty_samples_total").inc();
    };
    auto noteRetry = [&] {
        if (report)
            ++report->retriesUsed;
        metrics().counter("tomur_train_retries_total").inc();
    };
    auto noteAbandoned = [&](const char *stage) {
        if (report)
            ++report->samplesAbandoned;
        metrics().counter("tomur_train_samples_abandoned_total")
            .inc();
        warnEvent("profiler", "sample-abandoned",
                  {{"nf", nf.name()}, {"stage", stage}});
    };

    /** Deploy + measure with plausibility retry; nullopt when the
     *  budget runs out. */
    auto runScreened =
        [&](const std::vector<fw::WorkloadProfile> &deploy,
            const char *stage)
        -> std::optional<std::vector<sim::Measurement>> {
        for (int attempt = 0; attempt <= kRetryBudget; ++attempt) {
            if (attempt > 0)
                noteRetry();
            auto ms = bed.run(deploy);
            if (ms.size() == deploy.size() &&
                plausibleThroughput(ms[0])) {
                return ms;
            }
            noteFault();
        }
        noteAbandoned(stage);
        return std::nullopt;
    };

    /**
     * Measure one contended damage ratio with the full screen:
     * plausibility + ratio ceiling, plus (optionally) verification
     * by repetition with a median-absolute-deviation test for
     * suspiciously heavy drops. Returns nullopt when the retry
     * budget is exhausted.
     */
    auto measureRatio =
        [&](const std::vector<fw::WorkloadProfile> &deploy,
            double solo) -> std::optional<double> {
        for (int attempt = 0; attempt <= kRetryBudget; ++attempt) {
            if (attempt > 0)
                noteRetry();
            auto ms = bed.run(deploy);
            if (ms.size() != deploy.size() ||
                !plausibleThroughput(ms[0])) {
                noteFault();
                continue;
            }
            double r = ms[0].throughput / solo;
            if (r > kRatioCeiling) {
                // Contention cannot make an NF faster: a ratio this
                // far above 1 is a faulted reading.
                noteFault();
                continue;
            }
            if (verify_below <= 0.0 || r >= verify_below)
                return r;
            // Suspiciously heavy drop: verify by repetition. A real
            // heavy contention level reproduces; a low outlier
            // disagrees with its re-measurements and the MAD test
            // flags it, with the median as the robust keeper.
            std::vector<double> reads = {r};
            for (int extra = 0; extra < 2; ++extra) {
                noteRetry();
                auto again = bed.run(deploy);
                if (again.size() == deploy.size() &&
                    plausibleThroughput(again[0])) {
                    double r2 = again[0].throughput / solo;
                    if (r2 <= kRatioCeiling)
                        reads.push_back(r2);
                }
            }
            double med = median(reads);
            double spread =
                std::max(mad(reads), 0.01 * std::max(med, 1e-12));
            for (double x : reads) {
                if (std::fabs(x - med) > kMadThreshold * spread) {
                    noteFault(); // a repetition disagreed: faulted
                    break;
                }
            }
            return med;
        }
        noteAbandoned("contended");
        return std::nullopt;
    };

    // ---- Memory model training data ----
    // The memory GBR learns the damage ratio T_contended / T_solo;
    // a separate GBR learns the solo sensitivity curve T_solo(P).
    ml::Dataset data(model.memory_.featureNames());
    ml::Dataset solo_data(
        std::vector<std::string>{"flow_count", "packet_size",
                                 "mtbr"});
    std::map<std::vector<double>, double> solo_cache;

    auto addSolo = [&](const traffic::TrafficProfile &p) {
        auto key = p.toVector();
        auto it = solo_cache.find(key);
        if (it != solo_cache.end())
            return it->second;
        auto ms = runScreened({workloadOf(nf, p)}, "solo");
        double t = ms ? (*ms)[0].throughput : 0.0;
        solo_cache[key] = t;
        if (t > 0.0) {
            solo_data.add(key, t);
            data.add(model.memory_.featuresFor({}, p), 1.0);
        }
        return t;
    };
    /** Contended sample with a pre-chosen competitor set. */
    auto addContendedWith =
        [&](const traffic::TrafficProfile &p,
            const std::vector<const BenchLibrary::MemBenchEntry *>
                &benches) {
            double solo = addSolo(p);
            std::vector<ContentionLevel> levels;
            std::vector<fw::WorkloadProfile> deploy = {
                workloadOf(nf, p)};
            for (const auto *bench : benches) {
                levels.push_back(bench->level);
                deploy.push_back(bench->workload);
            }
            if (solo <= 0.0)
                return; // no usable solo anchor for the ratio label
            auto ratio = measureRatio(deploy, solo);
            if (ratio)
                data.add(model.memory_.featuresFor(levels, p),
                         *ratio);
        };

    /** Draw the competitor set for one contended sample: half the
     *  samples co-run two benches at once so the model sees
     *  aggregated-counter magnitudes (test-time competitor sets sum
     *  up to three NFs' counters). */
    auto drawBenches = [&] {
        std::vector<const BenchLibrary::MemBenchEntry *> benches;
        int n_bench = rng.chance(0.5) ? 1 : 2;
        for (int b = 0; b < n_bench; ++b)
            benches.push_back(&library_.randomMemBench(rng));
        return benches;
    };

    auto addContended = [&](const traffic::TrafficProfile &p) {
        addContendedWith(p, drawBenches());
    };

    /**
     * A pre-planned profiling sweep. Random/Full sampling choose
     * every (traffic, competitor) point up front from the trainer
     * RNG — the plan never depends on measured values — so all
     * deployments are known before the first measurement and their
     * equilibrium solves can fan out across the pool. Execution then
     * replays the plan in order: the noise/fault streams are drawn
     * in exactly the sequence the serial one-at-a-time sweep used,
     * keeping results bit-identical at any TOMUR_THREADS.
     */
    struct PlanStep
    {
        bool contended = false;
        traffic::TrafficProfile profile;
        std::vector<const BenchLibrary::MemBenchEntry *> benches;
    };
    auto executePlan = [&](const std::vector<PlanStep> &plan) {
        // Profile the whole plan first, smallest flow count first:
        // the incremental profiling session then warms each flow
        // exactly once across the sweep. Replay order below is
        // untouched, so the measurement noise stream is too.
        {
            std::vector<traffic::TrafficProfile> profiles;
            profiles.reserve(plan.size());
            for (const auto &step : plan)
                profiles.push_back(step.profile);
            prewarmWorkloads(nf, std::move(profiles));
        }
        std::vector<std::vector<fw::WorkloadProfile>> warm;
        warm.reserve(plan.size());
        for (const auto &step : plan) {
            std::vector<fw::WorkloadProfile> deploy = {
                workloadOf(nf, step.profile)};
            if (step.contended) {
                warm.push_back({deploy[0]}); // the solo anchor
                for (const auto *bench : step.benches)
                    deploy.push_back(bench->workload);
            }
            warm.push_back(std::move(deploy));
        }
        {
            TraceSpan span("train.prewarm");
            span.field("n",
                       static_cast<std::uint64_t>(warm.size()));
            bed.prewarm(warm);
        }
        TraceSpan span("train.measure");
        span.field("n", static_cast<std::uint64_t>(plan.size()));
        for (const auto &step : plan) {
            if (step.contended)
                addContendedWith(step.profile, step.benches);
            else
                addSolo(step.profile);
        }
    };

    if (opts.sampling == SamplingStrategy::Adaptive) {
        // Adaptive sampling interleaves planning and measurement
        // (each measurement decides the next point), so the whole
        // sweep is one measure phase.
        TraceSpan span("train.measure");
        span.field("strategy", "adaptive");
        AdaptiveCallbacks cb;
        cb.solo = addSolo;
        cb.collect = addContended;
        auto res =
            adaptiveProfile(cb, defaults, opts.adaptive);
        if (report)
            report->keptAttributes = res.keptAttributes;
    } else if (opts.sampling == SamplingStrategy::Random) {
        std::size_t budget = opts.adaptive.quota;
        // Same quota as adaptive: a fifth on solo anchors, the rest
        // on uniformly random (traffic, contention) points.
        std::size_t solos = std::max<std::size_t>(4, budget / 5);
        auto randomProfile = [&]() {
            traffic::TrafficProfile p = defaults;
            for (int a = 0; a < traffic::numAttributes; ++a) {
                auto attr = static_cast<traffic::Attribute>(a);
                auto r = traffic::defaultRange(attr);
                p = p.withAttribute(attr,
                                    rng.uniform(r.min, r.max));
            }
            return p;
        };
        std::vector<PlanStep> plan;
        {
            TraceSpan span("train.plan");
            span.field("strategy", "random");
            plan.reserve(budget);
            for (std::size_t i = 0; i < solos; ++i) {
                PlanStep step;
                step.profile = i == 0 ? defaults : randomProfile();
                plan.push_back(std::move(step));
            }
            for (std::size_t i = solos; i < budget; ++i) {
                PlanStep step;
                step.contended = true;
                step.profile = randomProfile();
                step.benches = drawBenches();
                plan.push_back(std::move(step));
            }
            span.field("steps",
                       static_cast<std::uint64_t>(plan.size()));
        }
        executePlan(plan);
    } else {
        // Full profiling: dense grid over every attribute.
        constexpr int g = kFullGridPerAttribute;
        std::vector<PlanStep> plan;
        std::unique_ptr<TraceSpan> plan_span;
        if (tracer().enabled()) {
            plan_span = std::make_unique<TraceSpan>("train.plan");
            plan_span->field("strategy", "full");
        }
        for (int a = 0; a < g; ++a) {
            for (int b = 0; b < g; ++b) {
                for (int c = 0; c < g; ++c) {
                    traffic::TrafficProfile p = defaults;
                    int idx[3] = {a, b, c};
                    for (int d = 0; d < traffic::numAttributes;
                         ++d) {
                        auto attr =
                            static_cast<traffic::Attribute>(d);
                        auto r = traffic::defaultRange(attr);
                        double v = r.min + (r.max - r.min) *
                                   idx[d] / (g - 1);
                        p = p.withAttribute(attr, v);
                    }
                    PlanStep solo_step;
                    solo_step.profile = p;
                    plan.push_back(std::move(solo_step));
                    for (int i = 0;
                         i < kFullContentionSamplesPerPoint; ++i) {
                        PlanStep step;
                        step.contended = true;
                        step.profile = p;
                        step.benches = drawBenches();
                        plan.push_back(std::move(step));
                    }
                }
            }
        }
        if (plan_span) {
            plan_span->field(
                "steps", static_cast<std::uint64_t>(plan.size()));
            plan_span.reset(); // close before the measure phase
        }
        executePlan(plan);
    }
    if (report)
        report->memorySamples = data.size();
    metrics().counter("tomur_train_samples_total").inc(data.size());
    {
        TraceSpan span("train.fit.memory");
        span.field("samples",
                   static_cast<std::uint64_t>(data.size()));
        if (auto st = model.memory_.fit(data); !st) {
            model.markMemoryDegraded(st.message());
            if (report)
                ++report->subModelsDegraded;
        } else {
            warmMemory_.insert_or_assign(nf.name(), model.memory_);
        }
    }

    // Fit the solo sensitivity model (seed-averaged, like the
    // memory model).
    model.soloModels_.clear();
    if (solo_data.size() > 0) {
        // Seed-ensemble members fit independently across the pool,
        // collected in seed order.
        TraceSpan span("train.fit.solo");
        span.field("samples",
                   static_cast<std::uint64_t>(solo_data.size()));
        // Bin the solo feature matrix once for the whole ensemble
        // and warm-start members from the previous run for this NF
        // (byte-identical either way — the regressors' fingerprints
        // decide what work a refit can skip).
        std::shared_ptr<const ml::BinnedMatrix> solo_binned;
        if (opts.memory.seeds > 1) {
            solo_binned = std::make_shared<const ml::BinnedMatrix>(
                ml::BinnedMatrix::build(solo_data));
        }
        auto &warm = warmSolo_[nf.name()];
        model.soloModels_ = parallelMap(
            static_cast<std::size_t>(opts.memory.seeds),
            [&](std::size_t s) {
                ml::GbrParams gp = opts.memory.gbr;
                gp.seed =
                    opts.seed + 1000 + static_cast<std::uint64_t>(s);
                ml::GradientBoostingRegressor gbr =
                    s < warm.size() && warm[s].params() == gp
                        ? std::move(warm[s])
                        : ml::GradientBoostingRegressor(gp);
                gbr.fit(solo_data, solo_binned);
                return gbr;
            });
        warm = model.soloModels_;
    } else {
        model.markSoloDegraded(
            "no usable solo measurements survived screening");
        if (report)
            ++report->subModelsDegraded;
    }

    // ---- Accelerator model calibration ----
    // unique_ptr, not plain RAII: the span must close before the
    // pattern-detection span opens so the phases are siblings.
    auto cal_span = std::make_unique<TraceSpan>("train.calibrate");
    const auto &w_def = workloadOf(nf, defaults);
    std::size_t accel_runs = 0;
    for (int k = 0; k < hw::numAccelKinds; ++k) {
        if (!w_def.accel[k].used)
            continue;
        auto kind = static_cast<hw::AccelKind>(k);
        std::vector<AccelCalibrationPoint> points;
        // Traffic points: MTBR sweep at the default packet size plus
        // a packet-size sweep, so both coefficients of the service
        // law are identified.
        std::vector<traffic::TrafficProfile> cal_profiles;
        if (kind == hw::AccelKind::Regex) {
            for (double m : {100.0, 400.0, 700.0, 1000.0}) {
                cal_profiles.push_back(defaults.withAttribute(
                    traffic::Attribute::Mtbr, m));
            }
            for (double sz : {256.0, 800.0}) {
                cal_profiles.push_back(defaults.withAttribute(
                    traffic::Attribute::PacketSize, sz));
            }
        } else {
            for (double sz : {512.0, 1024.0, 1500.0}) {
                cal_profiles.push_back(defaults.withAttribute(
                    traffic::Attribute::PacketSize, sz));
            }
        }
        // Bench knobs chosen so the bench's per-request service time
        // dominates the target's other stages at equilibrium — the
        // "high enough" requirement of §4.1.1.
        std::vector<double> knobs =
            kind == hw::AccelKind::Regex
                ? std::vector<double>{1600.0, 3200.0}
                : std::vector<double>{16000.0, 40000.0};
        for (const auto &p : cal_profiles) {
            const auto &w = workloadOf(nf, p);
            for (double knob : knobs) {
                const auto &bench =
                    library_.accelBench(kind, 0.0, knob);
                auto ms =
                    runScreened({w, bench.workload}, "calibration");
                ++accel_runs;
                if (!ms)
                    continue; // calibrate() copes with fewer points
                AccelCalibrationPoint pt;
                pt.benchServiceTime = bench.serviceTime;
                pt.measuredThroughput = (*ms)[0].throughput;
                pt.mtbr = p.mtbr;
                pt.payloadBytes = static_cast<double>(
                    net::PacketBuilder::payloadForFrame(
                        p.packetSize, net::IpProto::Udp));
                points.push_back(pt);
            }
        }
        AccelQueueModel am;
        if (auto st = am.calibrate(points); st) {
            model.accel_[k] = std::move(am);
        } else {
            // An uncalibratable accelerator model no longer aborts
            // the run: the model predicts without it, degraded.
            model.markAccelDegraded(kind, st.message());
            if (report)
                ++report->subModelsDegraded;
        }
    }
    cal_span->field("runs", static_cast<std::uint64_t>(accel_runs));
    cal_span.reset();
    if (report)
        report->accelCalibrationRuns = accel_runs;

    // ---- Execution pattern detection (§4.2) ----
    TraceSpan pattern_span("train.pattern");
    bool any_accel = false;
    for (int k = 0; k < hw::numAccelKinds; ++k)
        any_accel |= static_cast<bool>(model.accel_[k]);
    if (!any_accel) {
        // Single-resource: Eq. 3 and Eq. 4 coincide; the declared
        // default (run-to-completion) is used.
        model.pattern_ = fw::ExecutionPattern::RunToCompletion;
    } else {
        // Joint-contention probes: both resources must be pressed
        // hard simultaneously, otherwise Eq. 3 and Eq. 4 coincide
        // and the detector reads noise. Per-resource drops are
        // *measured* by co-running the NF with one bench at a time,
        // then the joint run picks the composition branch that fits.
        std::size_t n_mem = library_.memBenches().size();
        const auto &w_nf = workloadOf(nf, defaults);
        auto solo_ms = runScreened({w_nf}, "pattern-solo");
        double solo_meas = solo_ms ? (*solo_ms)[0].throughput : 0.0;
        std::vector<PatternObservation> obs;
        // Open-loop moderate accelerator load: the additive regime
        // where the two branches of Eq. 7 differ most (closed-loop
        // saturation pins every NF at its round-robin share, where
        // they coincide).
        for (const auto &[mem_idx, rx_rate] :
             std::vector<std::pair<std::size_t, double>>{
                 {n_mem - 2, 150e3},
                 {n_mem - 8, 250e3},
                 {n_mem / 2, 350e3},
                 {n_mem - 5, 100e3}}) {
            if (solo_meas <= 0.0)
                break; // no usable solo baseline for drops
            const auto &mem = library_.memBenches()[
                mem_idx % library_.memBenches().size()];

            PatternObservation o;
            o.soloThroughput = std::max(1.0, solo_meas);

            // Memory-only drop (measured).
            auto m_mem =
                runScreened({w_nf, mem.workload}, "pattern-mem");
            if (!m_mem)
                continue;
            o.drops.push_back(std::max(
                0.0, o.soloThroughput - (*m_mem)[0].throughput));

            // Accelerator-only drops (measured), and the joint
            // deployment.
            std::vector<fw::WorkloadProfile> deploy = {w_nf,
                                                       mem.workload};
            bool complete = true;
            for (int k = 0; k < hw::numAccelKinds; ++k) {
                if (!model.accel_[k])
                    continue;
                auto kind = static_cast<hw::AccelKind>(k);
                double knob =
                    kind == hw::AccelKind::Regex ? 800.0 : 4000.0;
                const auto &bench =
                    library_.accelBench(kind, rx_rate, knob);
                auto m_k = runScreened({w_nf, bench.workload},
                                       "pattern-accel");
                if (!m_k) {
                    complete = false;
                    break;
                }
                o.drops.push_back(std::max(
                    0.0, o.soloThroughput - (*m_k)[0].throughput));
                deploy.push_back(bench.workload);
            }
            if (!complete)
                continue;
            if (deploy.size() > 4)
                deploy.resize(4); // core budget
            auto ms = runScreened(deploy, "pattern-joint");
            if (!ms)
                continue;
            o.measuredThroughput = (*ms)[0].throughput;
            obs.push_back(std::move(o));
        }
        if (obs.empty()) {
            // Every probe was lost to faults: keep the declared
            // default instead of reading noise.
            model.pattern_ = fw::ExecutionPattern::RunToCompletion;
            warnEvent("profiler", "pattern-detection-skipped",
                      {{"nf", nf.name()},
                       {"reason", "no usable probe measurements"}});
        } else {
            model.pattern_ = detectPattern(obs);
        }
    }
    pattern_span.field("pattern",
                       fw::patternName(model.pattern_));
    model.touch(); // the fields above were written directly
    return model;
}

} // namespace tomur::core
