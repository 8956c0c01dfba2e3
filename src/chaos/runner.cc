#include "chaos/runner.hh"

#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

#include "common/checkpoint.hh"
#include "common/deadline.hh"
#include "common/serial.hh"
#include "common/strutil.hh"
#include "common/telemetry.hh"
#include "common/threadpool.hh"
#include "serve/registry.hh"
#include "serve/server.hh"
#include "serve/service.hh"
#include "serve/transport.hh"

namespace tomur::chaos {

namespace fs = std::filesystem;

// ---------------------------------------------------------------
// ChaosWorld
// ---------------------------------------------------------------

ChaosWorld::ChaosWorld(const std::string &nf_name)
    : nf(nfs::makeByName(nf_name, dev)), nfName(nf_name)
{
    core::TrainOptions topts;
    topts.adaptive.quota = 40;
    pristine = trainer->train(*nf, traffic::TrafficProfile::defaults(),
                              topts);
    {
        std::ostringstream body;
        Status saved = pristine.save(body);
        if (saved.isOk())
            pristineBytes = body.str();
    }

    auto ref = lib->referenceContention(
        trainer->workloadOf(*nf, traffic::TrafficProfile::defaults()));
    levels = std::move(ref.levels);
    competitors = std::move(ref.workloads);
}

// ---------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------

namespace {

/** Autopilot checkpoint cadence, in samples. */
constexpr std::size_t kCheckpointEverySamples = 6;
/** Crash-resume attempts before the run is declared failed. */
constexpr std::size_t kMaxResumes = 8;

Counter &
plansCounter()
{
    static Counter &c = metrics().counter("tomur_chaos_plans_total");
    return c;
}

Counter &
crashCounter()
{
    static Counter &c =
        metrics().counter("tomur_chaos_crashes_total");
    return c;
}

Counter &
resumeCounter()
{
    static Counter &c =
        metrics().counter("tomur_chaos_resumes_total");
    return c;
}

std::string
freshSubdir(const std::string &work_dir, const char *name)
{
    fs::path dir = fs::path(work_dir) / name;
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir, ec);
    return dir.string();
}

/** The effective continuous fault state at one sample — a pure
 *  function of (plan, sample), so crash-resume replays it exactly. */
struct EffectiveFaults
{
    double burstProb = 0.0;
    int burstMode = -1; ///< -1 uniform, 0..6 one FaultMode
    double bias = 1.0;
    double accelFactor = 0.0; ///< 0 = accel not degraded
    bool pressure = false;

    bool operator==(const EffectiveFaults &o) const = default;
};

EffectiveFaults
effectiveAt(const FaultPlan &plan, std::size_t sample, bool sticky_bias)
{
    EffectiveFaults e;
    for (const auto &a : plan.actions) {
        bool active =
            sample >= a.at && sample < a.at + a.span;
        switch (a.kind) {
        case ActionKind::FaultBurst:
            if (active && a.magnitude >= e.burstProb) {
                e.burstProb = a.magnitude;
                e.burstMode = a.variant;
            }
            break;
        case ActionKind::Bias:
            if (active || (sticky_bias && sample >= a.at))
                e.bias = a.magnitude;
            break;
        case ActionKind::DegradedAccel:
            if (active)
                e.accelFactor = a.magnitude;
            break;
        case ActionKind::RecalPressure:
            if (active)
                e.pressure = true;
            break;
        default:
            break;
        }
    }
    return e;
}

/** Lower an effective state onto a FaultConfig. */
sim::FaultConfig
configFor(const EffectiveFaults &e, bool crash_now)
{
    sim::FaultConfig cfg;
    if (e.burstProb > 0.0) {
        if (e.burstMode < 0) {
            cfg = sim::FaultConfig::uniformCorruption(e.burstProb);
        } else {
            switch (static_cast<sim::FaultMode>(e.burstMode)) {
            case sim::FaultMode::DroppedMeasurement:
                cfg.dropProb = e.burstProb;
                break;
            case sim::FaultMode::NanCounters:
                cfg.nanProb = e.burstProb;
                break;
            case sim::FaultMode::ZeroCounters:
                cfg.zeroProb = e.burstProb;
                break;
            case sim::FaultMode::SaturatedCounters:
                cfg.saturateProb = e.burstProb;
                break;
            case sim::FaultMode::ThroughputOutlier:
                cfg.outlierProb = e.burstProb;
                break;
            case sim::FaultMode::TruncatedBatch:
                cfg.truncateBatchProb = e.burstProb;
                break;
            case sim::FaultMode::DegradedAccel:
                cfg.degradedAccelEnabled = true;
                break;
            }
        }
    }
    cfg.biasFactor = e.bias;
    if (e.accelFactor > 0.0) {
        cfg.degradedAccelEnabled = true;
        cfg.degradedAccelFactor = e.accelFactor;
    }
    cfg.crashAfterBatches = crash_now ? 0 : -1;
    return cfg;
}

CheckpointCrashPoint
crashPointFor(int variant)
{
    switch (variant) {
    case 1:
        return CheckpointCrashPoint::BeforeAppend;
    case 2:
        return CheckpointCrashPoint::TornAppend;
    case 3:
        return CheckpointCrashPoint::BeforeGeneration;
    case 4:
        return CheckpointCrashPoint::BeforeCompaction;
    default:
        return CheckpointCrashPoint::None;
    }
}

core::MonitorOptions
chaosMonitorOptions()
{
    core::MonitorOptions mopts;
    mopts.cooldown = 6;
    return mopts;
}

// ---------------------------------------------------------------
// Autopilot plans
// ---------------------------------------------------------------

RunOutcome
runAutopilotPlan(ChaosWorld &world, const FaultPlan &plan,
                 const RunnerOptions &opts)
{
    RunOutcome out;
    const bool stickyBias = opts.plant == kPlantStickyBias;
    auto schedule = core::toSchedule(plan.scenario);
    const std::size_t samples = planSamples(plan);

    // Per-plan seeded state over the shared world.
    world.bed.setNoiseState(Rng(deriveSeed(plan.seed, 101)).state());
    world.faulty.setFaultRngState(
        Rng(deriveSeed(plan.seed, 102)).state());
    world.faulty.setConfig({});
    core::TomurModel model = world.pristine;

    auto store_dir = freshSubdir(opts.workDir, "ckpt");
    CheckpointOptions copts;
    copts.generations = 3;
    copts.fsync = false;
    CheckpointStore store(store_dir, copts);

    std::optional<core::PredictionMonitor> monitor;
    monitor.emplace(chaosMonitorOptions());
    const auto sopts = chaosSupervisorOptions();

    auto harvestFaultStats = [&] {
        const auto &s = world.faulty.stats();
        out.faultsInjected += s.total();
        out.faultMeasurements += s.measurements;
        world.faulty.resetStats();
    };

    bool pressureActive = false;
    auto recal = [&](std::size_t, std::string *detail) -> Status {
        if (pressureActive) {
            // Deterministic deadline pressure: a 1-granule budget
            // the two probes below cannot fit into.
            Deadline d = Deadline::afterGranules(1);
            ScopedDeadline scope(d);
            checkDeadline("chaos.recalibrate");
            checkDeadline("chaos.recalibrate");
        }
        model = world.pristine;
        if (detail)
            *detail = "restored pristine model";
        return Status::ok();
    };
    std::optional<core::Supervisor> supervisor;
    supervisor.emplace(sopts, recal);

    core::ReplayContext ctx;
    ctx.trainer = world.trainer.get();
    ctx.model = &model;
    ctx.nf = world.nf.get();
    ctx.levels = world.levels;
    ctx.competitors = world.competitors;
    ctx.soloBed = &world.bed;
    ctx.measureBed = &world.faulty;
    ctx.label = world.nfName;

    // One-shot action bookkeeping lives here, outside the
    // checkpointed state: a crash that fired must not re-fire when
    // its sample is replayed after resume.
    std::vector<bool> fired(plan.actions.size(), false);
    bool sigKnown = false;
    EffectiveFaults lastSig;

    core::AutopilotOptions aopts;
    aopts.checkpointEverySamples = kCheckpointEverySamples;
    aopts.beforeSample = [&](std::size_t sample) {
        EffectiveFaults e = effectiveAt(plan, sample, stickyBias);
        pressureActive = e.pressure;
        bool crashNow = false;
        for (std::size_t k = 0; k < plan.actions.size(); ++k) {
            if (fired[k] || plan.actions[k].at != sample)
                continue;
            if (plan.actions[k].kind == ActionKind::Crash) {
                crashNow = true;
                fired[k] = true;
            } else if (plan.actions[k].kind ==
                       ActionKind::CheckpointCrash) {
                store.setCrashPoint(
                    crashPointFor(plan.actions[k].variant));
                fired[k] = true;
            }
        }
        if (!sigKnown || crashNow || !(e == lastSig)) {
            harvestFaultStats();
            world.faulty.setConfig(configFor(e, crashNow));
            lastSig = e;
            sigKnown = true;
        }
    };

    // Cooperative granule budget, scaled from the plan length; a
    // trip is a no_hang violation.
    Deadline planDeadline = Deadline::afterGranules(
        50000 + static_cast<std::uint64_t>(samples) * 2000);
    ScopedDeadline planScope(planDeadline);

    for (std::size_t attempt = 0; attempt <= kMaxResumes;
         ++attempt) {
        sigKnown = false;
        aopts.resume = attempt > 0;
        try {
            auto res = core::runAutopilot(ctx, schedule, *monitor,
                                          *supervisor, &store,
                                          aopts);
            if (!res) {
                out.error = res.status().toString();
            } else {
                out.completed = true;
                out.samples = res.value().samples;
            }
            break;
        } catch (const SimulatedCrash &) {
            ++out.crashes;
            crashCounter().inc();
            store.setCrashPoint(CheckpointCrashPoint::None);
            harvestFaultStats();
            if (attempt == kMaxResumes) {
                out.error = "crash-resume budget exhausted";
                break;
            }
            // A restart rebuilds the monitor/supervisor and lets
            // the autopilot restore them from the checkpoint.
            monitor.emplace(chaosMonitorOptions());
            supervisor.emplace(sopts, recal);
            ++out.resumes;
            resumeCounter().inc();
        } catch (const DeadlineExceeded &d) {
            out.hung = true;
            out.hangWhere = d.where();
            break;
        } catch (const std::exception &e) {
            out.error = e.what();
            break;
        }
    }
    harvestFaultStats();
    world.faulty.setConfig({});

    out.samples = out.samples == 0 ? samples : out.samples;
    out.monitor = monitor->summary();
    out.supervisor = supervisor->summary();
    out.supervisorEvents = supervisor->events();

    // Last disturbance: the later of the last regime-change monitor
    // event and the end of the last planned (non-crash) fault span.
    for (const auto &ev : monitor->events()) {
        if (ev.kind != core::MonitorEventKind::AccuracyRecovered)
            out.lastDisturbanceSample =
                std::max(out.lastDisturbanceSample, ev.sample);
    }
    for (const auto &a : plan.actions) {
        if (a.kind == ActionKind::Crash ||
            a.kind == ActionKind::CheckpointCrash)
            continue;
        out.lastDisturbanceSample =
            std::max(out.lastDisturbanceSample, a.at + a.span);
    }

    // State-integrity probes.
    // The newest valid generation must also resolve to its model:
    // a frame that verifies but names a missing or mismatched blob
    // would fail the next resume.
    auto rec = store.loadLatestValid();
    if (!rec &&
        rec.status().code() != StatusCode::NotFound) {
        out.checkpointHealthy = false;
        out.checkpointDetail = rec.status().toString();
    } else if (rec) {
        auto resolved = core::loadCheckpointModel(rec.value());
        if (!resolved) {
            out.checkpointHealthy = false;
            out.checkpointDetail = resolved.status().toString();
        }
    }
    {
        std::ostringstream s1;
        Status saved = model.save(s1);
        if (!saved.isOk()) {
            out.modelRoundTripOk = false;
            out.modelDetail = saved.toString();
        } else {
            core::TomurModel reloaded;
            std::istringstream in(s1.str());
            Status loaded = reloaded.load(in);
            std::ostringstream s2;
            if (loaded.isOk())
                loaded = reloaded.save(s2);
            if (!loaded.isOk()) {
                out.modelRoundTripOk = false;
                out.modelDetail = loaded.toString();
            } else if (s2.str() != s1.str()) {
                out.modelRoundTripOk = false;
                out.modelDetail =
                    "save/load/save bytes diverged";
            }
        }
    }

    std::ostringstream streams;
    monitor->exportJsonl(streams);
    supervisor->exportJsonl(streams);
    out.streamHash = fnv1a64(streams.str());
    return out;
}

// ---------------------------------------------------------------
// Serve plans
// ---------------------------------------------------------------

/** One scanned HTTP response off a client's receive buffer. */
struct ScannedResponse
{
    int status = 0;
    bool retryAfter = false;
};

/** Scan complete responses off `rx` (consuming them). */
std::vector<ScannedResponse>
scanResponses(std::string &rx)
{
    std::vector<ScannedResponse> out;
    for (;;) {
        std::size_t hdrEnd = rx.find("\r\n\r\n");
        if (hdrEnd == std::string::npos)
            break;
        std::string headers = rx.substr(0, hdrEnd);
        std::size_t bodyLen = 0;
        std::size_t cl = headers.find("Content-Length:");
        if (cl != std::string::npos)
            bodyLen = std::strtoul(headers.c_str() + cl + 15,
                                   nullptr, 10);
        std::size_t total = hdrEnd + 4 + bodyLen;
        if (rx.size() < total)
            break;
        ScannedResponse r;
        std::size_t sp = headers.find(' ');
        if (sp != std::string::npos)
            r.status = std::atoi(headers.c_str() + sp + 1);
        r.retryAfter =
            headers.find("Retry-After:") != std::string::npos;
        out.push_back(r);
        rx.erase(0, total);
    }
    return out;
}

std::string
corpusFileName(int variant)
{
    switch (variant) {
    case 0:
        return "model-truncated.v2";
    case 1:
        return "model-bitflip.v2";
    default:
        return "model-empty.v2";
    }
}

RunOutcome
runServePlan(ChaosWorld &world, const FaultPlan &plan,
             const RunnerOptions &opts)
{
    RunOutcome out;
    out.serveTarget = true;

    // Corrupt-model corpus for reload drills.
    auto model_dir = freshSubdir(opts.workDir, "models");
    auto writeFile = [&](const std::string &name,
                         const std::string &bytes) {
        std::ofstream f(fs::path(model_dir) / name,
                        std::ios::binary | std::ios::trunc);
        f << bytes;
    };
    const std::string &good = world.pristineBytes;
    writeFile("model-truncated.v2", good.substr(0, good.size() / 2));
    {
        std::string flipped = good;
        if (!flipped.empty())
            flipped[flipped.size() / 2] =
                static_cast<char>(flipped[flipped.size() / 2] ^ 0x20);
        writeFile("model-bitflip.v2", flipped);
    }
    writeFile("model-empty.v2", "");

    serve::ModelRegistry registry;
    registry.install(world.pristine, "chaos-pristine");
    const std::uint64_t baselineVersion = registry.version();
    serve::ModelService service(registry, world.levels,
                                world.nfName);

    serve::ServeOptions so;
    so.maxConnections = 6;
    so.maxQueueDepth = 4;
    so.maxRequestsPerStep = 2;
    so.bucketCapacity = 8.0;
    serve::Server server(so, service);
    serve::MemoryListener listener;
    server.setListener(&listener);

    auto &reloadFails =
        metrics().counter("tomur_server_reload_failures_total");
    const double reloadFailsBefore = reloadFails.value();
    std::size_t corruptReloads = 0;

    // Client population: rotating keep-alive clients whose server
    // half may pass through a fault-injecting transport.
    struct Client
    {
        std::shared_ptr<serve::MemoryTransport> pipe;
        std::string rx;
    };
    std::vector<Client> clients;
    std::size_t transportFaultSeq = 0;
    auto connect = [&](const std::string &id, std::size_t step) {
        Client c;
        c.pipe = std::make_shared<serve::MemoryTransport>();
        std::unique_ptr<serve::Transport> t =
            std::make_unique<serve::SharedTransport>(c.pipe);
        for (const auto &a : plan.actions) {
            if (a.kind == ActionKind::TransportFault &&
                step >= a.at && step < a.at + a.span) {
                serve::TransportFaults tf;
                double rate = a.magnitude;
                switch (a.variant) {
                case 0:
                    tf.shortReadRate = rate;
                    break;
                case 1:
                    tf.shortWriteRate = rate;
                    break;
                case 2:
                    tf.eagainRate = rate;
                    break;
                default:
                    tf.disconnectRate = rate * 0.3;
                    break;
                }
                tf.seed =
                    deriveSeed(plan.seed, 300 + transportFaultSeq++);
                t = std::make_unique<serve::FaultInjectingTransport>(
                    std::move(t), tf);
                break;
            }
        }
        server.addConnection(std::move(t), id);
        clients.push_back(std::move(c));
    };

    Rng rng(deriveSeed(plan.seed, 104));
    const double flowChoices[4] = {8000.0, 16000.0, 32000.0,
                                   64000.0};
    auto predictBody = [&] {
        return strf("{\"flows\": %.0f, \"size\": 512, "
                    "\"mtbr\": 400}",
                    flowChoices[rng.uniformInt(std::uint64_t{4})]);
    };
    auto post = [&](Client &c, const std::string &target,
                    const std::string &body) {
        c.pipe->clientWrite(
            strf("POST %s HTTP/1.1\r\nContent-Length: %zu\r\n\r\n%s",
                 target.c_str(), body.size(), body.c_str()));
    };

    std::ostringstream transcript;
    bool drained_early = false;
    connect("chaos-0", 0);
    for (std::size_t step = 0; step < kServePlanSteps; ++step) {
        for (const auto &a : plan.actions) {
            if (a.at != step)
                continue;
            if (a.kind == ActionKind::CorruptReload) {
                ++corruptReloads;
                if (!clients.empty()) {
                    post(clients.back(), "/reload",
                         strf("{\"model\": \"%s\"}",
                              (fs::path(model_dir) /
                               corpusFileName(a.variant))
                                  .string()
                                  .c_str()));
                }
                if (opts.plant == kPlantRegistryNoCommit) {
                    // The planted regression: a registry whose
                    // commit-on-success guard is disabled publishes
                    // the failed load anyway. install() is the
                    // unconditional path, so it simulates exactly
                    // that — and the invariant below catches it by
                    // observing the version move, not by being told.
                    registry.install(core::TomurModel{},
                                     "chaos-planted-bad-load");
                }
            } else if (a.kind == ActionKind::DrainDrill) {
                server.beginDrain();
                drained_early = true;
            }
        }
        // Rotate the population so transport faults actually apply
        // to fresh connections inside their span.
        if (step > 0 && step % 7 == 0 && !server.draining())
            connect(strf("chaos-%zu", step), step);

        if (!server.draining() && !clients.empty()) {
            post(clients.front(), "/predict", predictBody());
            for (const auto &a : plan.actions) {
                if (a.kind == ActionKind::QueueStorm &&
                    step >= a.at && step < a.at + a.span) {
                    auto n = static_cast<std::size_t>(a.magnitude);
                    for (std::size_t i = 0; i < n; ++i)
                        post(clients.back(), "/predict",
                             predictBody());
                }
            }
        }

        server.step();
        server.tickTokens(0.5);

        for (std::size_t ci = 0; ci < clients.size(); ++ci) {
            clients[ci].rx += clients[ci].pipe->clientRead();
            for (const auto &r : scanResponses(clients[ci].rx)) {
                ++out.serveResponses;
                int cls = r.status / 100;
                ++out.serveStatus[cls >= 1 && cls <= 5 ? cls : 0];
                if (r.status == 500)
                    ++out.serveInternalErrors;
                if ((r.status == 429 || r.status == 503) &&
                    !r.retryAfter && out.retryAfterOnRefusals) {
                    out.retryAfterOnRefusals = false;
                    out.refusalDetail = strf(
                        "status %d at step %zu without Retry-After",
                        r.status, step);
                }
                transcript << step << ' ' << r.status << ' '
                           << (r.retryAfter ? 1 : 0) << '\n';
            }
        }
    }

    if (!server.draining())
        server.beginDrain();
    std::size_t drainSteps = 0;
    while (!server.drained() && drainSteps < 200) {
        server.step();
        ++drainSteps;
    }
    out.drainConverged = server.drained();
    (void)drained_early;

    out.serveInternalErrors += server.stats().internalErrors;

    // Reload integrity: failed hot swaps must keep the prior
    // version serving and be counted.
    if (corruptReloads > 0) {
        if (registry.version() != baselineVersion) {
            out.reloadKeptServing = false;
            out.reloadDetail = strf(
                "registry version %llu after %zu failed reloads "
                "(baseline %llu)",
                static_cast<unsigned long long>(registry.version()),
                corruptReloads,
                static_cast<unsigned long long>(baselineVersion));
        }
        // Not every issued reload reaches the registry (queue
        // storms and drains can shed it first), so the counter is
        // checked against the swaps the registry actually saw fail.
        if (reloadFails.value() - reloadFailsBefore <
            static_cast<double>(registry.swapsFailed()) - 0.5) {
            out.reloadKeptServing = false;
            out.reloadDetail +=
                "; tomur_server_reload_failures_total undercounted";
        }
        // The prior model must still answer.
        serve::HttpRequest probe;
        probe.method = "POST";
        probe.target = "/predict";
        probe.body = "{\"flows\": 16000, \"size\": 512, "
                     "\"mtbr\": 400}";
        auto reply = service.handle(probe);
        if (reply.status != 200 ||
            reply.body.find("predicted_pps") == std::string::npos) {
            out.reloadKeptServing = false;
            out.reloadDetail += strf(
                "; post-reload predict answered %d", reply.status);
        }
    }

    transcript << "stats " << out.serveResponses << ' '
               << server.stats().shed << ' '
               << server.stats().throttled << ' '
               << server.stats().acceptShed << ' '
               << server.stats().internalErrors << '\n';
    out.streamHash = fnv1a64(transcript.str());
    out.completed = true;
    out.samples = kServePlanSteps;
    return out;
}

} // namespace

core::SupervisorOptions
chaosSupervisorOptions()
{
    core::SupervisorOptions sopts;
    sopts.failureThreshold = 2;
    sopts.baseBackoffSamples = 4;
    sopts.backoffFactor = 2.0;
    sopts.maxBackoffSamples = 16;
    sopts.maxRecalibrations = 16;
    return sopts;
}

RunOutcome
runPlan(ChaosWorld &world, const FaultPlan &plan,
        const RunnerOptions &opts)
{
    plansCounter().inc();
    if (plan.target == PlanTarget::Serve)
        return runServePlan(world, plan, opts);
    return runAutopilotPlan(world, plan, opts);
}

} // namespace tomur::chaos
