#include "tomur/supervisor.hh"

#include <cmath>
#include <limits>
#include <optional>
#include <ostream>
#include <sstream>
#include <utility>

#include "common/deadline.hh"
#include "common/logging.hh"
#include "common/serial.hh"
#include "common/strutil.hh"
#include "common/telemetry.hh"
#include "common/trace.hh"

namespace tomur::core {

namespace {

/** tomur_supervisor_* metrics (looked up once). */
struct SupervisorMetrics
{
    Counter &events =
        metrics().counter("tomur_supervisor_events_total");
    Counter &breakerOpen =
        metrics().counter("tomur_supervisor_breaker_open_total");
    Counter &breakerClosed =
        metrics().counter("tomur_supervisor_breaker_closed_total");
    Counter &recalibrations =
        metrics().counter("tomur_supervisor_recalibrations_total");
    Counter &recalFailures = metrics().counter(
        "tomur_supervisor_recalibration_failures_total");
    Counter &deadlineMissed =
        metrics().counter("tomur_supervisor_deadline_missed_total");
    Counter &checkpoints =
        metrics().counter("tomur_supervisor_checkpoints_total");
    Gauge &breakerState =
        metrics().gauge("tomur_supervisor_breaker_state");
};

SupervisorMetrics &
supMetrics()
{
    static SupervisorMetrics sm;
    return sm;
}

} // namespace

const char *
breakerStateName(BreakerState s)
{
    switch (s) {
      case BreakerState::Closed:
        return "closed";
      case BreakerState::Open:
        return "open";
      case BreakerState::HalfOpen:
        return "half-open";
    }
    panic("breakerStateName: bad state");
}

const char *
supervisorEventName(SupervisorEventKind kind)
{
    switch (kind) {
      case SupervisorEventKind::RecalibrationStarted:
        return "RECALIBRATION_STARTED";
      case SupervisorEventKind::RecalibrationSucceeded:
        return "RECALIBRATION_SUCCEEDED";
      case SupervisorEventKind::RecalibrationFailed:
        return "RECALIBRATION_FAILED";
      case SupervisorEventKind::BreakerOpened:
        return "BREAKER_OPENED";
      case SupervisorEventKind::BreakerHalfOpen:
        return "BREAKER_HALF_OPEN";
      case SupervisorEventKind::BreakerClosed:
        return "BREAKER_CLOSED";
      case SupervisorEventKind::DeadlineMissed:
        return "DEADLINE_MISSED";
      case SupervisorEventKind::RetryBudgetExhausted:
        return "RETRY_BUDGET_EXHAUSTED";
      case SupervisorEventKind::CheckpointWritten:
        return "CHECKPOINT_WRITTEN";
    }
    panic("supervisorEventName: bad event kind");
}

std::string
SupervisorEvent::toJson() const
{
    std::string line = "{\"supervisor_event\":\"";
    line += supervisorEventName(kind);
    line += strf("\",\"sample\":%llu", (unsigned long long)sample);
    line += ",\"value\":\"" + traceFormat(value) + "\"";
    line += ",\"detail\":\"" + jsonEscape(detail) + "\"}";
    return line;
}

std::string
SupervisorSummary::toJson() const
{
    std::string line = strf(
        "{\"supervisor_summary\":{\"samples\":%llu,\"state\":\"%s\","
        "\"breaker_trips\":%llu",
        (unsigned long long)samples, breakerStateName(state),
        (unsigned long long)breakerTrips);
    line += strf(",\"recalibrations\":{\"attempted\":%llu,"
                 "\"succeeded\":%llu,\"failed\":%llu}",
                 (unsigned long long)recalibrationsAttempted,
                 (unsigned long long)recalibrationsSucceeded,
                 (unsigned long long)recalibrationsFailed);
    line += strf(",\"deadline_misses\":%llu",
                 (unsigned long long)deadlineMisses);
    line += ",\"events\":{";
    for (int k = 0; k < numSupervisorEventKinds; ++k) {
        if (k)
            line += ",";
        line += "\"";
        line +=
            supervisorEventName(static_cast<SupervisorEventKind>(k));
        line += strf("\":%llu", (unsigned long long)eventCounts[k]);
    }
    line += "}}}";
    return line;
}

Supervisor::Supervisor(SupervisorOptions opts,
                       RecalibrateFn recalibrate)
    : opts_(opts), recalibrate_(std::move(recalibrate))
{
    supMetrics().breakerState.set(
        static_cast<double>(static_cast<int>(state_)));
}

void
Supervisor::fire(std::vector<SupervisorEvent> &out,
                 SupervisorEventKind kind, std::size_t sample,
                 double value, std::string detail)
{
    SupervisorEvent ev;
    ev.kind = kind;
    ev.sample = sample;
    ev.value = value;
    ev.detail = std::move(detail);

    supMetrics().events.inc();
    if (tracer().enabled()) {
        tracePoint("supervisor.event",
                   {{"kind", supervisorEventName(kind)},
                    {"value", traceFormat(value)},
                    {"state", breakerStateName(state_)}},
                   static_cast<std::int64_t>(sample));
    }
    events_.push_back(ev);
    out.push_back(std::move(ev));
}

std::size_t
Supervisor::backoffSamples() const
{
    // trips counts the open we are computing the backoff for, so the
    // first trip waits baseBackoffSamples, the next base*factor, ...
    double backoff = static_cast<double>(opts_.baseBackoffSamples);
    for (std::size_t t = 1; t < breakerTrips_; ++t)
        backoff *= opts_.backoffFactor;
    backoff = std::min(
        backoff, static_cast<double>(opts_.maxBackoffSamples));
    return static_cast<std::size_t>(backoff);
}

Status
Supervisor::attemptRecalibration(std::size_t sample,
                                 std::vector<SupervisorEvent> &out)
{
    ++recalibrationsAttempted_;
    supMetrics().recalibrations.inc();
    fire(out, SupervisorEventKind::RecalibrationStarted, sample,
         static_cast<double>(recalibrationsAttempted_),
         strf("attempt %zu of %zu", recalibrationsAttempted_,
              opts_.maxRecalibrations));

    Status st = Status::ok();
    std::string detail;
    if (!recalibrate_) {
        st = Status::failedPrecondition("no recalibration hook");
    } else {
        try {
            st = recalibrate_(sample, &detail);
        } catch (const SimulatedCrash &) {
            throw; // a crash must kill the run — that is its job
        } catch (const DeadlineExceeded &e) {
            ++deadlineMisses_;
            supMetrics().deadlineMissed.inc();
            fire(out, SupervisorEventKind::DeadlineMissed, sample,
                 static_cast<double>(deadlineMisses_), e.what());
            st = Status::unavailable(e.what());
        } catch (const std::exception &e) {
            st = Status::unavailable(
                strf("recalibration threw: %s", e.what()));
        }
    }

    if (st.isOk()) {
        ++recalibrationsSucceeded_;
        fire(out, SupervisorEventKind::RecalibrationSucceeded,
             sample,
             static_cast<double>(recalibrationsSucceeded_),
             detail.empty() ? "model retrained" : detail);
    } else {
        ++recalibrationsFailed_;
        supMetrics().recalFailures.inc();
        fire(out, SupervisorEventKind::RecalibrationFailed, sample,
             static_cast<double>(consecutiveFailures_ + 1),
             st.message());
    }
    return st;
}

std::vector<SupervisorEvent>
Supervisor::observe(std::size_t sample,
                    const std::vector<MonitorEvent> &monitorEvents)
{
    std::vector<SupervisorEvent> fired;
    lastSample_ = sample;

    // ---- Open: wait out the backoff, then probe half-open ----
    if (state_ == BreakerState::Open) {
        if (sample < reopenAtSample_)
            return fired; // still backing off; recommendations gated
        state_ = BreakerState::HalfOpen;
        supMetrics().breakerState.set(
            static_cast<double>(static_cast<int>(state_)));
        fire(fired, SupervisorEventKind::BreakerHalfOpen, sample,
             static_cast<double>(breakerTrips_),
             strf("backoff elapsed after trip %zu, probing",
                  breakerTrips_));
        Status probe = attemptRecalibration(sample, fired);
        if (probe.isOk()) {
            state_ = BreakerState::Closed;
            consecutiveFailures_ = 0;
            supMetrics().breakerState.set(
                static_cast<double>(static_cast<int>(state_)));
            supMetrics().breakerClosed.inc();
            fire(fired, SupervisorEventKind::BreakerClosed, sample,
                 static_cast<double>(breakerTrips_),
                 "half-open probe succeeded");
        } else {
            ++breakerTrips_;
            state_ = BreakerState::Open;
            std::size_t backoff = backoffSamples();
            reopenAtSample_ = sample + backoff;
            supMetrics().breakerState.set(
                static_cast<double>(static_cast<int>(state_)));
            supMetrics().breakerOpen.inc();
            fire(fired, SupervisorEventKind::BreakerOpened, sample,
                 static_cast<double>(backoff),
                 strf("half-open probe failed (trip %zu, backoff "
                      "%zu samples): %s",
                      breakerTrips_, backoff,
                      probe.message().c_str()));
        }
        return fired;
    }

    // ---- Closed: act on recalibration recommendations ----
    bool recommended = false;
    for (const auto &ev : monitorEvents) {
        if (ev.kind == MonitorEventKind::RecalibrationRecommended) {
            recommended = true;
            break;
        }
    }
    if (!recommended)
        return fired;

    if (recalibrationsAttempted_ >= opts_.maxRecalibrations) {
        if (!budgetExhaustedNoted_) {
            budgetExhaustedNoted_ = true;
            fire(fired, SupervisorEventKind::RetryBudgetExhausted,
                 sample,
                 static_cast<double>(recalibrationsAttempted_),
                 strf("retry budget %zu spent; further "
                      "recommendations ignored",
                      opts_.maxRecalibrations));
            warnEvent("supervisor", "retry-budget-exhausted",
                      {{"attempts",
                        std::to_string(recalibrationsAttempted_)}});
        }
        return fired;
    }

    Status st = attemptRecalibration(sample, fired);
    if (st.isOk()) {
        consecutiveFailures_ = 0;
        return fired;
    }
    ++consecutiveFailures_;
    if (consecutiveFailures_ >= opts_.failureThreshold) {
        ++breakerTrips_;
        state_ = BreakerState::Open;
        std::size_t backoff = backoffSamples();
        reopenAtSample_ = sample + backoff;
        supMetrics().breakerState.set(
            static_cast<double>(static_cast<int>(state_)));
        supMetrics().breakerOpen.inc();
        fire(fired, SupervisorEventKind::BreakerOpened, sample,
             static_cast<double>(backoff),
             strf("%zu consecutive failures (trip %zu, backoff %zu "
                  "samples): %s",
                  consecutiveFailures_, breakerTrips_, backoff,
                  st.message().c_str()));
        warnEvent("supervisor", "breaker-opened",
                  {{"sample", std::to_string(sample)},
                   {"backoff", std::to_string(backoff)}});
    }
    return fired;
}

void
Supervisor::noteCheckpointWritten(std::size_t sample,
                                  std::uint64_t generation)
{
    std::vector<SupervisorEvent> sinkhole;
    supMetrics().checkpoints.inc();
    fire(sinkhole, SupervisorEventKind::CheckpointWritten, sample,
         static_cast<double>(generation),
         strf("generation %llu", (unsigned long long)generation));
}

SupervisorSummary
Supervisor::summary() const
{
    SupervisorSummary sum;
    sum.samples = lastSample_;
    sum.state = state_;
    sum.breakerTrips = breakerTrips_;
    sum.recalibrationsAttempted = recalibrationsAttempted_;
    sum.recalibrationsSucceeded = recalibrationsSucceeded_;
    sum.recalibrationsFailed = recalibrationsFailed_;
    sum.deadlineMisses = deadlineMisses_;
    for (const auto &ev : events_)
        ++sum.eventCounts[static_cast<int>(ev.kind)];
    return sum;
}

void
Supervisor::exportJsonl(std::ostream &out) const
{
    for (const auto &ev : events_)
        out << ev.toJson() << "\n";
    out << summary().toJson() << "\n";
}

namespace {

/** Version of the supervisor_state format. */
constexpr int kStateVersion = 1;

/** Bound on a restored event list (a run fires a handful per
 *  recalibration). */
constexpr std::size_t kMaxEvents = 1'000'000;

} // namespace

template <class Self, class Sink>
void
Supervisor::walk(Self &self, Sink &s)
{
    s.tag("supervisor_state");
    int version = kStateVersion;
    s.integer(version);
    s.check(version == kStateVersion, "unsupported version");
    s.endLine();
    s.tag("breaker");
    s.enumerated(self.state_, numBreakerStates);
    s.integer(self.lastSample_);
    s.integer(self.consecutiveFailures_);
    s.integer(self.breakerTrips_);
    s.integer(self.reopenAtSample_);
    s.endLine();
    s.tag("recal");
    s.integer(self.recalibrationsAttempted_);
    s.integer(self.recalibrationsSucceeded_);
    s.integer(self.recalibrationsFailed_);
    s.integer(self.deadlineMisses_);
    s.flag(self.budgetExhaustedNoted_);
    s.endLine();
    s.tag("events");
    std::size_t n = s.count(self.events_, kMaxEvents);
    s.endLine();
    s.elements(self.events_, n, [&](auto &ev) {
        s.tag("event");
        s.enumerated(ev.kind, numSupervisorEventKinds);
        s.integer(ev.sample);
        s.real(ev.value);
        s.endLine();
        s.tag("detail");
        s.line(ev.detail);
        s.endLine();
    });
}

void
Supervisor::serialize(std::ostream &out) const
{
    std::string text;
    SerialWriter w(text);
    walk(*this, w);
    out << text;
}

Status
Supervisor::restore(std::istream &in)
{
    Supervisor parsed = *this;
    SerialReader r(in);
    walk(parsed, r);
    if (!r.ok())
        return r.status().withContext("supervisor state");
    *this = std::move(parsed);
    supMetrics().events.inc(events_.size());
    supMetrics().breakerState.set(
        static_cast<double>(static_cast<int>(state_)));
    return Status::ok();
}

// ---------------------------------------------------------------
// Autopilot
// ---------------------------------------------------------------

namespace {

/** Checkpoint body format: version 2 references the model by its
 *  contentDigest() instead of embedding it. */
constexpr int kAutopilotBodyVersion = 2;

/** The body's first lines: format version, sample cursor and the
 *  model blob's digest. A body of another version stops after the
 *  version, which the reader refuses with FailedPrecondition rather
 *  than as corrupt data. */
struct BodyHeader
{
    int version = kAutopilotBodyVersion;
    std::size_t samplesDone = 0;
    std::uint64_t modelDigest = 0;
};

template <class Self, class Sink>
void
walkBodyHeader(Self &h, Sink &s)
{
    s.tag("tomur_autopilot");
    s.integer(h.version);
    s.endLine();
    if (h.version != kAutopilotBodyVersion)
        return;
    s.tag("sample");
    s.integer(h.samplesDone);
    s.endLine();
    s.tag("model_blob");
    s.hexDigest(h.modelDigest);
    s.endLine();
}

/** The testbeds' RNG streams; the fault stream exists only on a
 *  fault-injecting measurement path. */
struct RngStreams
{
    RngState noise;
    std::optional<RngState> fault;
};

template <class Self, class Sink>
void
walkRng(Self &st, Sink &s)
{
    for (auto &word : st.s)
        s.integer(word);
    s.flag(st.hasSpare);
    s.real(st.spare);
}

constexpr const char *kFaultRngTags[] = {"fault_rng_absent",
                                         "fault_rng"};

template <class Self, class Sink>
void
walkRngStreams(Self &rng, Sink &s)
{
    s.tag("noise_rng");
    walkRng(rng.noise, s);
    s.endLine();
    bool haveFault = rng.fault.has_value();
    s.keyword(haveFault, kFaultRngTags);
    if (haveFault)
        walkRng(s.present(rng.fault), s);
    s.endLine();
}

/** Serialize everything a resumed run needs into one body; the
 *  model is referenced by `modelDigest`, its blob in the store. */
std::string
buildCheckpointBody(ReplayContext &ctx,
                    const PredictionMonitor &monitor,
                    const Supervisor &supervisor,
                    std::size_t samplesDone, std::uint64_t modelDigest)
{
    std::ostringstream state;
    monitor.serialize(state);
    supervisor.serialize(state);
    std::string body;
    SerialWriter w(body);
    const BodyHeader header{kAutopilotBodyVersion, samplesDone,
                            modelDigest};
    walkBodyHeader(header, w);
    body += state.str();
    RngStreams rng{ctx.soloBed->noiseState(), std::nullopt};
    if (ctx.measureBed)
        rng.fault = ctx.measureBed->faultRngState();
    walkRngStreams(std::as_const(rng), w);
    return body;
}

/**
 * Persist one checkpoint at `samplesDone`: the model blob when the
 * store lacks its digest, then the generation referencing it. A
 * model that cannot be serialized is an error; a store I/O failure
 * only warns (`failEvent`) and skips this checkpoint, as the next one
 * will try again.
 */
Status
writeCheckpoint(ReplayContext &ctx, const PredictionMonitor &monitor,
                Supervisor &supervisor, CheckpointStore &store,
                std::size_t samplesDone, const char *failEvent)
{
    // The CHECKPOINT_WRITTEN event goes in *before* the body is
    // serialized, so the generation carries its own event and a
    // resumed export replays the identical stream.
    supervisor.noteCheckpointWritten(samplesDone,
                                     store.nextGeneration());
    std::string body;
    std::uint64_t digest = 0;
    Status wrote = Status::ok();
    {
        TraceSpan span("checkpoint.serialize");
        digest = ctx.model->contentDigest();
        std::size_t modelBytes = 0;
        if (!store.hasBlob(digest)) {
            std::string bytes;
            if (auto s = ctx.model->saveBody(bytes); !s)
                return s.withContext("autopilot checkpoint");
            modelBytes = bytes.size();
            wrote = store.writeBlob(digest, bytes);
        }
        span.field("model_bytes", static_cast<double>(modelBytes));
        body = buildCheckpointBody(ctx, monitor, supervisor,
                                   samplesDone, digest);
    }
    if (wrote.isOk())
        wrote = store.writeGeneration(body, {digest});
    if (!wrote.isOk()) {
        warnEvent("autopilot", failEvent,
                  {{"sample", std::to_string(samplesDone)},
                   {"error", wrote.message()}});
    }
    return Status::ok();
}

/** Read the body header, refusing a body of another version. */
Status
readBodyHeader(std::istream &in, BodyHeader *header)
{
    SerialReader r(in);
    walkBodyHeader(*header, r);
    if (!r.ok())
        return r.status().withContext("autopilot checkpoint");
    if (header->version != kAutopilotBodyVersion) {
        return Status::failedPrecondition(strf(
            "autopilot checkpoint: unsupported body version %d (this "
            "build reads version %d, which keeps the model in a "
            "content-addressed blob); resume from an empty "
            "checkpoint directory",
            header->version, kAutopilotBodyVersion));
    }
    return Status::ok();
}

/** Load the model blob `digest` of `rec` and check that it holds the
 *  model the reference names. */
Result<TomurModel>
resolveModelBlob(const CheckpointRecord &rec, std::uint64_t digest)
{
    auto blob = rec.blobs.find(digest);
    if (blob == rec.blobs.end()) {
        return Status::corruptData(strf(
            "autopilot checkpoint: model_blob section: generation "
            "%llu does not carry blob %016llx",
            (unsigned long long)rec.generation,
            (unsigned long long)digest));
    }
    TomurModel model;
    if (auto s = model.loadBody(blob->second); !s)
        return s.withContext("autopilot checkpoint model blob");
    if (std::uint64_t got = model.contentDigest(); got != digest) {
        return Status::corruptData(strf(
            "autopilot checkpoint: model_blob section: blob %016llx "
            "holds a model with digest %016llx",
            (unsigned long long)digest, (unsigned long long)got));
    }
    return model;
}

} // namespace

Result<TomurModel>
loadCheckpointModel(const CheckpointRecord &rec)
{
    std::istringstream in(rec.body);
    BodyHeader header;
    if (auto s = readBodyHeader(in, &header); !s)
        return s;
    return resolveModelBlob(rec, header.modelDigest);
}

Result<std::size_t>
restoreCheckpoint(ReplayContext &ctx, PredictionMonitor &monitor,
                  Supervisor &supervisor, const CheckpointRecord &rec)
{
    std::istringstream in(rec.body);
    BodyHeader header;
    if (auto s = readBodyHeader(in, &header); !s)
        return s;
    auto model = resolveModelBlob(rec, header.modelDigest);
    if (!model.isOk())
        return model.status();
    PredictionMonitor parsedMonitor = monitor;
    if (auto s = parsedMonitor.restore(in); !s)
        return s.withContext("autopilot checkpoint");
    Supervisor parsedSupervisor = supervisor;
    if (auto s = parsedSupervisor.restore(in); !s)
        return s.withContext("autopilot checkpoint");
    RngStreams rng;
    SerialReader r(in);
    walkRngStreams(rng, r);
    if (!r.ok())
        return r.status().withContext("autopilot checkpoint");
    if (rng.fault.has_value() != (ctx.measureBed != nullptr)) {
        return Status::failedPrecondition(
            "autopilot checkpoint: measurement-path mismatch "
            "(checkpoint and context disagree about fault "
            "injection)");
    }

    // Commit. The RNG streams go last, so any draws made while
    // rebuilding state (there are none today, but the ordering makes
    // that a non-assumption) are overwritten by the checkpointed
    // cursor.
    monitor = std::move(parsedMonitor);
    supervisor = std::move(parsedSupervisor);
    *ctx.model = std::move(model.value());
    ctx.soloBed->setNoiseState(rng.noise);
    if (ctx.measureBed)
        ctx.measureBed->setFaultRngState(*rng.fault);
    return header.samplesDone;
}

Result<AutopilotResult>
runAutopilot(ReplayContext &ctx,
             const std::vector<ScheduleStep> &schedule,
             PredictionMonitor &monitor, Supervisor &supervisor,
             CheckpointStore *store, const AutopilotOptions &opts)
{
    if (!ctx.trainer || !ctx.model || !ctx.nf || !ctx.soloBed)
        panic("runAutopilot: incomplete context");
    TraceSpan span("supervisor.autopilot");
    span.field("label", ctx.label);
    span.field("steps",
               static_cast<std::uint64_t>(schedule.size()));

    // Resolve workloads and flatten the schedule into one entry per
    // sample, so the checkpoint cursor is a single index. Pre-profile
    // the whole schedule smallest-flow-count-first so the trainer's
    // incremental profiling session warms each flow once; the cache
    // then serves the in-order loop below.
    {
        std::vector<traffic::TrafficProfile> profiles;
        profiles.reserve(schedule.size());
        for (const auto &step : schedule)
            profiles.push_back(step.profile);
        ctx.trainer->prewarmWorkloads(*ctx.nf, std::move(profiles));
    }
    std::vector<std::vector<framework::WorkloadProfile>> deployments;
    std::vector<std::vector<framework::WorkloadProfile>> solos;
    std::vector<std::size_t> stepOfSample;
    for (std::size_t i = 0; i < schedule.size(); ++i) {
        const auto &w =
            ctx.trainer->workloadOf(*ctx.nf, schedule[i].profile);
        std::vector<framework::WorkloadProfile> deploy = {w};
        deploy.insert(deploy.end(), ctx.competitors.begin(),
                      ctx.competitors.end());
        deployments.push_back(deploy);
        solos.push_back({w});
        for (int r = 0; r < schedule[i].repeats; ++r)
            stepOfSample.push_back(i);
    }
    const std::size_t total = stepOfSample.size();

    // ---- Resume ----
    std::size_t startSample = 0;
    if (opts.resume && store != nullptr) {
        auto rec = store->loadLatestValid();
        if (rec.isOk()) {
            auto cursor = restoreCheckpoint(ctx, monitor, supervisor,
                                            rec.value());
            if (!cursor.isOk())
                return cursor.status();
            startSample = cursor.value();
            if (startSample > total) {
                return Status::failedPrecondition(strf(
                    "autopilot checkpoint is %zu samples in but "
                    "the schedule only has %zu",
                    startSample, total));
            }
            span.field("resumed_at",
                       static_cast<std::uint64_t>(startSample));
            inform(strf("autopilot: resumed at sample %zu from "
                        "checkpoint generation %llu",
                        startSample,
                        (unsigned long long)
                            rec.value().generation));
        } else if (rec.status().code() != StatusCode::NotFound) {
            // Corrupt beyond recovery is an error; an empty store
            // just means nothing to resume from.
            return rec.status();
        }
    }

    // Re-apply the deterministic drift bias when resuming past its
    // activation point (setConfig keeps the fault-draw stream, and
    // the checkpointed fault RNG state was restored above anyway).
    if (ctx.measureBed && opts.replay.biasAtSample >= 0 &&
        static_cast<long>(startSample) >
            opts.replay.biasAtSample) {
        auto cfg = ctx.measureBed->faultConfig();
        cfg.biasFactor = opts.replay.biasFactor;
        ctx.measureBed->setConfig(cfg);
    }

    // Prewarm the equilibrium solves across the pool (consumes no
    // RNG, so it cannot perturb resume determinism).
    ctx.soloBed->prewarm(solos);
    sim::Testbed &measure =
        ctx.measureBed
            ? static_cast<sim::Testbed &>(*ctx.measureBed)
            : *ctx.soloBed;
    measure.prewarm(deployments);

    // ---- Serial supervised replay ----
    // Profiler sites are registered once, outside the loop, so the
    // per-sample cost on the unsampled path is one countdown
    // decrement per phase.
    SamplingProfiler *prof = opts.profiler;
    int siteSolve = prof ? prof->registerSite("solve") : 0;
    int sitePredict = prof ? prof->registerSite("predict") : 0;
    int siteMeasure = prof ? prof->registerSite("measure") : 0;
    int siteIngest = prof ? prof->registerSite("ingest") : 0;
    int siteSupervise = prof ? prof->registerSite("supervise") : 0;
    int siteCheckpoint = prof ? prof->registerSite("checkpoint") : 0;
    bool stoppedEarly = false;
    std::size_t sample0 = startSample;
    for (; sample0 < total; ++sample0) {
        if (opts.stopRequested && opts.stopRequested()) {
            // Cooperative stop (SIGTERM/SIGINT via the CLI): persist
            // a final checkpoint at the current cursor so a resumed
            // run continues exactly where this one left off, then
            // return cleanly instead of dying mid-generation.
            stoppedEarly = true;
            if (store != nullptr) {
                if (auto s = writeCheckpoint(ctx, monitor, supervisor,
                                             *store, sample0,
                                             "final-checkpoint-failed");
                    !s)
                    return s;
            }
            inform(strf("autopilot: stop requested at sample %zu/"
                        "%zu; final checkpoint written",
                        sample0, total));
            break;
        }
        checkDeadline("supervisor.autopilot");
        if (opts.beforeSample)
            opts.beforeSample(sample0);
        const std::size_t i = stepOfSample[sample0];
        const auto &step = schedule[i];
        const auto &w = deployments[i][0];

        if (ctx.measureBed && opts.replay.biasAtSample >= 0 &&
            static_cast<long>(sample0) == opts.replay.biasAtSample) {
            auto cfg = ctx.measureBed->faultConfig();
            cfg.biasFactor = opts.replay.biasFactor;
            ctx.measureBed->setConfig(cfg);
        }

        // Noise-free solo baseline: consumes no RNG draws, so the
        // only noise consumer in the loop is the measured co-run —
        // exactly one batch per sample, which is what the
        // checkpointed RNG cursor assumes.
        std::vector<sim::Measurement> soloMs;
        {
            SamplingProfiler::Scope scope(prof, siteSolve);
            soloMs = ctx.soloBed->solveNoiseFree(solos[i]);
        }
        double solo =
            soloMs.empty() ? 0.0 : soloMs[0].truthThroughput;
        PredictionBreakdown breakdown;
        {
            SamplingProfiler::Scope scope(prof, sitePredict);
            breakdown = ctx.model->predictDetailed(
                ctx.levels, step.profile, solo);
        }

        double measured = std::numeric_limits<double>::quiet_NaN();
        {
            SamplingProfiler::Scope scope(prof, siteMeasure);
            auto ms = measure.run(deployments[i]);
            for (const auto &m : ms) {
                if (m.nfName == w.nfName) {
                    measured = m.throughput;
                    break;
                }
            }
        }

        std::vector<MonitorEvent> fired;
        {
            SamplingProfiler::Scope scope(prof, siteIngest);
            fired = monitor.ingest(makeMonitorSample(
                ctx.label, step.profile, breakdown, measured));
        }
        std::vector<SupervisorEvent> supEvents;
        {
            SamplingProfiler::Scope scope(prof, siteSupervise);
            supEvents = supervisor.observe(sample0 + 1, fired);
        }
        for (const auto &ev : supEvents) {
            if (ev.kind == SupervisorEventKind::BreakerOpened) {
                // While the breaker is open, predictions must not
                // trust the known-bad model: quarantine it so the
                // PR 1 fallback chain serves solo-hint passthrough
                // (confidence <= 0.25) until a probe retrains it.
                ctx.model->markMemoryDegraded(
                    "circuit breaker open: " + ev.detail);
            }
        }

        if (store != nullptr && opts.checkpointEverySamples > 0 &&
            (sample0 + 1) % opts.checkpointEverySamples == 0) {
            SamplingProfiler::Scope scope(prof, siteCheckpoint);
            if (auto s = writeCheckpoint(ctx, monitor, supervisor,
                                         *store, sample0 + 1,
                                         "checkpoint-write-failed");
                !s)
                return s;
        }
    }

    AutopilotResult res;
    res.samples = total;
    res.startSample = startSample;
    res.stoppedEarly = stoppedEarly;
    res.stoppedAtSample = sample0;
    res.monitorSummary = monitor.summary();
    res.supervisorSummary = supervisor.summary();
    return res;
}

} // namespace tomur::core
