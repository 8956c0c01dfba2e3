/**
 * @file
 * Self-healing supervisor: acts on the PredictionMonitor's events.
 *
 * PR 4 gave deployments eyes (DRIFT_DETECTED / ACCURACY_DEGRADED /
 * RECALIBRATION_RECOMMENDED events); this layer gives them hands. A
 * Supervisor consumes each sample's monitor events and drives model
 * recalibration through a circuit breaker:
 *
 *            RECALIBRATION_RECOMMENDED
 *   CLOSED ----------------------------> attempt retrain
 *     ^  \                                 |success: stay CLOSED
 *     |   \  failureThreshold consecutive  |
 *     |    `-- failures ----------------> OPEN  (serve degraded
 *     |                                    |     predictions via the
 *     | probe succeeds                     |     PR 1 fallback chain)
 *     |                                    | backoff samples elapse
 *   HALF-OPEN <----------------------------'
 *     | probe fails: re-OPEN with doubled backoff
 *
 * Determinism contract: the decision path reads no wall clock and no
 * RNG — backoff is measured in *sample indices* and every transition
 * is a pure function of (options, sample stream, recalibration
 * outcomes). With a deterministic recalibration function (the PR 2
 * trainer contracts), the supervisor event stream is width-invariant
 * and byte-identical across crash/resume, which the autopilot golden
 * fixture pins.
 *
 * Deadline handling: a recalibration that throws DeadlineExceeded is
 * counted as a deadline miss AND a failure (a trainer that cannot
 * finish inside its budget is as unhealthy as one that produces a
 * degraded model). SimulatedCrash always propagates — a crash must
 * kill the run, that is the point of injecting it.
 *
 * runAutopilot() is the resumable driver tying it all together:
 * schedule replay -> monitor -> supervisor -> periodic checkpoints,
 * with exact-stream resume from a CheckpointStore generation.
 */

#ifndef TOMUR_TOMUR_SUPERVISOR_HH
#define TOMUR_TOMUR_SUPERVISOR_HH

#include <functional>
#include <iosfwd>

#include "common/checkpoint.hh"
#include "common/sampler.hh"
#include "tomur/monitor.hh"

namespace tomur::core {

/** Circuit-breaker states. */
enum class BreakerState
{
    Closed,   ///< healthy: recommendations trigger recalibration
    Open,     ///< tripped: serve degraded, wait out the backoff
    HalfOpen, ///< transient: one probe decides re-open vs close
};

constexpr int numBreakerStates = 3;

/** Wire name ("closed", "open", "half-open"). */
const char *breakerStateName(BreakerState s);

/** Event kinds the supervisor emits. */
enum class SupervisorEventKind
{
    RecalibrationStarted,
    RecalibrationSucceeded,
    RecalibrationFailed,
    BreakerOpened,
    BreakerHalfOpen,
    BreakerClosed,
    DeadlineMissed,
    RetryBudgetExhausted,
    CheckpointWritten,
};

constexpr int numSupervisorEventKinds = 9;

/** Wire name ("RECALIBRATION_STARTED", ...). */
const char *supervisorEventName(SupervisorEventKind kind);

/** One structured supervisor event (JSONL-exportable). */
struct SupervisorEvent
{
    SupervisorEventKind kind =
        SupervisorEventKind::RecalibrationStarted;
    std::size_t sample = 0; ///< 1-based sample index that fired it
    double value = 0.0;     ///< kind-specific statistic
    std::string detail;

    std::string toJson() const;
};

/** Breaker / retry tuning. All windows are sample counts, never
 *  wall-clock, to keep the event stream deterministic. */
struct SupervisorOptions
{
    /** Consecutive recalibration failures that open the breaker. */
    std::size_t failureThreshold = 2;
    /** Samples the breaker stays open after its first trip. */
    std::size_t baseBackoffSamples = 8;
    /** Backoff multiplier per successive trip. */
    double backoffFactor = 2.0;
    /** Backoff ceiling (samples). */
    std::size_t maxBackoffSamples = 64;
    /** Total recalibration attempts allowed (the retry budget);
     *  0 disables recalibration entirely. */
    std::size_t maxRecalibrations = 8;
};

/**
 * Recalibration hook. Retrains (or otherwise repairs) the model and
 * returns ok() on success; on success the hook is responsible for
 * installing the new model wherever predictions are served from.
 * `detail` (if non-null) receives a human-readable outcome note.
 * Must be deterministic in `sample` for the stream contracts to
 * hold.
 */
using RecalibrateFn =
    std::function<Status(std::size_t sample, std::string *detail)>;

/** Rolling summary (the JSONL trailer). */
struct SupervisorSummary
{
    std::size_t samples = 0; ///< last observed sample index
    BreakerState state = BreakerState::Closed;
    std::size_t breakerTrips = 0;
    std::size_t recalibrationsAttempted = 0;
    std::size_t recalibrationsSucceeded = 0;
    std::size_t recalibrationsFailed = 0;
    std::size_t deadlineMisses = 0;
    std::size_t eventCounts[numSupervisorEventKinds] = {};

    std::string toJson() const;
};

class Supervisor
{
  public:
    explicit Supervisor(SupervisorOptions opts = {},
                        RecalibrateFn recalibrate = nullptr);

    /**
     * Feed one sample's monitor events through the breaker state
     * machine. May invoke the recalibration hook (synchronously).
     * Returns the supervisor events this sample fired (also retained
     * in events()).
     */
    std::vector<SupervisorEvent>
    observe(std::size_t sample,
            const std::vector<MonitorEvent> &monitorEvents);

    /** Record that the driver persisted checkpoint `generation` at
     *  this sample (call BEFORE serializing the supervisor into the
     *  checkpoint body, so the generation contains its own event and
     *  a resumed stream stays byte-identical). */
    void noteCheckpointWritten(std::size_t sample,
                               std::uint64_t generation);

    BreakerState state() const { return state_; }

    /** Every event fired so far, in sample order. */
    const std::vector<SupervisorEvent> &events() const
    {
        return events_;
    }

    SupervisorSummary summary() const;

    /** All events as JSONL, then one summary trailer line. */
    void exportJsonl(std::ostream &out) const;

    /** Serialize breaker + bookkeeping + retained events (options
     *  and the hook are reconstructed by the caller, like the
     *  monitor's contract). */
    void serialize(std::ostream &out) const;

    /** Restore serialize() output; parses into temporaries and
     *  commits only on success. */
    Status restore(std::istream &in);

    const SupervisorOptions &options() const { return opts_; }

  private:
    void fire(std::vector<SupervisorEvent> &out,
              SupervisorEventKind kind, std::size_t sample,
              double value, std::string detail);
    /** Run the hook; classifies DeadlineExceeded as a miss+failure,
     *  lets SimulatedCrash propagate. */
    Status attemptRecalibration(std::size_t sample,
                                std::vector<SupervisorEvent> &out);
    std::size_t backoffSamples() const;

    /** The state format serialize() writes and restore() reads
     *  (common/serial.hh). */
    template <class Self, class Sink>
    static void walk(Self &self, Sink &s);

    SupervisorOptions opts_;
    RecalibrateFn recalibrate_;
    std::vector<SupervisorEvent> events_;

    BreakerState state_ = BreakerState::Closed;
    std::size_t lastSample_ = 0;
    std::size_t consecutiveFailures_ = 0;
    std::size_t breakerTrips_ = 0;
    std::size_t reopenAtSample_ = 0; ///< Open -> HalfOpen at this sample
    std::size_t recalibrationsAttempted_ = 0;
    std::size_t recalibrationsSucceeded_ = 0;
    std::size_t recalibrationsFailed_ = 0;
    std::size_t deadlineMisses_ = 0;
    bool budgetExhaustedNoted_ = false;
};

// ---------------------------------------------------------------
// Autopilot: resumable monitored replay under supervision
// ---------------------------------------------------------------

/** Autopilot tuning on top of the replay/monitor/supervisor knobs. */
struct AutopilotOptions
{
    ReplayOptions replay{};
    /** Write a checkpoint every N samples (0 = never). */
    std::size_t checkpointEverySamples = 0;
    /** Resume from the newest valid generation when one exists. */
    bool resume = false;
    /**
     * Cooperative stop request (e.g. the CLI's SIGTERM/SIGINT flag).
     * Checked once per sample; when it returns true the loop writes
     * a final checkpoint (if a store is attached) and returns with
     * stoppedEarly set — a clean, resumable exit instead of dying
     * mid-generation. Null = never stop early.
     */
    std::function<bool()> stopRequested;
    /**
     * Optional sampling profiler for the replay loop's phases
     * (solve, predict, measure, ingest, supervise, checkpoint).
     * Pure observability: the profiler draws from its own seeded
     * gap stream and never touches a decision path, so attaching
     * one cannot perturb the event stream. Null = no profiling.
     */
    SamplingProfiler *profiler = nullptr;
    /**
     * Chaos hook: invoked serially at the top of every sample (after
     * the cooperative deadline check, before the bias switch and any
     * measurement), with the 0-based sample index about to run. The
     * chaos-campaign runner uses it to apply scheduled fault actions
     * mid-run. The callee must be deterministic given the sample
     * index — it is re-invoked for the same indices on a crash-resume
     * replay — and must consume no inner-testbed randomness of its
     * own (setConfig/setCrashPoint style mutations only). Null = off.
     */
    std::function<void(std::size_t)> beforeSample;
};

/** Autopilot outcome. */
struct AutopilotResult
{
    std::size_t samples = 0;     ///< total samples in the schedule
    std::size_t startSample = 0; ///< samples skipped via resume
    /** A cooperative stop request ended the run before the schedule
     *  did; resume from the final checkpoint to continue. */
    bool stoppedEarly = false;
    std::size_t stoppedAtSample = 0; ///< samples completed at stop
    MonitorSummary monitorSummary;
    SupervisorSummary supervisorSummary;
};

/**
 * Supervised, crash-resumable schedule replay. Per sample: noise-free
 * solo baseline -> predictDetailed -> measured co-run -> monitor
 * ingest -> supervisor observe (which may recalibrate) -> periodic
 * checkpoint. While the breaker is open the model is quarantined via
 * markMemoryDegraded, so predictions flow through the PR 1 fallback
 * chain instead of a known-bad model.
 *
 * The checkpoint captures everything the stream depends on: sample
 * cursor, model, monitor + supervisor state, and the noise / fault
 * RNG streams — so a run killed at any point and restarted with
 * resume=true produces a monitor+supervisor event stream
 * byte-identical to an uninterrupted run. The body (`tomur_autopilot
 * 2`) names the model by its contentDigest() on a `model_blob` line;
 * the model body itself is a store blob, serialized only when the store
 * lacks that digest, i.e. once per model version.
 *
 * This is the only replay loop. With maxRecalibrations = 0 and a
 * null store it is a plain monitored replay: the supervisor never
 * calls its hook and never opens the breaker, so the model is never
 * touched (the CLI `monitor` preset).
 *
 * `store` may be null (no checkpointing). Corrupt checkpoints, and
 * those whose model blob is missing or corrupt, fall back
 * generation-by-generation inside the store; an empty store with
 * resume=true simply starts fresh.
 */
Result<AutopilotResult>
runAutopilot(ReplayContext &ctx,
             const std::vector<ScheduleStep> &schedule,
             PredictionMonitor &monitor, Supervisor &supervisor,
             CheckpointStore *store, const AutopilotOptions &opts);

/**
 * The model an autopilot checkpoint references: parses the body's
 * header, loads its model blob, and checks that the loaded model's
 * contentDigest() matches the reference. Rejects bodies of another
 * version with FailedPrecondition.
 */
Result<TomurModel> loadCheckpointModel(const CheckpointRecord &rec);

/**
 * Resume from checkpoint `rec`: the model its blob holds, the monitor
 * and supervisor state, and the testbeds' RNG streams. All or
 * nothing: on error the live objects are unchanged. Returns the
 * number of samples the checkpoint had completed.
 */
Result<std::size_t> restoreCheckpoint(ReplayContext &ctx,
                                      PredictionMonitor &monitor,
                                      Supervisor &supervisor,
                                      const CheckpointRecord &rec);

} // namespace tomur::core

#endif // TOMUR_TOMUR_SUPERVISOR_HH
