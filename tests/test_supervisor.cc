/**
 * @file
 * Self-healing runtime tests: the crash-safe checkpoint store (write
 * protocol, corruption corpus, injected crash points, content-
 * addressed model blobs), cooperative
 * deadlines (granule budgets through parallelFor and runBatch), the
 * supervisor's circuit breaker (scripted hooks and a real retrain
 * under heavy fault injection), and the autopilot chaos golden: a run
 * killed mid-replay and resumed from its checkpoint must export a
 * monitor+supervisor event stream byte-identical to an uninterrupted
 * run, at any TOMUR_THREADS width.
 *
 * Golden fixtures live in tests/golden/ (path baked in via
 * TOMUR_GOLDEN_DIR); regenerate with tools/update_goldens.sh or by
 * running this binary with TOMUR_UPDATE_GOLDENS=1.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include "common/checkpoint.hh"
#include "common/deadline.hh"
#include "common/logging.hh"
#include "common/serial.hh"
#include "common/strutil.hh"
#include "common/telemetry.hh"
#include "common/threadpool.hh"
#include "nfs/registry.hh"
#include "tomur/lab.hh"
#include "tomur/supervisor.hh"

namespace tomur {
namespace {

namespace fs = std::filesystem;
namespace fw = framework;
using core::BreakerState;
using core::Supervisor;
using core::SupervisorEventKind;
using core::SupervisorOptions;

/** RAII global pool width (restores the configured width on exit). */
struct PoolWidth
{
    explicit PoolWidth(int threads) { setGlobalThreadCount(threads); }
    ~PoolWidth() { setGlobalThreadCount(configuredThreadCount()); }
};

/** A fresh, empty directory under the test temp root. */
std::string
freshDir(const std::string &name)
{
    fs::path dir = fs::path(::testing::TempDir()) / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
}

/** Offsets of the frames in a checkpoint log: each starts with the
 *  magic, which the payloads these tests write never contain. */
std::vector<std::size_t>
frameStarts(const std::string &log)
{
    std::vector<std::size_t> starts;
    for (auto at = log.find("tomur_ckpt "); at != std::string::npos;
         at = log.find("tomur_ckpt ", at + 1))
        starts.push_back(at);
    return starts;
}

/** `log` without frame `i` (as if it had never been appended). */
std::string
withoutFrame(const std::string &log, std::size_t i)
{
    auto starts = frameStarts(log);
    starts.push_back(log.size());
    return log.substr(0, starts[i]) + log.substr(starts[i + 1]);
}

/** `payload` as one checkpoint log frame. */
std::string
frame(std::string_view payload)
{
    std::string out;
    appendFrame(out, kCheckpointFrame, payload);
    return out;
}

/** Store with fsync off: the tests exercise the protocol, not the
 *  disk, and single-core CI appreciates the difference. */
CheckpointStore
makeStore(const std::string &dir, std::size_t generations = 3)
{
    CheckpointOptions opts;
    opts.generations = generations;
    opts.fsync = false;
    return CheckpointStore(dir, opts);
}

// ---------------------------------------------------------------
// Checkpoint store: write protocol and retention
// ---------------------------------------------------------------

TEST(Checkpoint, WriteAndLoadRoundTrip)
{
    auto dir = freshDir("ckpt_roundtrip");
    auto store = makeStore(dir);
    ASSERT_TRUE(store.writeGeneration("hello autopilot"));
    auto rec = store.loadLatestValid();
    ASSERT_TRUE(rec);
    EXPECT_EQ(rec.value().generation, 1u);
    EXPECT_EQ(rec.value().body, "hello autopilot");
}

TEST(Checkpoint, RetentionPrunesOldestGenerations)
{
    auto dir = freshDir("ckpt_retention");
    auto store = makeStore(dir, 2);
    for (int i = 1; i <= 4; ++i)
        ASSERT_TRUE(store.writeGeneration("gen " + std::to_string(i)));
    auto gens = store.listGenerations();
    ASSERT_EQ(gens.size(), 2u);
    EXPECT_EQ(gens[0], 3u);
    EXPECT_EQ(gens[1], 4u);
    auto rec = store.loadLatestValid();
    ASSERT_TRUE(rec);
    EXPECT_EQ(rec.value().body, "gen 4");
}

TEST(Checkpoint, NumbersContinueAcrossReopen)
{
    auto dir = freshDir("ckpt_reopen");
    {
        auto store = makeStore(dir);
        ASSERT_TRUE(store.writeGeneration("first"));
        ASSERT_TRUE(store.writeGeneration("second"));
    }
    auto store = makeStore(dir);
    EXPECT_EQ(store.nextGeneration(), 3u);
    ASSERT_TRUE(store.writeGeneration("third"));
    auto gens = store.listGenerations();
    ASSERT_EQ(gens.size(), 3u);
    EXPECT_EQ(gens.back(), 3u);
}

TEST(Checkpoint, FrameVerifiesAndRejects)
{
    std::string framed = frame("payload");
    FrameView f;
    ASSERT_TRUE(readFrame(framed, kCheckpointFrame, &f));
    EXPECT_EQ(f.payload, "payload");
    EXPECT_EQ(f.size, framed.size());

    EXPECT_FALSE(readFrame("random bytes", kCheckpointFrame, &f));

    // Flip one body byte: the FNV-1a checksum must catch it.
    std::string flipped = framed;
    flipped.back() ^= 0x01;
    auto st = readFrame(flipped, kCheckpointFrame, &f);
    ASSERT_FALSE(st);
    EXPECT_EQ(st.code(), StatusCode::CorruptData);
}

// ---------------------------------------------------------------
// Checkpoint store: corruption corpus
// ---------------------------------------------------------------

TEST(CheckpointCorruption, TruncatedLatestFallsBackToPrevious)
{
    auto dir = freshDir("ckpt_truncated");
    auto store = makeStore(dir);
    ASSERT_TRUE(store.writeGeneration("good generation"));
    ASSERT_TRUE(store.writeGeneration("torn generation"));
    auto log = readFile(store.logPath());
    auto starts = frameStarts(log);
    ASSERT_EQ(starts.size(), 2u);
    // Cut the log halfway through generation 2's frame.
    writeFile(store.logPath(), log.substr(0, (starts[1] + log.size()) / 2));

    resetWarnCount();
    auto rec = store.loadLatestValid();
    ASSERT_TRUE(rec);
    EXPECT_EQ(rec.value().generation, 1u);
    EXPECT_EQ(rec.value().body, "good generation");
    EXPECT_GT(warnCount(), 0u) << "stale restore must be reported";
}

TEST(CheckpointCorruption, FlippedChecksumByteFallsBack)
{
    auto dir = freshDir("ckpt_bitflip");
    auto store = makeStore(dir);
    ASSERT_TRUE(store.writeGeneration("good generation"));
    ASSERT_TRUE(store.writeGeneration("flipped generation"));
    auto log = readFile(store.logPath());
    log[(frameStarts(log)[1] + log.size()) / 2] ^= 0x10;
    writeFile(store.logPath(), log);

    auto rec = store.loadLatestValid();
    ASSERT_TRUE(rec);
    EXPECT_EQ(rec.value().generation, 1u);
    EXPECT_EQ(rec.value().body, "good generation");
}

TEST(CheckpointCorruption, MissingLatestGenerationFallsBack)
{
    auto dir = freshDir("ckpt_missing");
    auto store = makeStore(dir);
    ASSERT_TRUE(store.writeGeneration("survivor"));
    ASSERT_TRUE(store.writeGeneration("deleted"));
    writeFile(store.logPath(),
              withoutFrame(readFile(store.logPath()), 1));

    auto rec = store.loadLatestValid();
    ASSERT_TRUE(rec);
    EXPECT_EQ(rec.value().generation, 1u);
    EXPECT_EQ(rec.value().body, "survivor");
}

TEST(CheckpointCorruption, EmptyDirectoryIsNotFound)
{
    auto dir = freshDir("ckpt_empty");
    auto store = makeStore(dir);
    auto rec = store.loadLatestValid();
    ASSERT_FALSE(rec);
    EXPECT_EQ(rec.status().code(), StatusCode::NotFound);
}

TEST(CheckpointCorruption, AllGenerationsCorruptIsCorruptData)
{
    auto dir = freshDir("ckpt_allbad");
    auto store = makeStore(dir);
    ASSERT_TRUE(store.writeGeneration("one"));
    ASSERT_TRUE(store.writeGeneration("two"));
    writeFile(store.logPath(), "not a checkpoint at all");

    auto rec = store.loadLatestValid();
    ASSERT_FALSE(rec);
    EXPECT_EQ(rec.status().code(), StatusCode::CorruptData);
    // A reopened store finds no frame at all, which is still corrupt
    // data, not an empty store.
    rec = makeStore(dir).loadLatestValid();
    ASSERT_FALSE(rec);
    EXPECT_EQ(rec.status().code(), StatusCode::CorruptData);
}

// ---------------------------------------------------------------
// Checkpoint store: the log's scan, truncation and compaction
// ---------------------------------------------------------------

TEST(CheckpointLog, TornTailIsTruncatedBeforeTheNextAppend)
{
    auto dir = freshDir("log_torn_tail");
    std::string path;
    {
        auto store = makeStore(dir);
        ASSERT_TRUE(store.writeGeneration("one"));
        ASSERT_TRUE(store.writeGeneration("two"));
        path = store.logPath();
    }
    const std::string valid = readFile(path);
    // Half a frame of generation 3, as a kill mid-append leaves it.
    std::string torn = frame("generation 3 blobs 0\nx");
    writeFile(path, valid + torn.substr(0, torn.size() / 2));

    auto store = makeStore(dir);
    EXPECT_EQ(store.listGenerations(),
              (std::vector<std::uint64_t>{1, 2}));
    EXPECT_EQ(store.nextGeneration(), 3u);
    auto rec = store.loadLatestValid();
    ASSERT_TRUE(rec) << "a torn tail is not corruption";
    EXPECT_EQ(rec.value().body, "two");

    ASSERT_TRUE(store.writeGeneration("three"));
    std::string log = readFile(path);
    EXPECT_EQ(log.substr(0, valid.size()), valid);
    auto starts = frameStarts(log);
    ASSERT_EQ(starts.size(), 3u);
    EXPECT_EQ(starts[2], valid.size())
        << "the append must follow the last valid frame";
    rec = makeStore(dir).loadLatestValid();
    ASSERT_TRUE(rec);
    EXPECT_EQ(rec.value().generation, 3u);
    EXPECT_EQ(rec.value().body, "three");
}

TEST(CheckpointLog, BadFrameNeverHidesALaterGoodOne)
{
    auto dir = freshDir("log_resync");
    {
        auto store = makeStore(dir);
        for (const char *body : {"one", "two", "three"})
            ASSERT_TRUE(store.writeGeneration(body));
    }
    const std::string path = makeStore(dir).logPath();
    const std::string log = readFile(path);
    const std::size_t second = frameStarts(log)[1];
    const std::size_t sizeAt = second + std::strlen("tomur_ckpt 3 ");
    const std::size_t sizeEnd = log.find(' ', sizeAt);
    const std::size_t size =
        std::stoul(log.substr(sizeAt, sizeEnd - sizeAt));
    auto withSize = [&](std::size_t declared) {
        return log.substr(0, sizeAt) + std::to_string(declared) +
               log.substr(sizeEnd);
    };
    std::string flipped = log;
    flipped[frameStarts(log)[2] - 1] ^= 0x01; // generation 2's last byte

    for (const std::string &bad :
         {flipped, withSize(size + 1000), withSize(size - 3)}) {
        writeFile(path, bad);
        auto store = makeStore(dir);
        EXPECT_EQ(store.listGenerations(),
                  (std::vector<std::uint64_t>{1, 3}));
        EXPECT_EQ(store.nextGeneration(), 4u);
        auto rec = store.loadLatestValid();
        ASSERT_TRUE(rec) << rec.status().toString();
        EXPECT_EQ(rec.value().generation, 3u);
        EXPECT_EQ(rec.value().body, "three");
    }
}

TEST(CheckpointLog, LegacyDirectoryIsRefused)
{
    for (const char *legacy :
         {"ckpt-00000001.tomur", "blob-00000000000000a1.tomur"}) {
        auto dir = freshDir("log_legacy");
        writeFile((fs::path(dir) / legacy).string(),
                  frame("blobs 0\nold body"));
        auto store = makeStore(dir);
        auto rec = store.loadLatestValid();
        ASSERT_FALSE(rec);
        EXPECT_EQ(rec.status().code(), StatusCode::FailedPrecondition);
        EXPECT_NE(rec.status().message().find(
                      "resume from an empty checkpoint directory"),
                  std::string::npos)
            << rec.status().toString();
        Status wrote = store.writeGeneration("new");
        EXPECT_EQ(wrote.code(), StatusCode::FailedPrecondition);
        EXPECT_TRUE(store.listGenerations().empty());
        EXPECT_FALSE(fs::exists(store.logPath()));
    }
}

TEST(CheckpointLog, LogStaysBoundedOverAThousandWrites)
{
    auto dir = freshDir("log_bounded");
    auto store = makeStore(dir);
    Counter &compactions =
        metrics().counter("tomur_checkpoint_compactions_total");
    const double before = compactions.value();
    const std::string body(4096, 'b');
    std::uintmax_t appended = 0, largest = 0;
    for (int i = 0; i < 1000; ++i) {
        // A new model every 50 generations, as a retrain makes one.
        const std::uint64_t model = 0x100 + i / 50;
        if (!store.hasBlob(model)) {
            ASSERT_TRUE(store.writeBlob(model, std::string(20000, 'm')));
            appended += 20000;
        }
        ASSERT_TRUE(store.writeGeneration(body + std::to_string(i),
                                          {model}));
        appended += body.size();
        largest = std::max(largest, fs::file_size(store.logPath()));
    }
    // About 4.5 MB went in; the log holds the live tail plus at most
    // the 1 MiB of dead frames that trigger a compaction.
    EXPECT_GT(appended, 4u << 20);
    EXPECT_LT(largest, 3u << 19);
    EXPECT_GE(compactions.value() - before, 3.0);
    auto rec = makeStore(dir).loadLatestValid();
    ASSERT_TRUE(rec) << rec.status().toString();
    EXPECT_EQ(rec.value().generation, 1000u);
    EXPECT_EQ(rec.value().body, body + "999");
    EXPECT_EQ(rec.value().blobs.at(0x100 + 19), std::string(20000, 'm'));
}

TEST(CheckpointLog, OneSyncPerGenerationWrite)
{
    auto dir = freshDir("log_syncs");
    CheckpointStore store(dir); // fsync on, the default
    Counter &syncs = metrics().counter("tomur_checkpoint_syncs_total");
    double before = syncs.value();
    ASSERT_TRUE(store.writeBlob(0xa1, "model one"));
    ASSERT_TRUE(store.writeGeneration("one", {0xa1}));
    // Creating the log also syncs the directory, once.
    EXPECT_EQ(syncs.value() - before, 2.0);
    for (std::uint64_t d = 0xb0; d < 0xb4; ++d) {
        before = syncs.value();
        ASSERT_TRUE(store.writeBlob(d, "model " + std::to_string(d)));
        ASSERT_TRUE(store.writeGeneration("gen", {d}));
        EXPECT_EQ(syncs.value() - before, 1.0)
            << "one fdatasync covers the blob and the generation";
    }
}

// ---------------------------------------------------------------
// Checkpoint store: injected crash points
// ---------------------------------------------------------------

TEST(CheckpointCrash, EveryCrashPointLeavesARecoverableStore)
{
    struct Case
    {
        CheckpointCrashPoint point;
        std::uint64_t survivingGen; ///< after the simulated kill
        const char *survivingBody;
    } cases[] = {
        {CheckpointCrashPoint::BeforeAppend, 1u, "stable"},
        {CheckpointCrashPoint::TornAppend, 1u, "stable"},
        {CheckpointCrashPoint::BeforeGeneration, 1u, "stable"},
        // The append is durable: the new generation survives.
        {CheckpointCrashPoint::BeforeCompaction, 2u, "doomed write"},
    };
    for (const auto &c : cases) {
        auto dir = freshDir("ckpt_crash");
        {
            auto store = makeStore(dir);
            ASSERT_TRUE(store.writeGeneration("stable"));
            store.setCrashPoint(c.point);
            EXPECT_THROW(
                { (void)store.writeGeneration("doomed write"); },
                SimulatedCrash);
        }
        // "Restart": a fresh store over the crashed directory.
        auto reopened = makeStore(dir);
        auto rec = reopened.loadLatestValid();
        ASSERT_TRUE(rec) << "crash point "
                         << static_cast<int>(c.point);
        EXPECT_EQ(rec.value().generation, c.survivingGen);
        EXPECT_EQ(rec.value().body, c.survivingBody);
        // A torn tail is write debris, not a generation.
        for (auto g : reopened.listGenerations())
            EXPECT_LE(g, c.survivingGen);
    }
}

// ---------------------------------------------------------------
// Deadlines: granule budgets at task boundaries
// ---------------------------------------------------------------

TEST(DeadlineTest, GranuleBudgetTripsDeterministically)
{
    Deadline d = Deadline::afterGranules(3);
    EXPECT_FALSE(d.check());
    EXPECT_FALSE(d.check());
    EXPECT_FALSE(d.check());
    EXPECT_TRUE(d.check()) << "fourth granule exceeds the budget";
    EXPECT_TRUE(d.expired());
    EXPECT_EQ(d.checksMade(), 4u);
}

TEST(DeadlineTest, CancelTripsImmediately)
{
    Deadline d = Deadline::never();
    EXPECT_FALSE(d.check());
    d.cancel();
    EXPECT_TRUE(d.check());
}

TEST(DeadlineTest, CheckDeadlineThrowsWhereItTripped)
{
    Deadline d = Deadline::afterGranules(0);
    ScopedDeadline scope(d);
    try {
        checkDeadline("test.phase");
        FAIL() << "expected DeadlineExceeded";
    } catch (const DeadlineExceeded &e) {
        EXPECT_EQ(e.where(), "test.phase");
    }
}

TEST(DeadlineTest, SerialParallelForRunsExactlyTheBudget)
{
    PoolWidth width(1);
    Deadline d = Deadline::afterGranules(3);
    ScopedDeadline scope(d);
    std::atomic<int> ran{0};
    EXPECT_THROW(parallelFor(10, [&](std::size_t) { ++ran; }),
                 DeadlineExceeded);
    // Serial path: a granule either runs the body or trips — zero
    // overshoot.
    EXPECT_EQ(ran.load(), 3);
}

TEST(DeadlineTest, WideParallelForNeverExceedsTheBudget)
{
    PoolWidth width(4);
    Deadline d = Deadline::afterGranules(5);
    ScopedDeadline scope(d);
    std::atomic<int> ran{0};
    EXPECT_THROW(parallelFor(32, [&](std::size_t) { ++ran; }),
                 DeadlineExceeded);
    // Every executed iteration consumed a passing granule check, so
    // at most `budget` bodies ran no matter the interleaving; the
    // loop still drained (no hang) and the error was rethrown.
    EXPECT_LE(ran.load(), 5);
}

TEST(DeadlineTest, MissesAreCountedOncePerDeadline)
{
    auto &misses = metrics().counter("tomur_deadline_misses_total");
    auto before = misses.value();
    Deadline d = Deadline::afterGranules(1);
    (void)d.check();
    (void)d.check(); // trips
    (void)d.check(); // still tripped: no double count
    EXPECT_EQ(misses.value(), before + 1);
}

// ---------------------------------------------------------------
// Supervisor: circuit breaker with scripted hooks
// ---------------------------------------------------------------

/** One RECALIBRATION_RECOMMENDED monitor event at `sample`. */
std::vector<core::MonitorEvent>
recommend(std::size_t sample)
{
    core::MonitorEvent ev;
    ev.kind = core::MonitorEventKind::RecalibrationRecommended;
    ev.sample = sample;
    ev.deployment = "test";
    return {ev};
}

/** Count retained supervisor events of one kind. */
std::size_t
countKind(const Supervisor &sup, SupervisorEventKind kind)
{
    std::size_t n = 0;
    for (const auto &ev : sup.events())
        n += ev.kind == kind;
    return n;
}

SupervisorOptions
fastBreaker()
{
    SupervisorOptions o;
    o.failureThreshold = 2;
    o.baseBackoffSamples = 4;
    o.backoffFactor = 2.0;
    o.maxBackoffSamples = 16;
    o.maxRecalibrations = 16;
    return o;
}

TEST(SupervisorTest, SuccessfulRecalibrationKeepsBreakerClosed)
{
    int calls = 0;
    Supervisor sup(fastBreaker(),
                   [&](std::size_t, std::string *detail) {
                       ++calls;
                       if (detail)
                           *detail = "scripted success";
                       return Status::ok();
                   });
    auto fired = sup.observe(1, recommend(1));
    EXPECT_EQ(sup.state(), BreakerState::Closed);
    EXPECT_EQ(calls, 1);
    ASSERT_EQ(fired.size(), 2u);
    EXPECT_EQ(fired[0].kind, SupervisorEventKind::RecalibrationStarted);
    EXPECT_EQ(fired[1].kind,
              SupervisorEventKind::RecalibrationSucceeded);
    // No recommendation, no hook call.
    EXPECT_TRUE(sup.observe(2, {}).empty());
    EXPECT_EQ(calls, 1);
}

TEST(SupervisorTest, ConsecutiveFailuresOpenTheBreaker)
{
    auto &opens =
        metrics().counter("tomur_supervisor_breaker_open_total");
    auto opensBefore = opens.value();

    bool healthy = false;
    int calls = 0;
    Supervisor sup(fastBreaker(),
                   [&](std::size_t, std::string *) {
                       ++calls;
                       return healthy
                                  ? Status::ok()
                                  : Status::unavailable("scripted");
                   });

    (void)sup.observe(1, recommend(1));
    EXPECT_EQ(sup.state(), BreakerState::Closed) << "one failure";
    (void)sup.observe(2, recommend(2));
    EXPECT_EQ(sup.state(), BreakerState::Open) << "second failure";
    EXPECT_EQ(opens.value(), opensBefore + 1);

    // While open, recommendations are swallowed: no hook calls.
    (void)sup.observe(3, recommend(3));
    (void)sup.observe(4, recommend(4));
    EXPECT_EQ(calls, 2);
    EXPECT_EQ(sup.state(), BreakerState::Open);

    // Backoff (4 samples from sample 2) elapses at sample 6: the
    // half-open probe runs even without a recommendation, succeeds,
    // and closes the breaker.
    healthy = true;
    auto fired = sup.observe(6, {});
    EXPECT_EQ(sup.state(), BreakerState::Closed);
    EXPECT_EQ(calls, 3);
    EXPECT_EQ(countKind(sup, SupervisorEventKind::BreakerHalfOpen),
              1u);
    EXPECT_EQ(countKind(sup, SupervisorEventKind::BreakerClosed), 1u);
    ASSERT_FALSE(fired.empty());
    EXPECT_EQ(fired.back().kind, SupervisorEventKind::BreakerClosed);

    auto sum = sup.summary();
    EXPECT_EQ(sum.breakerTrips, 1u);
    EXPECT_EQ(sum.recalibrationsAttempted, 3u);
    EXPECT_EQ(sum.recalibrationsSucceeded, 1u);
    EXPECT_EQ(sum.recalibrationsFailed, 2u);
}

TEST(SupervisorTest, FailedProbeReopensWithExponentialBackoff)
{
    Supervisor sup(fastBreaker(), [&](std::size_t, std::string *) {
        return Status::unavailable("always broken");
    });

    (void)sup.observe(1, recommend(1));
    (void)sup.observe(2, recommend(2)); // trip 1: backoff 4
    EXPECT_EQ(sup.state(), BreakerState::Open);

    (void)sup.observe(6, {}); // probe fails: trip 2, backoff 8
    EXPECT_EQ(sup.state(), BreakerState::Open);
    (void)sup.observe(13, {}); // still inside backoff (6 + 8 = 14)
    EXPECT_EQ(countKind(sup, SupervisorEventKind::BreakerHalfOpen),
              1u);
    (void)sup.observe(14, {}); // probe fails: trip 3, backoff 16
    EXPECT_EQ(sup.state(), BreakerState::Open);
    (void)sup.observe(30, {}); // probe fails: trip 4, capped at 16
    EXPECT_EQ(sup.summary().breakerTrips, 4u);

    // The BREAKER_OPENED events carry the chosen backoff in `value`.
    std::vector<double> backoffs;
    for (const auto &ev : sup.events()) {
        if (ev.kind == SupervisorEventKind::BreakerOpened)
            backoffs.push_back(ev.value);
    }
    ASSERT_EQ(backoffs.size(), 4u);
    EXPECT_DOUBLE_EQ(backoffs[0], 4.0);
    EXPECT_DOUBLE_EQ(backoffs[1], 8.0);
    EXPECT_DOUBLE_EQ(backoffs[2], 16.0);
    EXPECT_DOUBLE_EQ(backoffs[3], 16.0) << "capped at the ceiling";
}

TEST(SupervisorTest, RetryBudgetExhaustsOnce)
{
    SupervisorOptions o = fastBreaker();
    o.failureThreshold = 100; // never trip: isolate the budget
    o.maxRecalibrations = 2;
    int calls = 0;
    Supervisor sup(o, [&](std::size_t, std::string *) {
        ++calls;
        return Status::unavailable("scripted");
    });
    (void)sup.observe(1, recommend(1));
    (void)sup.observe(2, recommend(2));
    (void)sup.observe(3, recommend(3));
    (void)sup.observe(4, recommend(4));
    EXPECT_EQ(calls, 2);
    EXPECT_EQ(countKind(sup,
                        SupervisorEventKind::RetryBudgetExhausted),
              1u)
        << "the exhaustion event fires exactly once";
}

TEST(SupervisorTest, DeadlineExceededCountsAsMissAndFailure)
{
    Supervisor sup(fastBreaker(), [&](std::size_t, std::string *) {
        throw DeadlineExceeded("trainer.phase");
        return Status::ok();
    });
    auto fired = sup.observe(1, recommend(1));
    auto sum = sup.summary();
    EXPECT_EQ(sum.deadlineMisses, 1u);
    EXPECT_EQ(sum.recalibrationsFailed, 1u);
    EXPECT_EQ(countKind(sup, SupervisorEventKind::DeadlineMissed),
              1u);
    bool sawMiss = false;
    for (const auto &ev : fired)
        sawMiss |= ev.kind == SupervisorEventKind::DeadlineMissed;
    EXPECT_TRUE(sawMiss);
}

TEST(SupervisorTest, SimulatedCrashPropagates)
{
    Supervisor sup(fastBreaker(), [&](std::size_t, std::string *) {
        throw SimulatedCrash("recalibration");
        return Status::ok();
    });
    EXPECT_THROW((void)sup.observe(1, recommend(1)), SimulatedCrash);
}

TEST(SupervisorTest, SerializeRestoreContinuesIdentically)
{
    auto failing = [](std::size_t, std::string *) {
        return Status::unavailable("scripted");
    };
    Supervisor a(fastBreaker(), failing);
    (void)a.observe(1, recommend(1));
    (void)a.observe(2, recommend(2)); // open, reopen at 6
    a.noteCheckpointWritten(2, 7);

    std::ostringstream state;
    a.serialize(state);

    Supervisor b(fastBreaker(), failing);
    std::istringstream in(state.str());
    ASSERT_TRUE(b.restore(in));
    EXPECT_EQ(b.state(), a.state());

    std::ostringstream ja, jb;
    a.exportJsonl(ja);
    b.exportJsonl(jb);
    EXPECT_EQ(ja.str(), jb.str());

    // Both continue the same way: probe at sample 6 fails, reopens.
    (void)a.observe(6, {});
    (void)b.observe(6, {});
    std::ostringstream ja2, jb2;
    a.exportJsonl(ja2);
    b.exportJsonl(jb2);
    EXPECT_EQ(ja2.str(), jb2.str());
}

TEST(SupervisorTest, RestoreRejectsGarbage)
{
    Supervisor sup(fastBreaker(), nullptr);
    std::istringstream garbage("not supervisor state");
    auto st = sup.restore(garbage);
    ASSERT_FALSE(st);
    EXPECT_EQ(st.code(), StatusCode::CorruptData);

    std::istringstream badKind(
        "supervisor_state 1\nbreaker 9 0 0 0 0\n");
    EXPECT_FALSE(sup.restore(badKind));
}

// ---------------------------------------------------------------
// Shared heavy fixture: a real trainer over the fault testbed
// ---------------------------------------------------------------

/** A full training/measurement environment around FlowStats (the
 *  cheapest NF: no accelerators, so reference contention is just the
 *  heavy mem-bench). `trainInitial` is false when the model is about
 *  to be restored from a checkpoint instead. */
struct AutoEnv : core::Lab
{
    explicit AutoEnv(bool trainInitial)
    {
        nf = nfs::makeByName("FlowStats", dev);
        if (trainInitial)
            model = trainer->train(*nf, defaults(), trainOptions());

        auto ref = lib->referenceContention(
            trainer->workloadOf(*nf, defaults()));
        levels = std::move(ref.levels);
        competitors = std::move(ref.workloads);
    }

    static traffic::TrafficProfile
    defaults()
    {
        return traffic::TrafficProfile::defaults();
    }

    static core::TrainOptions
    trainOptions()
    {
        core::TrainOptions topts;
        topts.adaptive.quota = 40;
        return topts;
    }

    core::ReplayContext
    ctx()
    {
        core::ReplayContext c;
        c.trainer = trainer.get();
        c.model = &model;
        c.nf = nf.get();
        c.levels = levels;
        c.competitors = competitors;
        c.soloBed = &bed;
        c.measureBed = &faulty;
        c.label = "FlowStats";
        return c;
    }

    /** Real recalibration: retrain through the (possibly faulted,
     *  possibly biased) measurement path; degraded sub-models count
     *  as failure. */
    core::RecalibrateFn
    recalibrate()
    {
        return [this](std::size_t, std::string *detail) -> Status {
            auto topts = trainOptions();
            topts.screen.verifyBelowRatio = 0.6;
            core::TrainReport report;
            auto fresh =
                trainer->train(*nf, defaults(), topts, &report);
            if (report.subModelsDegraded > 0 ||
                fresh.health().anyDegraded()) {
                return Status::unavailable(
                    "retrain left sub-models degraded");
            }
            model = std::move(fresh);
            if (detail)
                *detail = "retrained";
            return Status::ok();
        };
    }

    std::unique_ptr<fw::NetworkFunction> nf;
    core::TomurModel model;
    std::vector<core::ContentionLevel> levels;
    std::vector<fw::WorkloadProfile> competitors;
};

TEST(DeadlineTest, RunBatchHonoursTheGranuleBudget)
{
    PoolWidth width(1);
    AutoEnv env(/*trainInitial=*/false);
    auto w = env.trainer->workloadOf(*env.nf, AutoEnv::defaults());
    std::vector<std::vector<fw::WorkloadProfile>> batch(6, {w});

    Deadline d = Deadline::afterGranules(2);
    ScopedDeadline scope(d);
    EXPECT_THROW((void)env.bed.runBatch(batch), DeadlineExceeded);
}

// ---------------------------------------------------------------
// Breaker under real fault injection
// ---------------------------------------------------------------

TEST(SupervisorFaults, HeavyCorruptionTripsBreakerCleanProbeCloses)
{
    PoolWidth width(1);
    AutoEnv env(/*trainInitial=*/true);

    // The hook retrains through env.faulty; while `faultsOn`, every
    // measurement is dropped outright, so screening abandons every
    // sample, the retrained model comes back degraded, and the
    // recalibration fails — deterministically, no probabilities.
    sim::FaultConfig dropAll;
    dropAll.dropProb = 1.0;
    bool faultsOn = true;
    auto recal = [&](std::size_t sample,
                     std::string *detail) -> Status {
        env.faulty.setConfig(faultsOn ? dropAll
                                      : sim::FaultConfig{});
        return env.recalibrate()(sample, detail);
    };

    auto &opens =
        metrics().counter("tomur_supervisor_breaker_open_total");
    auto opensBefore = opens.value();

    SupervisorOptions sopts = fastBreaker();
    Supervisor sup(sopts, recal);

    (void)sup.observe(1, recommend(1));
    (void)sup.observe(2, recommend(2));
    ASSERT_EQ(sup.state(), BreakerState::Open)
        << "two corrupted retrains must trip the breaker";
    EXPECT_EQ(opens.value(), opensBefore + 1);

    // Faults cleared: the half-open probe retrains cleanly and the
    // breaker closes again.
    faultsOn = false;
    (void)sup.observe(6, {});
    EXPECT_EQ(sup.state(), BreakerState::Closed);
    EXPECT_EQ(sup.summary().recalibrationsSucceeded, 1u);
    env.faulty.setConfig({});
}

// ---------------------------------------------------------------
// Autopilot chaos golden: crash, resume, byte-identical stream
// ---------------------------------------------------------------

#ifndef TOMUR_GOLDEN_DIR
#define TOMUR_GOLDEN_DIR "tests/golden"
#endif

std::string
goldenPath(const std::string &file)
{
    return std::string(TOMUR_GOLDEN_DIR) + "/" + file;
}

void
checkGolden(const std::string &file, const std::string &actual)
{
    const std::string path = goldenPath(file);
    if (std::getenv("TOMUR_UPDATE_GOLDENS")) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << actual;
        return;
    }
    std::string expected = readFile(path);
    ASSERT_FALSE(expected.empty())
        << path << " is missing; regenerate with "
        << "tools/update_goldens.sh";
    EXPECT_EQ(expected, actual)
        << "golden mismatch for " << file
        << "; if the change is intentional, regenerate with "
        << "tools/update_goldens.sh and review the diff";
}

std::vector<core::ScheduleStep>
goldenSchedule()
{
    auto base = AutoEnv::defaults();
    auto shifted = base.withAttribute(
        traffic::Attribute::FlowCount,
        4.0 * static_cast<double>(base.flowCount));
    return {{base, 14}, {shifted, 14}};
}

/** Monitor with a short event cooldown so the drift detector can
 *  re-fire (and recommend recalibration) inside the 28-sample
 *  schedule. Resume reconstructs the monitor with these same
 *  options, per the serialize() contract. */
core::PredictionMonitor
makeGoldenMonitor()
{
    core::MonitorOptions mopts;
    mopts.cooldown = 6;
    return core::PredictionMonitor(mopts);
}

core::AutopilotOptions
goldenOptions()
{
    core::AutopilotOptions aopts;
    aopts.replay.biasAtSample = 8;
    aopts.replay.biasFactor = 0.7;
    aopts.checkpointEverySamples = 5;
    return aopts;
}

std::string
exportStreams(const core::PredictionMonitor &monitor,
              const Supervisor &sup)
{
    std::ostringstream out;
    monitor.exportJsonl(out);
    sup.exportJsonl(out);
    return out.str();
}

/** Uninterrupted supervised replay; the reference stream. */
std::string
runUninterrupted(const std::string &dir)
{
    AutoEnv env(/*trainInitial=*/true);
    auto ctx = env.ctx();
    auto monitor = makeGoldenMonitor();
    Supervisor sup(fastBreaker(), env.recalibrate());
    auto store = makeStore(dir);
    auto res = core::runAutopilot(ctx, goldenSchedule(), monitor,
                                  sup, &store, goldenOptions());
    EXPECT_TRUE(res) << res.status().toString();
    if (res) {
        EXPECT_EQ(res.value().samples, 28u);
        EXPECT_EQ(res.value().startSample, 0u);
    }
    return exportStreams(monitor, sup);
}

/** The same replay killed after `crashAfterBatches` measurement
 *  batches, then resumed in a from-scratch environment (fresh
 *  testbed, fresh bench library, fresh trainer — everything a real
 *  process restart rebuilds) from the surviving checkpoint. */
std::string
runCrashThenResume(const std::string &dir, long crashAfterBatches)
{
    {
        AutoEnv env(/*trainInitial=*/true);
        auto cfg = env.faulty.faultConfig();
        cfg.crashAfterBatches = crashAfterBatches;
        env.faulty.setConfig(cfg);
        auto ctx = env.ctx();
        auto monitor = makeGoldenMonitor();
        Supervisor sup(fastBreaker(), env.recalibrate());
        auto store = makeStore(dir);
        EXPECT_THROW((void)core::runAutopilot(ctx, goldenSchedule(),
                                              monitor, sup, &store,
                                              goldenOptions()),
                     SimulatedCrash);
    }

    AutoEnv env(/*trainInitial=*/false);
    auto ctx = env.ctx();
    auto monitor = makeGoldenMonitor();
    Supervisor sup(fastBreaker(), env.recalibrate());
    auto store = makeStore(dir);
    auto aopts = goldenOptions();
    aopts.resume = true;
    auto res = core::runAutopilot(ctx, goldenSchedule(), monitor,
                                  sup, &store, aopts);
    EXPECT_TRUE(res) << res.status().toString();
    if (res) {
        EXPECT_GT(res.value().startSample, 0u)
            << "the resume must actually skip replayed samples";
    }
    return exportStreams(monitor, sup);
}

TEST(AutopilotGolden, CrashResumeIsByteIdenticalSerial)
{
    PoolWidth width(1);
    auto reference = runUninterrupted(freshDir("ap_golden_ref"));

    // The scenario must exercise the machinery it claims to pin.
    // Match full event lines, not bare kind names — every kind name
    // also appears (with a zero count) in the summary trailers.
    EXPECT_NE(
        reference.find("{\"supervisor_event\":\"RECALIBRATION_"
                       "STARTED\""),
        std::string::npos);
    EXPECT_NE(reference.find(
                  "{\"supervisor_event\":\"CHECKPOINT_WRITTEN\""),
              std::string::npos);
    EXPECT_NE(reference.find("{\"event\":\"DRIFT_DETECTED\""),
              std::string::npos);

    // Killed mid-replay (after the first checkpoint at sample 5)...
    auto midReplay =
        runCrashThenResume(freshDir("ap_golden_crash1"), 13);
    EXPECT_EQ(reference, midReplay);

    // ...and killed later, past the bias switch and any
    // recalibration activity it triggered.
    auto lateCrash =
        runCrashThenResume(freshDir("ap_golden_crash2"), 21);
    EXPECT_EQ(reference, lateCrash);

    checkGolden("autopilot_events.jsonl", reference);
}

TEST(AutopilotGolden, WideRunIsByteIdenticalToFixture)
{
    PoolWidth width(8);
    auto events = runUninterrupted(freshDir("ap_golden_wide"));
    if (std::getenv("TOMUR_UPDATE_GOLDENS")) {
        // The fixture is written by the serial test; here we only
        // verify the wide run reproduces it.
        std::string serial_events;
        {
            PoolWidth serial(1);
            serial_events =
                runUninterrupted(freshDir("ap_golden_wide_ref"));
        }
        EXPECT_EQ(serial_events, events);
        return;
    }
    checkGolden("autopilot_events.jsonl", events);
}

// ---------------------------------------------------------------
// Content-addressed model blobs
// ---------------------------------------------------------------

/** A small-quota model of catalog NF `name` on a fresh testbed. */
core::TomurModel
trainCatalogModel(const std::string &name)
{
    core::Lab lab;
    auto nf = nfs::makeByName(name, lab.dev);
    core::TrainOptions topts;
    topts.adaptive.quota = 20;
    return lab.trainer->train(*nf, AutoEnv::defaults(), topts);
}

std::string
saveBytes(const core::TomurModel &m)
{
    std::ostringstream out;
    EXPECT_TRUE(m.save(out));
    return out.str();
}

core::TomurModel
loadBytes(const std::string &bytes)
{
    core::TomurModel m;
    std::istringstream in(bytes);
    EXPECT_TRUE(m.load(in));
    return m;
}

TEST(CheckpointBlob, ContentDigestTracksSaveBytes)
{
    PoolWidth width(1);
    auto stats = trainCatalogModel("FlowStats");
    auto router = trainCatalogModel("IPRouter");
    auto reloaded = loadBytes(saveBytes(stats));
    auto flagged = loadBytes(saveBytes(stats));
    flagged.markMemoryDegraded("unit test");

    const core::TomurModel *models[] = {&stats, &router, &reloaded,
                                        &flagged};
    for (const auto *a : models) {
        for (const auto *b : models) {
            EXPECT_EQ(a->contentDigest() == b->contentDigest(),
                      saveBytes(*a) == saveBytes(*b))
                << a->nfName() << " vs " << b->nfName();
        }
    }
    // Both directions of "exactly when" are exercised.
    EXPECT_EQ(stats.contentDigest(), reloaded.contentDigest());
    EXPECT_NE(stats.contentDigest(), router.contentDigest());
    EXPECT_NE(stats.contentDigest(), flagged.contentDigest());
}

TEST(CheckpointBlob, CachedDigestFollowsEveryMutation)
{
    // contentDigest() is cached against the model's mutation count;
    // after each kind of mutation it must equal a fresh walk, here
    // the digest of a newly loaded copy that has no cache yet.
    PoolWidth width(1);
    auto fresh = [](const core::TomurModel &m) {
        return loadBytes(saveBytes(m)).contentDigest();
    };
    AutoEnv env(/*trainInitial=*/true);
    EXPECT_EQ(env.model.contentDigest(), fresh(env.model)) << "train";

    core::TomurModel flagged = env.model;
    const std::uint64_t clean = flagged.contentDigest();
    flagged.markSoloDegraded("unit test");
    EXPECT_NE(flagged.contentDigest(), clean);
    EXPECT_EQ(flagged.contentDigest(), fresh(flagged)) << "solo";
    std::uint64_t before = flagged.contentDigest();
    flagged.markMemoryDegraded("unit test");
    EXPECT_NE(flagged.contentDigest(), before);
    EXPECT_EQ(flagged.contentDigest(), fresh(flagged)) << "memory";
    before = flagged.contentDigest();
    flagged.markAccelDegraded(hw::AccelKind::Regex, "unit test");
    EXPECT_NE(flagged.contentDigest(), before);
    EXPECT_EQ(flagged.contentDigest(), fresh(flagged)) << "accel";

    // Load over a model whose digest is cached.
    core::TomurModel loaded = env.model;
    EXPECT_EQ(loaded.contentDigest(), clean);
    std::istringstream in(saveBytes(flagged));
    ASSERT_TRUE(loaded.load(in));
    EXPECT_EQ(loaded.contentDigest(), flagged.contentDigest()) << "load";

    // Recalibrate: the supervisor's hook assigns a retrained model.
    ASSERT_TRUE(env.recalibrate()(0, nullptr));
    EXPECT_EQ(env.model.contentDigest(), fresh(env.model))
        << "recalibrate";

    // And at the end of an autopilot pass, which digests the model
    // at every checkpoint and retrains it once.
    auto dir = freshDir("digest_cache");
    auto ctx = env.ctx();
    auto monitor = makeGoldenMonitor();
    Supervisor sup(fastBreaker(), env.recalibrate());
    auto store = makeStore(dir);
    auto res = core::runAutopilot(ctx, goldenSchedule(), monitor, sup,
                                  &store, goldenOptions());
    ASSERT_TRUE(res) << res.status().toString();
    EXPECT_EQ(res.value().supervisorSummary.recalibrationsSucceeded, 1u);
    EXPECT_EQ(env.model.contentDigest(), fresh(env.model))
        << "autopilot pass";
}

TEST(CheckpointBlob, PassWritesOneBlobPerModelVersion)
{
    PoolWidth width(1);
    auto dir = freshDir("blob_per_version");
    Counter &blobWrites =
        metrics().counter("tomur_checkpoint_blob_writes_total");
    const double before = blobWrites.value();

    AutoEnv env(/*trainInitial=*/true);
    auto ctx = env.ctx();
    auto monitor = makeGoldenMonitor();
    Supervisor sup(fastBreaker(), env.recalibrate());
    // Retain every generation, so every version stays referenced.
    auto store = makeStore(dir, /*generations=*/16);
    auto res = core::runAutopilot(ctx, goldenSchedule(), monitor,
                                  sup, &store, goldenOptions());
    ASSERT_TRUE(res) << res.status().toString();

    const std::size_t versions =
        1 + res.value().supervisorSummary.recalibrationsSucceeded;
    EXPECT_EQ(versions, 2u) << "the scenario retrains once";
    EXPECT_EQ(store.listGenerations().size(), 5u);
    EXPECT_DOUBLE_EQ(blobWrites.value() - before,
                     static_cast<double>(versions));
    auto blobs = store.listBlobs();
    ASSERT_EQ(blobs.size(), versions);
    for (std::uint64_t d : blobs)
        EXPECT_TRUE(store.hasBlob(d));

    // The newest generation references the serving model's blob.
    auto rec = store.loadLatestValid();
    ASSERT_TRUE(rec);
    auto restored = core::loadCheckpointModel(rec.value());
    ASSERT_TRUE(restored) << restored.status().toString();
    EXPECT_EQ(restored.value().contentDigest(),
              env.model.contentDigest());
}

TEST(CheckpointBlob, BlobFrameHoldsTheModelBodyFramedOnce)
{
    // The staged model blob, read back from the log: one frame whose
    // payload is the record line and exactly the model's body, with
    // no model file header nested inside. A reopened store restores
    // the model from it.
    PoolWidth width(1);
    auto dir = freshDir("blob_body");
    AutoEnv env(/*trainInitial=*/true);
    auto ctx = env.ctx();
    auto monitor = makeGoldenMonitor();
    Supervisor sup(fastBreaker(), env.recalibrate());
    auto store = makeStore(dir);
    auto res = core::runAutopilot(ctx, goldenSchedule(), monitor, sup,
                                  &store, goldenOptions());
    ASSERT_TRUE(res) << res.status().toString();

    const std::uint64_t digest = env.model.contentDigest();
    std::string body;
    ASSERT_TRUE(env.model.saveBody(body));
    const std::string recordLine =
        strf("blob %016llx\n", (unsigned long long)digest);
    const std::string log = readFile(store.logPath());
    std::size_t serving = 0;
    for (std::size_t at : frameStarts(log)) {
        FrameView f;
        ASSERT_TRUE(readFrame(std::string_view(log).substr(at),
                              kCheckpointFrame, &f));
        EXPECT_EQ(f.payload.find(core::kModelFrame.magic), std::string::npos);
        if (f.payload.starts_with(recordLine)) {
            ++serving;
            EXPECT_TRUE(f.payload == recordLine + body);
        }
    }
    EXPECT_EQ(serving, 1u);

    auto rec = makeStore(dir).loadLatestValid();
    ASSERT_TRUE(rec) << rec.status().toString();
    auto restored = core::loadCheckpointModel(rec.value());
    ASSERT_TRUE(restored) << restored.status().toString();
    EXPECT_EQ(restored.value().contentDigest(), digest);
    std::string restoredBody;
    ASSERT_TRUE(restored.value().saveBody(restoredBody));
    EXPECT_TRUE(restoredBody == body);
}

/** Two generations, each referencing its own blob. */
void
writeTwoBlobGenerations(CheckpointStore &store)
{
    ASSERT_TRUE(store.writeBlob(0xa1, "model version one"));
    ASSERT_TRUE(store.writeGeneration("gen one", {0xa1}));
    ASSERT_TRUE(store.writeBlob(0xb2, "model version two"));
    ASSERT_TRUE(store.writeGeneration("gen two", {0xb2}));
}

TEST(CheckpointBlob, MissingBlobFallsBackToOlderGeneration)
{
    auto dir = freshDir("blob_missing");
    auto store = makeStore(dir);
    writeTwoBlobGenerations(store);
    // Frames: blob a1, gen 1, blob b2, gen 2. Drop blob b2's.
    writeFile(store.logPath(),
              withoutFrame(readFile(store.logPath()), 2));

    auto rec = makeStore(dir).loadLatestValid();
    ASSERT_TRUE(rec) << rec.status().toString();
    EXPECT_EQ(rec.value().generation, 1u);
    EXPECT_EQ(rec.value().body, "gen one");
    ASSERT_EQ(rec.value().blobs.count(0xa1), 1u);
    EXPECT_EQ(rec.value().blobs.at(0xa1), "model version one");
}

TEST(CheckpointBlob, BitFlippedBlobFallsBackToOlderGeneration)
{
    auto dir = freshDir("blob_flipped");
    auto store = makeStore(dir);
    writeTwoBlobGenerations(store);
    std::string log = readFile(store.logPath());
    auto starts = frameStarts(log);
    ASSERT_EQ(starts.size(), 4u);
    log[starts[3] - 1] ^= 0x01; // blob b2's last payload byte
    writeFile(store.logPath(), log);

    auto rec = makeStore(dir).loadLatestValid();
    ASSERT_TRUE(rec) << rec.status().toString();
    EXPECT_EQ(rec.value().generation, 1u);
    EXPECT_EQ(rec.value().blobs.at(0xa1), "model version one");
}

TEST(CheckpointBlob, PruneKeepsReferencedBlobsAcrossReopen)
{
    auto dir = freshDir("blob_prune");
    {
        auto store = makeStore(dir, /*generations=*/2);
        writeTwoBlobGenerations(store);
        ASSERT_TRUE(store.writeBlob(0xdead, "never referenced"));
        // Gen 3 drops gen 1, so blob a1 and the orphan go.
        ASSERT_TRUE(store.writeGeneration("gen three", {0xb2}));
        EXPECT_EQ(store.listGenerations(),
                  (std::vector<std::uint64_t>{2, 3}));
        EXPECT_EQ(store.listBlobs(),
                  (std::vector<std::uint64_t>{0xb2}));
    }
    // A reopened store knows nothing in memory: it must rebuild the
    // references from the retained generations in the log.
    auto store = makeStore(dir, /*generations=*/2);
    ASSERT_TRUE(store.writeBlob(0xbeef, "orphan after reopen"));
    ASSERT_TRUE(store.writeBlob(0xc3, "model version three"));
    ASSERT_TRUE(store.writeGeneration("gen four", {0xc3}));
    EXPECT_EQ(store.listGenerations(),
              (std::vector<std::uint64_t>{3, 4}));
    EXPECT_EQ(store.listBlobs(),
              (std::vector<std::uint64_t>{0xb2, 0xc3}));
    EXPECT_FALSE(store.hasBlob(0xbeef));
    auto rec = store.loadLatestValid();
    ASSERT_TRUE(rec);
    EXPECT_EQ(rec.value().generation, 4u);
    EXPECT_EQ(rec.value().blobs.at(0xc3), "model version three");
}

TEST(CheckpointBlob, CrashBetweenBlobAndGenerationResumes)
{
    auto dir = freshDir("blob_crash");
    {
        auto store = makeStore(dir);
        ASSERT_TRUE(store.writeBlob(0xa1, "model version one"));
        ASSERT_TRUE(store.writeGeneration("gen one", {0xa1}));
        // The next version's blob frame is appended, then the
        // process dies before its generation frame is.
        ASSERT_TRUE(store.writeBlob(0xb2, "model version two"));
        store.setCrashPoint(CheckpointCrashPoint::BeforeGeneration);
        EXPECT_THROW((void)store.writeGeneration("gen two", {0xb2}),
                     SimulatedCrash);
    }
    auto store = makeStore(dir);
    auto rec = store.loadLatestValid();
    ASSERT_TRUE(rec) << rec.status().toString();
    EXPECT_EQ(rec.value().generation, 1u);
    EXPECT_EQ(rec.value().blobs.at(0xa1), "model version one");
    // The resumed run reuses the surviving blob instead of rewriting
    // it, and the generation that names it restores.
    EXPECT_TRUE(store.hasBlob(0xb2));
    ASSERT_TRUE(store.writeGeneration("gen two", {0xb2}));
    rec = store.loadLatestValid();
    ASSERT_TRUE(rec);
    EXPECT_EQ(rec.value().body, "gen two");
    EXPECT_EQ(rec.value().blobs.at(0xb2), "model version two");
}

TEST(CheckpointBlob, VersionOneRecordsAreRefusedWithAClearStatus)
{
    // A v1 frame (the model nested in the body, no blob list).
    std::string v1 = frame("body");
    v1.replace(0, std::strlen("tomur_ckpt 3"), "tomur_ckpt 1");
    FrameView f;
    Status st = readFrame(v1, kCheckpointFrame, &f);
    EXPECT_EQ(st.code(), StatusCode::CorruptData);
    EXPECT_NE(st.message().find("unsupported checkpoint version 1"),
              std::string::npos)
        << st.toString();

    // A log of the previous build (v2 frames, whose model blobs nest a
    // whole model file) is refused when the store opens, by version.
    auto dir = freshDir("blob_v2_log");
    std::string v2log;
    for (const char *payload :
         {"blob 00000000000000a1\nmodel", "generation 1 00000000000000a1\nx"}) {
        std::string v2 = frame(payload);
        v2.replace(0, std::strlen("tomur_ckpt 3"), "tomur_ckpt 2");
        v2log += v2;
    }
    writeFile(dir + "/checkpoint.log", v2log);
    auto store = makeStore(dir);
    auto restored = store.loadLatestValid();
    ASSERT_FALSE(restored);
    EXPECT_EQ(restored.status().code(), StatusCode::FailedPrecondition);
    for (const char *needle :
         {"version 2", "resume from an empty checkpoint directory"})
        EXPECT_NE(restored.status().message().find(needle),
                  std::string::npos)
            << restored.status().toString();
    EXPECT_EQ(store.writeGeneration("new").code(),
              StatusCode::FailedPrecondition);
    EXPECT_EQ(readFile(store.logPath()), v2log) << "a refused log is kept";

    // A v1 autopilot body inside a valid frame.
    CheckpointRecord rec;
    rec.generation = 1;
    rec.body = "tomur_autopilot 1\nsample 5\n";
    auto model = core::loadCheckpointModel(rec);
    ASSERT_FALSE(model);
    EXPECT_EQ(model.status().code(), StatusCode::FailedPrecondition);
    EXPECT_NE(model.status().message().find(
                  "unsupported body version 1"),
              std::string::npos)
        << model.status().toString();
}


// ---------------------------------------------------------------
// Byte pins: the persisted formats, byte for byte
// ---------------------------------------------------------------

/** FNV-1a 64 of `bytes`, for pinning a format in one constant. */
std::uint64_t
pin(const std::string &bytes)
{
    return fnv1a64(bytes);
}

std::string
monitorBytes(const core::PredictionMonitor &m)
{
    std::ostringstream out;
    m.serialize(out);
    return out.str();
}

std::string
supervisorBytes(const Supervisor &s)
{
    std::ostringstream out;
    s.serialize(out);
    return out.str();
}

TEST(BytePins, CatalogModelSaveBytesAndDigests)
{
    // FNV-1a 64 of TomurModel::save() bytes and the contentDigest()
    // of two catalog models: FlowStats (no accelerators) and
    // IPsecGateway (a crypto accelerator model). A reload saves the
    // same bytes.
    PoolWidth width(1);
    auto stats = trainCatalogModel("FlowStats");
    auto ipsec = trainCatalogModel("IPsecGateway");
    ASSERT_TRUE(ipsec.accelModel(hw::AccelKind::Crypto).has_value());

    EXPECT_EQ(pin(saveBytes(stats)), 0xeff6ffb70e7e52e0ULL);
    EXPECT_EQ(stats.contentDigest(), 0x154f6d7d23605614ULL);
    EXPECT_EQ(pin(saveBytes(ipsec)), 0xa12d0b89a101d3a9ULL);
    EXPECT_EQ(ipsec.contentDigest(), 0xf2499971563d2bcaULL);
    for (const auto *m : {&stats, &ipsec}) {
        auto reloaded = loadBytes(saveBytes(*m));
        EXPECT_EQ(saveBytes(reloaded), saveBytes(*m));
        EXPECT_EQ(reloaded.contentDigest(), m->contentDigest());
    }
}

TEST(BytePins, AutopilotStateAndCheckpointBody)
{
    // After the golden autopilot schedule: the monitor and supervisor
    // state bytes, and the newest checkpoint body. Restored state
    // serializes back to the same bytes.
    PoolWidth width(1);
    auto dir = freshDir("byte_pins");
    AutoEnv env(/*trainInitial=*/true);
    auto ctx = env.ctx();
    auto monitor = makeGoldenMonitor();
    Supervisor sup(fastBreaker(), env.recalibrate());
    auto store = makeStore(dir);
    auto res = core::runAutopilot(ctx, goldenSchedule(), monitor, sup,
                                  &store, goldenOptions());
    ASSERT_TRUE(res) << res.status().toString();
    auto rec = store.loadLatestValid();
    ASSERT_TRUE(rec) << rec.status().toString();

    EXPECT_EQ(pin(monitorBytes(monitor)), 0x53888e85582462e8ULL);
    EXPECT_EQ(pin(supervisorBytes(sup)), 0x91c5b75e1625faaaULL);
    EXPECT_EQ(pin(rec.value().body), 0x20d0a132538aae16ULL);

    auto restoredMonitor = makeGoldenMonitor();
    std::istringstream monitorIn(monitorBytes(monitor));
    ASSERT_TRUE(restoredMonitor.restore(monitorIn));
    EXPECT_EQ(monitorBytes(restoredMonitor), monitorBytes(monitor));
    Supervisor restoredSup(fastBreaker(), nullptr);
    std::istringstream supIn(supervisorBytes(sup));
    ASSERT_TRUE(restoredSup.restore(supIn));
    EXPECT_EQ(supervisorBytes(restoredSup), supervisorBytes(sup));
}

} // namespace
} // namespace tomur
