/**
 * @file
 * Robustness tests: Status/Result plumbing, the fault-injection
 * harness, the corrupted-model corpus (clean failures, no crashes,
 * no mutation of the destination model), the same corpus over the
 * monitor, supervisor and autopilot checkpoint state, the
 * prediction fallback chain, and end-to-end training against a
 * faulty testbed.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <sstream>

#include <unistd.h>

#include "common/checkpoint.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/serial.hh"
#include "common/stats.hh"
#include "common/status.hh"
#include "common/strutil.hh"
#include "nfs/bench_nfs.hh"
#include "nfs/registry.hh"
#include "regex/ruleset.hh"
#include "sim/faults.hh"
#include "tomur/lab.hh"
#include "tomur/supervisor.hh"

namespace tomur {
namespace {

namespace fw = framework;

// ---------------------------------------------------------------
// Status / Result
// ---------------------------------------------------------------

TEST(StatusTest, OkAndErrors)
{
    auto ok = Status::ok();
    EXPECT_TRUE(ok.isOk());
    EXPECT_TRUE(static_cast<bool>(ok));
    EXPECT_EQ(ok.code(), StatusCode::Ok);

    auto bad = Status::corruptData("broken header");
    EXPECT_FALSE(bad.isOk());
    EXPECT_FALSE(static_cast<bool>(bad));
    EXPECT_EQ(bad.code(), StatusCode::CorruptData);
    EXPECT_NE(bad.toString().find("broken header"),
              std::string::npos);

    auto wrapped = bad.withContext("loading model");
    EXPECT_EQ(wrapped.code(), StatusCode::CorruptData);
    EXPECT_NE(wrapped.message().find("loading model"),
              std::string::npos);
    EXPECT_NE(wrapped.message().find("broken header"),
              std::string::npos);
}

TEST(StatusTest, ResultCarriesValueOrStatus)
{
    Result<double> good = 4.5;
    ASSERT_TRUE(good.isOk());
    EXPECT_DOUBLE_EQ(good.value(), 4.5);
    EXPECT_DOUBLE_EQ(good.valueOr(-1.0), 4.5);

    Result<double> bad = Status::unavailable("no estimate");
    EXPECT_FALSE(bad.isOk());
    EXPECT_EQ(bad.status().code(), StatusCode::Unavailable);
    EXPECT_DOUBLE_EQ(bad.valueOr(-1.0), -1.0);
}

TEST(StatsTest, MedianAbsoluteDeviation)
{
    EXPECT_DOUBLE_EQ(mad({}), 0.0);
    EXPECT_DOUBLE_EQ(mad({3.0}), 0.0);
    // median = 5, deviations {4, 1, 0, 1, 4} -> mad = 1.
    EXPECT_DOUBLE_EQ(mad({1.0, 4.0, 5.0, 6.0, 9.0}), 1.0);
    // A wild outlier barely moves the MAD (that is the point).
    EXPECT_DOUBLE_EQ(mad({1.0, 4.0, 5.0, 6.0, 1e9}), 1.0);
}

TEST(LoggingTest, WarnEventCounts)
{
    resetWarnCount();
    EXPECT_EQ(warnCount(), 0u);
    warnEvent("test", "something-odd", {{"k", "v"}});
    EXPECT_EQ(warnCount(), 1u);
    resetWarnCount();
}

// ---------------------------------------------------------------
// Fault-injection harness
// ---------------------------------------------------------------

fw::WorkloadProfile
memBenchWorkload()
{
    nfs::MemBenchConfig cfg;
    cfg.wssBytes = 8.0 * 1024 * 1024;
    cfg.targetAccessRate = 40e6;
    auto nf = nfs::makeMemBench(cfg);
    traffic::TrafficProfile p;
    p.flowCount = 16;
    p.mtbr = 0.0; // no regex traffic: no ruleset needed
    return fw::profileWorkload(*nf, p, nullptr);
}

TEST(FaultInjection, CleanConfigIsPassthrough)
{
    sim::Testbed bed(hw::blueField2(), {});
    sim::FaultInjectingTestbed faulty(bed, {});
    auto w = memBenchWorkload();
    auto ms = faulty.run({w, w});
    ASSERT_EQ(ms.size(), 2u);
    EXPECT_TRUE(std::isfinite(ms[0].throughput));
    EXPECT_GT(ms[0].throughput, 0.0);
    EXPECT_EQ(faulty.stats().total(), 0u);
    EXPECT_EQ(faulty.stats().batches, 1u);
    EXPECT_EQ(faulty.stats().measurements, 2u);
}

TEST(FaultInjection, SeededAndReproducible)
{
    auto cfg = sim::FaultConfig::uniformCorruption(0.5, 42);
    auto w = memBenchWorkload();

    auto sequence = [&] {
        sim::Testbed bed(hw::blueField2(), {});
        sim::FaultInjectingTestbed faulty(bed, cfg);
        std::vector<double> out;
        for (int i = 0; i < 30; ++i) {
            for (const auto &m : faulty.run({w, w}))
                out.push_back(m.throughput);
        }
        return out;
    };
    auto a = sequence();
    auto b = sequence();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (std::isnan(a[i])) {
            EXPECT_TRUE(std::isnan(b[i]));
        } else {
            EXPECT_DOUBLE_EQ(a[i], b[i]);
        }
    }
}

TEST(FaultInjection, InjectsAndCountsFaults)
{
    sim::Testbed bed(hw::blueField2(), {});
    sim::FaultInjectingTestbed faulty(
        bed, sim::FaultConfig::uniformCorruption(0.6, 7));
    auto w = memBenchWorkload();
    bool saw_truncation = false;
    for (int i = 0; i < 40; ++i) {
        auto ms = faulty.run({w, w, w});
        EXPECT_LE(ms.size(), 3u);
        saw_truncation |= ms.size() < 3u;
        // Ground-truth fields are never corrupted.
        for (const auto &m : ms) {
            EXPECT_TRUE(std::isfinite(m.truthThroughput));
            EXPECT_GT(m.truthThroughput, 0.0);
        }
    }
    EXPECT_TRUE(saw_truncation);
    EXPECT_GT(faulty.stats().total(), 0u);
    using sim::FaultMode;
    EXPECT_GT(faulty.stats()
                  .injected[static_cast<int>(FaultMode::TruncatedBatch)],
              0u);
}

TEST(FaultInjection, ReconfigureResetsStatsButKeepsRngStream)
{
    sim::Testbed bed(hw::blueField2(), {});
    sim::FaultInjectingTestbed faulty(
        bed, sim::FaultConfig::uniformCorruption(0.6, 7));
    auto w = memBenchWorkload();
    for (int i = 0; i < 20; ++i)
        faulty.run({w, w});
    ASSERT_GT(faulty.stats().total(), 0u);

    // Re-arming mid-run must not carry the old campaign's injection
    // counts into the new config's ledger.
    faulty.setConfig(sim::FaultConfig::uniformCorruption(0.1, 99));
    EXPECT_EQ(faulty.stats().total(), 0u);
    EXPECT_EQ(faulty.stats().batches, 0u);
    EXPECT_EQ(faulty.stats().measurements, 0u);
    for (std::size_t c : faulty.stats().injected)
        EXPECT_EQ(c, 0u);

    // And the new config is live: fresh counts accumulate.
    for (int i = 0; i < 40; ++i)
        faulty.run({w, w});
    EXPECT_GT(faulty.stats().total(), 0u);
    EXPECT_EQ(faulty.stats().batches, 40u);
}

TEST(FaultInjection, DegradedAccelIsDeterministic)
{
    auto rules = regex::defaultRuleSet();
    fw::DeviceSet dev;
    dev.regex = std::make_shared<fw::RegexDevice>(rules);
    nfs::RegexBenchConfig cfg;
    cfg.requestRate = 100e3;
    auto nf = nfs::makeRegexBench(dev, cfg);
    traffic::TrafficProfile p;
    p.flowCount = 16;
    p.mtbr = 600;
    auto w = fw::profileWorkload(*nf, p, &rules);
    ASSERT_TRUE(w.usesAccel(hw::AccelKind::Regex));

    // Two identically seeded inner testbeds: the only difference is
    // the injector's deterministic degradation factor.
    sim::Testbed clean(hw::blueField2(), {});
    sim::Testbed inner(hw::blueField2(), {});
    sim::FaultConfig fc;
    fc.degradedAccelEnabled = true;
    fc.degradedAccelKind = hw::AccelKind::Regex;
    fc.degradedAccelFactor = 0.5;
    sim::FaultInjectingTestbed faulty(inner, fc);

    auto m_clean = clean.run({w});
    auto m_faulty = faulty.run({w});
    ASSERT_EQ(m_clean.size(), 1u);
    ASSERT_EQ(m_faulty.size(), 1u);
    EXPECT_NEAR(m_faulty[0].throughput,
                0.5 * m_clean[0].throughput,
                1e-9 * m_clean[0].throughput);
}

// ---------------------------------------------------------------
// Corrupted-model corpus
// ---------------------------------------------------------------

/** Hand-build a valid serialized model body (the format is text and
 *  documented, so tests need no trained TomurModel to get one). */
std::string
craftValidBody()
{
    Rng rng(17);
    core::MemoryModel mm;
    ml::Dataset mem_data(mm.featureNames());
    auto defaults = traffic::TrafficProfile::defaults();
    for (int i = 0; i < 80; ++i) {
        core::ContentionLevel lvl;
        lvl.counters.l2ReadRate = rng.uniform(1e5, 5e7);
        lvl.counters.memReadRate = rng.uniform(1e5, 2e7);
        lvl.counters.wssBytes = rng.uniform(1e6, 3e7);
        auto p = defaults.withAttribute(
            traffic::Attribute::FlowCount, rng.uniform(1e3, 5e5));
        mem_data.add(mm.featuresFor({lvl}, p),
                     rng.uniform(0.3, 1.0));
    }
    EXPECT_TRUE(mm.fit(mem_data));

    ml::Dataset solo_data(
        std::vector<std::string>{"flow_count", "packet_size",
                                 "mtbr"});
    for (int i = 0; i < 40; ++i) {
        double flows = rng.uniform(1e3, 5e5);
        solo_data.add({flows, 1500.0, 600.0}, 1e6 - flows);
    }
    ml::GradientBoostingRegressor solo;
    solo.fit(solo_data);

    std::ostringstream body;
    body << "nf crafted\n";
    body << "pattern rtc\n";
    body << "health 0 0";
    for (int k = 0; k < hw::numAccelKinds; ++k)
        body << " 0";
    body << "\n";
    EXPECT_TRUE(mm.save(body));
    body << "solo_models 1\n";
    solo.save(body);
    for (int k = 0; k < hw::numAccelKinds; ++k)
        body << "accel " << k << " 0\n";
    return body.str();
}

/** Wrap a body in a well-formed v2 header (correct length and
 *  checksum), so corruption *inside* the body is what gets tested. */
std::string
wrapV2(const std::string &body)
{
    std::string out;
    appendFrame(out, core::kModelFrame, body);
    return out;
}

/** Expect load() to fail cleanly: error status with a message, and
 *  the destination model untouched. */
void
expectCleanRejection(const std::string &file,
                     const std::string &label)
{
    // The destination already holds a valid model; a failed load
    // must not disturb it.
    core::TomurModel m;
    std::istringstream valid(wrapV2(craftValidBody()));
    ASSERT_TRUE(m.load(valid)) << label;
    auto p = traffic::TrafficProfile::defaults();
    double before = m.soloThroughput(p);

    std::istringstream in(file);
    auto st = m.load(in);
    EXPECT_FALSE(st) << label << ": load should have failed";
    EXPECT_FALSE(st.message().empty()) << label;
    EXPECT_EQ(m.nfName(), "crafted") << label;
    EXPECT_DOUBLE_EQ(m.soloThroughput(p), before) << label;
}

TEST(CorruptModelCorpus, ValidCraftedFileLoads)
{
    core::TomurModel m;
    std::istringstream in(wrapV2(craftValidBody()));
    ASSERT_TRUE(m.load(in));
    EXPECT_EQ(m.nfName(), "crafted");
    EXPECT_FALSE(m.health().anyDegraded());
    EXPECT_TRUE(m.memoryModel().fitted());
    auto p = traffic::TrafficProfile::defaults();
    EXPECT_TRUE(std::isfinite(m.soloThroughput(p)));
}

/** Damaged headers for frames of `format`, `valid` being one of its
 *  well-formed frames: each must be refused. */
std::vector<std::pair<std::string, std::string>>
headerCorpus(const FrameFormat &format, const std::string &valid)
{
    const std::string magic(format.magic);
    const std::string version = std::to_string(format.version);
    const std::string older = std::to_string(format.version - 1);
    return {
        {"wrong magic", "not_a_model " + version + " 10 abc\nxxxxxxxxxx"},
        // The upgrade path from an older version is an explicit error.
        {"old version", magic + " " + older + " 10 abc\nxxxxxxxxxx"},
        {"future version", magic + " 99 10 abc\nxxxxxxxxxx"},
        // Unparseable checksum token.
        {"bad checksum token", magic + " " + version + " 10 zzzz\nxxxxxxxxxx"},
        // Hostile body length: must be rejected before any allocation.
        {"huge declared length", magic + " " + version + " 999999999999 abc\n"},
        {"zero length", magic + " " + version + " 0 abc\n"},
        // Declared length larger than the actual body (truncated file).
        {"body shorter than declared", valid.substr(0, valid.size() / 2)},
    };
}

TEST(CorruptModelCorpus, HeaderCorruptions)
{
    for (const auto &[label, bytes] :
         headerCorpus(core::kModelFrame, wrapV2(craftValidBody())))
        expectCleanRejection(bytes, label);
}

TEST(CorruptModelCorpus, HeaderCorpusRefusedForBothFrameKinds)
{
    // The same corpus through the one frame reader, for model files
    // and for checkpoint log frames.
    std::string checkpoint;
    appendFrame(checkpoint, kCheckpointFrame, "generation 1\nbody");
    const std::pair<const FrameFormat *, std::string> kinds[] = {
        {&core::kModelFrame, wrapV2(craftValidBody())},
        {&kCheckpointFrame, checkpoint},
    };
    for (const auto &[format, valid] : kinds) {
        FrameView f;
        ASSERT_TRUE(readFrame(valid, *format, &f)) << format->name;
        for (const auto &[label, bytes] : headerCorpus(*format, valid)) {
            Status st = readFrame(bytes, *format, &f);
            EXPECT_EQ(st.code(), StatusCode::CorruptData)
                << format->name << ": " << label;
            EXPECT_NE(st.message().find(format->name), std::string::npos)
                << st.toString();
        }
    }
}

TEST(CorruptModelCorpus, TruncationsAtEveryStride)
{
    std::string valid = wrapV2(craftValidBody());
    core::TomurModel m;
    // Truncations march through the header and the whole body; every
    // prefix must be rejected without crash or UB.
    for (std::size_t cut = 0; cut < valid.size();
         cut += std::max<std::size_t>(1, valid.size() / 97)) {
        std::istringstream in(valid.substr(0, cut));
        auto st = m.load(in);
        EXPECT_FALSE(st) << "prefix of " << cut << " bytes loaded";
        EXPECT_FALSE(st.message().empty());
    }
}

TEST(CorruptModelCorpus, BitFlipsAreDetected)
{
    std::string valid = wrapV2(craftValidBody());
    // The checksum covers every body byte, so any body flip must be
    // caught (header damage is covered by HeaderCorruptions).
    std::size_t body_start = valid.find('\n') + 1;
    Rng rng(23);
    for (int trial = 0; trial < 64; ++trial) {
        std::string damaged = valid;
        auto pos = body_start +
                   rng.uniformInt(damaged.size() - body_start);
        damaged[pos] =
            static_cast<char>(damaged[pos] ^
                              (1 << rng.uniformInt(std::uint64_t{8})));
        core::TomurModel m;
        std::istringstream in(damaged);
        auto st = m.load(in);
        if (st.isOk()) {
            ADD_FAILURE() << "bit flip at byte " << pos
                          << " went undetected";
        } else {
            EXPECT_FALSE(st.message().empty());
        }
    }
}

TEST(CorruptModelCorpus, ChecksummedButPoisonedBodies)
{
    // Correct header + checksum over a hostile body: the per-section
    // bounds still reject it (the checksum only proves integrity,
    // not trustworthiness).
    std::string base = craftValidBody();

    // Hostile ensemble count in the memory model section.
    {
        auto poisoned = base;
        auto pos = poisoned.find("memory_model ");
        ASSERT_NE(pos, std::string::npos);
        poisoned.replace(pos, std::string("memory_model 3").size(),
                         "memory_model 1000000");
        expectCleanRejection(wrapV2(poisoned),
                             "huge memory ensemble");
    }
    // Hostile solo-model count.
    {
        auto poisoned = base;
        auto pos = poisoned.find("solo_models 1");
        ASSERT_NE(pos, std::string::npos);
        poisoned.replace(pos, std::string("solo_models 1").size(),
                         "solo_models 999999");
        expectCleanRejection(wrapV2(poisoned), "huge solo count");
    }
    // Unknown execution pattern.
    {
        auto poisoned = base;
        auto pos = poisoned.find("pattern rtc");
        ASSERT_NE(pos, std::string::npos);
        poisoned.replace(pos, std::string("pattern rtc").size(),
                         "pattern xyz");
        expectCleanRejection(wrapV2(poisoned), "bad pattern");
    }
}

TEST(CorruptModelCorpus, SplitFeatureIndexOutOfRangeIsCorruptData)
{
    // A checksummed body whose root split reads feature 99: past the
    // vector predict() would index, in either ensemble section.
    std::string base = craftValidBody();
    for (const char *section : {"memory_model ", "solo_models "}) {
        auto poisoned = base;
        auto tree = poisoned.find("tree ", poisoned.find(section));
        ASSERT_NE(tree, std::string::npos) << section;
        auto root = poisoned.find('\n', tree) + 1;
        auto feature = poisoned.find(' ', root);
        ASSERT_NE(poisoned.substr(root, feature - root), "-1")
            << section << "root is a leaf";
        poisoned.replace(root, feature - root, "99");

        core::TomurModel m;
        std::istringstream in(wrapV2(poisoned));
        auto st = m.load(in);
        EXPECT_EQ(st.code(), StatusCode::CorruptData)
            << section << st.toString();
        EXPECT_NE(st.message().find(
                      "tree section: split feature index out of range"),
                  std::string::npos)
            << st.toString();
        expectCleanRejection(wrapV2(poisoned), section);
    }
}

TEST(CorruptModelCorpus, HealthFlagsRoundTrip)
{
    core::TomurModel m;
    std::istringstream in(wrapV2(craftValidBody()));
    ASSERT_TRUE(m.load(in));
    m.markAccelDegraded(hw::AccelKind::Regex, "unit test");
    m.markSoloDegraded("unit test");
    ASSERT_TRUE(m.health().anyDegraded());

    std::stringstream ss;
    ASSERT_TRUE(m.save(ss));
    core::TomurModel reloaded;
    ASSERT_TRUE(reloaded.load(ss));
    EXPECT_TRUE(reloaded.health().soloDegraded);
    EXPECT_FALSE(reloaded.health().memoryDegraded);
    EXPECT_TRUE(reloaded.health().accelDegraded[static_cast<int>(
        hw::AccelKind::Regex)]);
}

// ---------------------------------------------------------------
// Corrupt state corpus: monitor, supervisor, autopilot checkpoint
// ---------------------------------------------------------------

/** A short supervised FlowStats replay that checkpoints: a traffic
 *  shift and a late bias make the monitor fire, and a recalibration
 *  hook that always fails makes the supervisor fire. */
struct ReplayRig : core::Lab
{
    ReplayRig()
    {
        nf = nfs::makeByName("FlowStats", dev);
        core::TrainOptions topts;
        topts.adaptive.quota = 20;
        model = trainer->train(*nf, defaults(), topts);
    }

    static traffic::TrafficProfile
    defaults()
    {
        return traffic::TrafficProfile::defaults();
    }

    core::ReplayContext
    ctx(core::TomurModel *m)
    {
        core::ReplayContext c;
        c.trainer = trainer.get();
        c.model = m;
        c.nf = nf.get();
        c.soloBed = &bed;
        c.measureBed = &faulty;
        c.label = "FlowStats x2";
        return c;
    }

    /** Run the replay; `monitor` and `supervisor` end holding its
     *  final state, and the newest checkpoint is returned. */
    CheckpointRecord
    run(core::PredictionMonitor &monitor, core::Supervisor &supervisor)
    {
        // One directory per test and process: ctest -j runs every
        // test of this binary as its own process, concurrently.
        auto dir = std::filesystem::path(::testing::TempDir()) /
                   strf("state_corpus_%s_%d",
                        ::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name(),
                        (int)::getpid());
        std::filesystem::remove_all(dir);
        CheckpointOptions copts;
        copts.fsync = false;
        CheckpointStore store(dir.string(), copts);
        auto shifted = defaults().withAttribute(
            traffic::Attribute::FlowCount,
            4.0 * static_cast<double>(defaults().flowCount));
        core::AutopilotOptions aopts;
        aopts.replay.biasAtSample = 6;
        aopts.checkpointEverySamples = 5;
        auto c = ctx(&model);
        auto res =
            core::runAutopilot(c, {{defaults(), 8}, {shifted, 8}},
                               monitor, supervisor, &store, aopts);
        EXPECT_TRUE(res) << res.status().toString();
        auto rec = store.loadLatestValid();
        EXPECT_TRUE(rec) << rec.status().toString();
        return rec.isOk() ? rec.value() : CheckpointRecord{};
    }

    static core::PredictionMonitor
    makeMonitor()
    {
        core::MonitorOptions mopts;
        mopts.cooldown = 4;
        return core::PredictionMonitor(mopts);
    }

    static core::Supervisor
    makeSupervisor()
    {
        return core::Supervisor({}, [](std::size_t, std::string *) {
            return Status::unavailable("scripted failure");
        });
    }

    std::unique_ptr<fw::NetworkFunction> nf;
    core::TomurModel model;
};

/** Damaged copies of `valid`: prefixes at every stride through it,
 *  then 200 seeded single-byte replacements. */
std::vector<std::string>
damagedCopies(const std::string &valid, std::uint64_t seed)
{
    std::vector<std::string> out;
    for (std::size_t cut = 0; cut < valid.size();
         cut += std::max<std::size_t>(1, valid.size() / 97))
        out.push_back(valid.substr(0, cut));
    Rng rng(seed);
    for (int i = 0; i < 200; ++i) {
        std::string damaged = valid;
        damaged[rng.uniformInt(damaged.size())] =
            static_cast<char>(rng.uniformInt(std::uint64_t{256}));
        out.push_back(std::move(damaged));
    }
    return out;
}

/** The corpus rule: a damaged input either loads, or fails as
 *  CorruptData naming a section and leaves the destination (its
 *  state bytes `before` / `after`) unchanged. */
void
expectLoadOrCleanRejection(const Status &st, const std::string &before,
                           const std::string &after, std::size_t i)
{
    if (st.isOk())
        return;
    EXPECT_EQ(st.code(), StatusCode::CorruptData)
        << "input " << i << ": " << st.toString();
    EXPECT_NE(st.message().find(" section"), std::string::npos)
        << "input " << i << ": " << st.toString();
    EXPECT_EQ(after, before)
        << "input " << i << ": a failed load changed the destination";
}

template <class T>
std::string
stateBytes(const T &state)
{
    std::ostringstream out;
    state.serialize(out);
    return out.str();
}

TEST(CorruptStateCorpus, MonitorAndSupervisorState)
{
    ReplayRig rig;
    auto monitor = ReplayRig::makeMonitor();
    auto supervisor = ReplayRig::makeSupervisor();
    rig.run(monitor, supervisor);
    ASSERT_FALSE(monitor.events().empty());
    ASSERT_FALSE(supervisor.events().empty());

    const std::string monitorState = stateBytes(monitor);
    auto inputs = damagedCopies(monitorState, 41);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        auto dest = ReplayRig::makeMonitor();
        std::string before = stateBytes(dest);
        std::istringstream in(inputs[i]);
        Status st = dest.restore(in);
        expectLoadOrCleanRejection(st, before, stateBytes(dest), i);
    }

    const std::string supervisorState = stateBytes(supervisor);
    inputs = damagedCopies(supervisorState, 43);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        auto dest = ReplayRig::makeSupervisor();
        std::string before = stateBytes(dest);
        std::istringstream in(inputs[i]);
        Status st = dest.restore(in);
        expectLoadOrCleanRejection(st, before, stateBytes(dest), i);
    }
}

TEST(CorruptStateCorpus, AutopilotCheckpointBody)
{
    ReplayRig rig;
    auto monitor = ReplayRig::makeMonitor();
    auto supervisor = ReplayRig::makeSupervisor();
    const CheckpointRecord valid = rig.run(monitor, supervisor);
    ASSERT_FALSE(valid.body.empty());

    // Everything a restore may touch, as one string.
    auto rngBytes = [](const RngState &st) {
        return strf("%llx %llx %llx %llx %d %a",
                    (unsigned long long)st.s[0],
                    (unsigned long long)st.s[1],
                    (unsigned long long)st.s[2],
                    (unsigned long long)st.s[3], st.hasSpare ? 1 : 0,
                    st.spare);
    };
    auto destination = [&](const core::PredictionMonitor &m,
                           const core::Supervisor &s,
                           const core::TomurModel &model) {
        return stateBytes(m) + stateBytes(s) +
               strf("%llx ",
                    (unsigned long long)model.contentDigest()) +
               rngBytes(rig.bed.noiseState()) +
               rngBytes(rig.faulty.faultRngState());
    };

    auto inputs = damagedCopies(valid.body, 47);
    std::size_t loaded = 0;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        auto m = ReplayRig::makeMonitor();
        auto s = ReplayRig::makeSupervisor();
        core::TomurModel model;
        auto ctx = rig.ctx(&model);
        std::string before = destination(m, s, model);
        CheckpointRecord rec = valid;
        rec.body = inputs[i];
        auto cursor = core::restoreCheckpoint(ctx, m, s, rec);
        Status st = cursor.isOk() ? Status::ok() : cursor.status();
        std::string after = destination(m, s, model);
        if (st.code() == StatusCode::FailedPrecondition) {
            // A damaged version digit is refused as a format upgrade.
            EXPECT_NE(st.message().find("unsupported body version"),
                      std::string::npos)
                << "input " << i << ": " << st.toString();
            EXPECT_EQ(after, before) << "input " << i;
        } else {
            expectLoadOrCleanRejection(st, before, after, i);
        }
        loaded += st.isOk();
    }
    // The undamaged body restores (the prefix loop starts at 0, so
    // the whole body is not among the truncations).
    core::TomurModel model;
    auto ctx = rig.ctx(&model);
    auto m = ReplayRig::makeMonitor();
    auto s = ReplayRig::makeSupervisor();
    auto cursor = core::restoreCheckpoint(ctx, m, s, valid);
    ASSERT_TRUE(cursor) << cursor.status().toString();
    EXPECT_EQ(cursor.value(), 15u);
    EXPECT_NE(valid.body.find(stateBytes(m) + stateBytes(s)),
              std::string::npos);
    RecordProperty("damaged_inputs_loaded", std::to_string(loaded));
}

// ---------------------------------------------------------------
// Fallback chain
// ---------------------------------------------------------------

core::ContentionLevel
someContention()
{
    core::ContentionLevel lvl;
    lvl.counters.l2ReadRate = 2e7;
    lvl.counters.memReadRate = 1e7;
    lvl.counters.wssBytes = 2e7;
    return lvl;
}

TEST(FallbackChain, FullModelIsNotDegraded)
{
    core::TomurModel m;
    std::istringstream in(wrapV2(craftValidBody()));
    ASSERT_TRUE(m.load(in));
    auto p = traffic::TrafficProfile::defaults();
    auto b = m.predictDetailed({someContention()}, p, 5e5);
    EXPECT_FALSE(b.degraded);
    EXPECT_DOUBLE_EQ(b.confidence, 1.0);
    EXPECT_TRUE(b.degradedReason.empty());
}

TEST(FallbackChain, DegradedAccelCapsConfidence)
{
    core::TomurModel m;
    std::istringstream in(wrapV2(craftValidBody()));
    ASSERT_TRUE(m.load(in));
    m.markAccelDegraded(hw::AccelKind::Regex, "unit test");
    auto p = traffic::TrafficProfile::defaults();
    resetWarnCount();
    auto b = m.predictDetailed({someContention()}, p, 5e5);
    EXPECT_TRUE(b.degraded);
    EXPECT_LE(b.confidence, 0.6);
    EXPECT_NE(b.degradedReason.find("regex"), std::string::npos);
    EXPECT_GT(warnCount(), 0u); // the fallback logged a WARN event
    resetWarnCount();
}

TEST(FallbackChain, DegradedMemoryFallsBackToSoloHint)
{
    core::TomurModel m;
    std::istringstream in(wrapV2(craftValidBody()));
    ASSERT_TRUE(m.load(in));
    m.markMemoryDegraded("unit test");
    auto p = traffic::TrafficProfile::defaults();
    const double hint = 4.2e5;
    auto b = m.predictDetailed({someContention()}, p, hint);
    EXPECT_TRUE(b.degraded);
    EXPECT_LE(b.confidence, 0.25);
    // Solo-hint passthrough: contention is ignored entirely.
    EXPECT_DOUBLE_EQ(b.predicted, hint);
    resetWarnCount();
}

TEST(FallbackChain, UntrainedModelReportsNoInformation)
{
    core::TomurModel m; // never trained, never loaded
    auto p = traffic::TrafficProfile::defaults();
    auto r = m.trySoloThroughput(p);
    EXPECT_FALSE(r.isOk());
    EXPECT_EQ(r.status().code(), StatusCode::FailedPrecondition);
    EXPECT_DOUBLE_EQ(m.soloThroughput(p), 0.0); // warns, no panic

    auto b = m.predictDetailed({someContention()}, p, -1.0);
    EXPECT_TRUE(b.degraded);
    EXPECT_DOUBLE_EQ(b.confidence, 0.0);
    EXPECT_DOUBLE_EQ(b.predicted, 0.0);
    resetWarnCount();
}

// ---------------------------------------------------------------
// Fault-injected end-to-end training
// ---------------------------------------------------------------

TEST(FaultyTraining, CompletesAndStaysAccurate)
{
    auto defaults = traffic::TrafficProfile::defaults();

    core::TrainOptions opts;
    opts.adaptive.quota = 50;

    // Clean reference run.
    core::Lab clean;
    auto clean_nf = nfs::makeByName("FlowStats", clean.dev);
    core::TrainReport clean_report;
    auto clean_model = clean.trainer->train(*clean_nf, defaults, opts,
                                            &clean_report);
    EXPECT_EQ(clean_report.faultySamplesDetected, 0u);
    EXPECT_EQ(clean_report.samplesAbandoned, 0u);
    EXPECT_EQ(clean_report.subModelsDegraded, 0u);
    EXPECT_FALSE(clean_model.health().anyDegraded());

    // Faulty run: 10% sample corruption, library profiled cleanly
    // first (it is a one-time controlled step), then faults on.
    core::Lab flaky;
    flaky.faulty.setConfig(
        sim::FaultConfig::uniformCorruption(0.10, 99));

    auto faulty_nf = nfs::makeByName("FlowStats", flaky.dev);
    core::TrainOptions fopts = opts;
    fopts.screen.verifyBelowRatio = 0.6; // deep screen on bad gear
    core::TrainReport report;
    auto model = flaky.trainer->train(*faulty_nf, defaults, fopts,
                                      &report);

    // Training completed and the screens actually caught things.
    EXPECT_GT(report.faultySamplesDetected, 0u);
    EXPECT_GT(report.memorySamples, 0u);

    // Score both models against noise-free ground truth on unseen
    // co-runs (the evaluation itself uses the clean testbed).
    auto eval = [&](const core::TomurModel &mdl) {
        Rng rng(5);
        double err_sum = 0.0;
        int n = 0;
        auto nf = nfs::makeByName("FlowStats", clean.dev);
        core::TomurTrainer probe(*clean.lib); // workload profiling only
        for (int i = 0; i < 6; ++i) {
            auto p = defaults.withAttribute(
                traffic::Attribute::FlowCount,
                rng.uniform(2e3, 4e5));
            const auto &w = probe.workloadOf(*nf, p);
            const auto &bench = clean.lib->randomMemBench(rng);
            auto ms = clean.bed.run({w, bench.workload});
            double truth = ms[0].truthThroughput;
            double solo = clean.bed.runSolo(w).truthThroughput;
            double pred =
                mdl.predict({bench.level}, p, solo);
            err_sum += std::abs(pred - truth) / truth;
            ++n;
        }
        return err_sum / n;
    };
    double clean_err = eval(clean_model);
    double faulty_err = eval(model);

    // Graceful degradation: the fault-trained model stays within 2x
    // of the fault-free error (with a small absolute floor so a
    // near-perfect clean run does not make the bound vacuous).
    EXPECT_LE(faulty_err, std::max(2.0 * clean_err, 0.10))
        << "clean_err=" << clean_err
        << " faulty_err=" << faulty_err;

    // Clean-model predictions are never flagged degraded.
    Rng pick(1);
    std::vector<core::ContentionLevel> one_bench = {
        clean.lib->randomMemBench(pick).level};
    auto b = clean_model.predictDetailed(one_bench, defaults, 5e5);
    EXPECT_FALSE(b.degraded);
    resetWarnCount();
}

} // namespace
} // namespace tomur
