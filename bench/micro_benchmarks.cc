/**
 * @file
 * Micro-benchmarks (google-benchmark) of the library's hot paths:
 * regex scanning (DFA and NFA), LZ compression, payload synthesis,
 * gradient-boosting training and inference, one served model
 * prediction, cache fixed point,
 * round-robin solver, full testbed equilibrium solves, monitor
 * ingest, checkpoint framing, workload profiling and one serve-core
 * round trip. A plain google-benchmark binary: every --benchmark_*
 * flag applies.
 * End-to-end performance is measured by perfbench
 * (python3 perfbench/run.py).
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "common.hh"
#include "common/checkpoint.hh"
#include "common/logging.hh"
#include "common/sampler.hh"
#include "common/trace.hh"
#include "framework/accel_dev.hh"
#include "hw/accel_des.hh"
#include "hw/cache.hh"
#include "regex/generator.hh"
#include "serve/observe.hh"
#include "serve/server.hh"
#include "tomur/monitor.hh"

using namespace tomur;

namespace {

std::vector<std::uint8_t>
samplePayload(std::size_t len, double mtbr)
{
    traffic::TrafficProfile p;
    p.mtbr = mtbr;
    p.packetSize = len + 42;
    static auto rules = regex::defaultRuleSet();
    traffic::TrafficGen gen(p, &rules, 42);
    return gen.makePayload();
}

void
BM_RegexDfaScan(benchmark::State &state)
{
    regex::MultiMatcher matcher(regex::defaultRuleSet());
    auto payload = samplePayload(1434, 600);
    for (auto _ : state)
        benchmark::DoNotOptimize(matcher.scan(payload));
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(payload.size()));
}
BENCHMARK(BM_RegexDfaScan);

void
BM_LzCompress(benchmark::State &state)
{
    auto payload = samplePayload(1434, 600);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            framework::CompressionDevice::lzCompress(payload));
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(payload.size()));
}
BENCHMARK(BM_LzCompress);

void
BM_RegexNfaScan(benchmark::State &state)
{
    auto rules = regex::tinyRuleSet();
    std::vector<regex::Pattern> pats;
    for (const auto &r : rules.rules)
        pats.push_back(regex::parseOrDie(r.pattern));
    regex::Nfa nfa(pats);
    auto payload = samplePayload(256, 0);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            nfa.countMatches(payload.data(), payload.size()));
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(payload.size()));
}
BENCHMARK(BM_RegexNfaScan);

void
BM_PayloadSynthesis(benchmark::State &state)
{
    auto rules = regex::defaultRuleSet();
    traffic::TrafficProfile p;
    p.mtbr = 600;
    traffic::TrafficGen gen(p, &rules, 7);
    for (auto _ : state)
        benchmark::DoNotOptimize(gen.makePayload());
}
BENCHMARK(BM_PayloadSynthesis);

void
BM_GbrTrain(benchmark::State &state)
{
    Rng rng(5);
    ml::Dataset data({"a", "b", "c"});
    for (int i = 0; i < 300; ++i) {
        double a = rng.uniform(0, 1), b = rng.uniform(0, 1),
               c = rng.uniform(0, 1);
        data.add({a, b, c}, a * 3 + (b > 0.5 ? 2 : 0) + c * c);
    }
    ml::GbrParams params;
    params.numTrees = 50;
    for (auto _ : state) {
        ml::GradientBoostingRegressor gbr(params);
        gbr.fit(data);
        benchmark::DoNotOptimize(
            gbr.predict(std::vector<double>{0.5, 0.5, 0.5}));
    }
}
BENCHMARK(BM_GbrTrain);

void
BM_GbrPredict(benchmark::State &state)
{
    Rng rng(5);
    ml::Dataset data({"a", "b"});
    for (int i = 0; i < 200; ++i) {
        double a = rng.uniform(0, 1), b = rng.uniform(0, 1);
        data.add({a, b}, a + b);
    }
    ml::GradientBoostingRegressor gbr;
    gbr.fit(data);
    // A seeded batch of inputs, cycled: one fixed input would let the
    // branch predictor learn its path through every tree.
    std::vector<std::vector<double>> xs(1024);
    for (auto &x : xs)
        x = {rng.uniform(0, 1), rng.uniform(0, 1)};
    std::size_t i = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(gbr.predict(xs[i++ % xs.size()]));
}
BENCHMARK(BM_GbrPredict);

void
BM_PredictDetailed(benchmark::State &state)
{
    // The serve daemon's per-request model call: a trained
    // FlowMonitor model (3 memory + 3 solo members of 150 trees, one
    // regex accelerator model) against the reference contention,
    // over a seeded batch of traffic profiles.
    static bench::BenchEnv env;
    auto &nf = env.nf("FlowMonitor");
    const auto defaults = traffic::TrafficProfile::defaults();
    core::TrainOptions opts;
    opts.adaptive.quota = 20;
    static const core::TomurModel model =
        env.trainer->train(nf, defaults, opts);
    static const auto levels =
        env.lib->referenceContention(env.trainer->workloadOf(nf, defaults))
            .levels;
    Rng rng(11);
    std::vector<traffic::TrafficProfile> profiles(256);
    for (auto &p : profiles) {
        p = defaults
                .withAttribute(traffic::Attribute::FlowCount,
                               rng.uniform(1e3, 5e5))
                .withAttribute(traffic::Attribute::PacketSize,
                               rng.uniform(64, 1500))
                .withAttribute(traffic::Attribute::Mtbr,
                               rng.uniform(100, 1200));
    }
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(model.predictDetailed(
            levels, profiles[i++ % profiles.size()]));
    }
}
BENCHMARK(BM_PredictDetailed);

void
BM_CacheFixedPoint(benchmark::State &state)
{
    std::vector<hw::CacheWorkload> w = {
        {2e6, 30e6, 1.0}, {12e6, 40e6, 1.0}, {6e6, 10e6, 0.5}};
    for (auto _ : state)
        benchmark::DoNotOptimize(
            hw::solveCacheSharing(6e6, 0.02, w));
}
BENCHMARK(BM_CacheFixedPoint);

void
BM_RoundRobinSolver(benchmark::State &state)
{
    std::vector<hw::AccelQueue> queues = {{1e-6, 0, true},
                                          {2e-6, 3e5, false},
                                          {0.5e-6, 1e5, false}};
    for (auto _ : state)
        benchmark::DoNotOptimize(hw::solveRoundRobin(queues));
}
BENCHMARK(BM_RoundRobinSolver);

void
BM_RoundRobinDes(benchmark::State &state)
{
    std::vector<hw::AccelQueue> queues = {{1e-6, 0, true},
                                          {2e-6, 3e5, false}};
    hw::DesOptions opts;
    opts.duration = 0.05;
    opts.warmup = 0.005;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            hw::simulateRoundRobin(queues, opts));
}
BENCHMARK(BM_RoundRobinDes);

void
BM_TestbedSolve(benchmark::State &state)
{
    static bench::BenchEnv env;
    auto defaults = traffic::TrafficProfile::defaults();
    std::vector<framework::WorkloadProfile> deploy = {
        env.workload("FlowMonitor", defaults),
        env.workload("FlowStats", defaults),
        env.workload("NIDS", defaults)};
    for (auto _ : state)
        benchmark::DoNotOptimize(env.bed.run(deploy));
}
BENCHMARK(BM_TestbedSolve);

void
BM_MonitorIngest(benchmark::State &state)
{
    core::PredictionMonitor monitor;
    core::MonitorSample s;
    s.deployment = "bench";
    s.profile = traffic::TrafficProfile::defaults();
    s.predicted = 1000.0;
    std::uint64_t i = 0;
    for (auto _ : state) {
        // Small deterministic wobble: the error path runs in full
        // (EWMA, window, histogram, Page–Hinkley) without firing
        // events that would grow the retained stream.
        s.measured = 1000.0 + (i++ % 16) - 8.0;
        benchmark::DoNotOptimize(monitor.ingest(s));
    }
}
BENCHMARK(BM_MonitorIngest);

void
BM_CheckpointFrame(benchmark::State &state)
{
    // Frame + read back of a model-sized body through the one frame
    // codec (common/serial.hh) that model files and checkpoint log
    // frames share: the pure-CPU cost (one FNV-1a pass each way, no
    // I/O) a model blob pays once when staged and once when restored.
    std::string body(64 * 1024, '\0');
    for (std::size_t i = 0; i < body.size(); ++i)
        body[i] = static_cast<char>('a' + i % 26);
    for (auto _ : state) {
        std::string framed;
        appendFrame(framed, kCheckpointFrame, "blob 00000000000000a1\n",
                    body);
        FrameView f;
        if (!readFrame(framed, kCheckpointFrame, &f))
            fatal("checkpoint frame failed to verify");
        benchmark::DoNotOptimize(f.payload);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(body.size()));
}
BENCHMARK(BM_CheckpointFrame);

void
BM_WorkloadProfiling(benchmark::State &state)
{
    static bench::BenchEnv env;
    auto rules = regex::defaultRuleSet();
    traffic::TrafficProfile p;
    p.flowCount = 4096;
    for (auto _ : state) {
        auto nf = nfs::makeFlowStats();
        benchmark::DoNotOptimize(
            framework::profileWorkload(*nf, p, &rules));
    }
}
BENCHMARK(BM_WorkloadProfiling);

void
BM_ServeRoundTrip(benchmark::State &state)
{
    // The serve core's per-request cost without a model: one
    // keep-alive connection over a MemoryTransport, a stub service
    // answering a fixed body, and the observatory and sampling
    // profiler attached as `tomur_cli serve` attaches them. The
    // argument turns the tracer off (0) or on (1, sized as the
    // daemon sizes it).
    struct StubService : serve::Service
    {
        serve::ServiceReply
        handle(const serve::HttpRequest &) override
        {
            return {200, "application/json",
                    "{\"predicted_pps\":1423113.9}"};
        }
    } service;
    serve::Server server({}, service);
    serve::ServerObservatory observatory;
    SamplingProfiler profiler;
    observatory.profiler = &profiler;
    server.setObservatory(&observatory);
    auto pipe = std::make_shared<serve::MemoryTransport>();
    server.addConnection(std::make_unique<serve::SharedTransport>(pipe),
                         "bench");
    const std::string body = "{\"flows\":20000,\"size\":512,\"mtbr\":400}";
    const std::string request = "POST /predict HTTP/1.1\r\nContent-Length: " +
                                std::to_string(body.size()) + "\r\n\r\n" +
                                body;
    if (state.range(0) != 0)
        tracer().enable(serve::kAccessLogCapacity);
    for (auto _ : state) {
        pipe->clientWrite(request);
        for (int i = 0; i < 8 && pipe->clientPending() == 0; ++i)
            server.step();
        std::string response = pipe->clientRead();
        benchmark::DoNotOptimize(response.data());
        if (response.empty()) {
            state.SkipWithError("no response");
            break;
        }
    }
    tracer().disable();
}
BENCHMARK(BM_ServeRoundTrip)->Arg(0)->Arg(1);

} // namespace

BENCHMARK_MAIN();
