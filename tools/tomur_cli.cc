/**
 * @file
 * tomur — command-line front end to the prediction library.
 *
 * Subcommands:
 *   catalog                         list the NF catalog
 *   solo <NF> [traffic opts]        measured solo throughput
 *   train <NF> --out FILE           train and persist a model
 *   predict <NF> --with A,B,...     predict under co-location and
 *                                   compare against a deployment
 *   diagnose <NF> [traffic opts]    per-resource breakdown
 *   autopilot <NF> [--checkpoint-dir D] [--resume]
 *                                   self-healing monitored replay:
 *                                   crash-safe checkpoints, circuit-
 *                                   breaker recalibration, deadlines
 *   monitor <NF>                    the autopilot with a retry budget
 *                                   of 0: watch the model, never
 *                                   touch it
 *   replay <NF>                     the autopilot on the synthesized
 *                                   regime-change composite
 *   report [--metrics FILE] ...     render collected observability
 *                                   artifacts as a text/HTML dashboard
 *   serve <NF> [--port P] ...       prediction daemon: HTTP/JSON over
 *                                   epoll with load shedding, request
 *                                   deadlines, model hot-swap, and
 *                                   graceful SIGTERM drain
 *
 * The three replay commands run one driver (core::runAutopilot) and
 * differ only in their default schedule and retry budget. A schedule
 * is a `--scenario` script (traffic/synth.hh); a literal step is
 * `step flows=F size=S mtbr=M repeats=R`.
 *
 * Traffic options: --flows N --size B --mtbr M (defaults 16000 /
 * 1500 / 600). All runs happen on the built-in BlueField-2 testbed;
 * training uses a reduced quota so invocations stay interactive.
 * `--model FILE` loads a previously trained model instead of
 * retraining; `--faults P` injects a uniform corruption rate into
 * the testbed's measurement path (robustness demos).
 *
 * Observability (any command): `--trace-out FILE` writes a JSON-lines
 * span trace of the run, `--metrics-out FILE` writes a Prometheus-
 * style text dump of the tomur_* metrics registry (see DESIGN.md §8).
 *
 * Exit codes: 0 success, 1 runtime failure, 2 usage error,
 * 3 file I/O error, 4 corrupt model file, 5 internal error
 * (uncaught exception, reported as a structured warn event).
 */

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <typeinfo>
#include <vector>

#include "chaos/campaign.hh"
#include "common/checkpoint.hh"
#include "common/deadline.hh"
#include "common/directive.hh"
#include "common/logging.hh"
#include "common/report.hh"
#include "common/strutil.hh"
#include "common/telemetry.hh"
#include "common/trace.hh"
#include "nfs/registry.hh"
#include "serve/epoll_server.hh"
#include "serve/observe.hh"
#include "serve/registry.hh"
#include "serve/server.hh"
#include "serve/service.hh"
#include "sim/faults.hh"
#include "tomur/lab.hh"
#include "tomur/monitor.hh"
#include "tomur/supervisor.hh"
#include "traffic/synth.hh"
#include "usecases/diagnosis.hh"

using namespace tomur;

namespace {

/** Bounds on the CLI's counts and durations: far past any real run,
 *  they refuse a value that lexes as a number but means nothing. */
constexpr std::size_t kMaxCount = 1000000000;
constexpr double kMaxMs = 1e9; ///< about 11.6 days

/** Distinct exit codes so scripts can tell failure classes apart. */
enum ExitCode
{
    kExitOk = 0,
    kExitRuntime = 1,
    kExitUsage = 2,
    kExitIo = 3,
    kExitCorruptModel = 4,
    kExitInternal = 5,
};

struct Cli
{
    std::string command;
    std::string nf;
    std::vector<std::string> competitors;
    traffic::TrafficProfile profile;
    std::size_t quota = 80;
    std::string modelPath; ///< --model: load instead of training
    std::string outPath;   ///< --out: persist the trained model
    std::string traceOut;  ///< --trace-out: JSONL span trace
    std::string metricsOut; ///< --metrics-out: metrics text dump
    double faultRate = 0.0;

    // monitor / autopilot / replay
    std::string scenarioPath; ///< --scenario: synthesizer script
    std::string eventsOut;    ///< --events-out: event JSONL
    double biasFactor = 0.7;  ///< --bias: drift magnitude
    long biasAt = -1;         ///< --bias-at: sample index (off < 0)

    std::string checkpointDir;       ///< --checkpoint-dir
    bool resume = false;             ///< --resume
    std::size_t checkpointEvery = 8; ///< --checkpoint-every
    double deadlineMs = 0.0;         ///< --deadline-ms (0 = off)
    /** --max-recalibrations: the retry budget (`monitor`: 0). */
    std::size_t maxRecalibrations = 8;
    long crashAfter = -1; ///< --crash-after: chaos kill switch
    std::string profileOut; ///< --profile-out: sampling profile dump

    // serve
    int port = 0;                      ///< --port (0 = ephemeral)
    std::string bindAddress = "127.0.0.1"; ///< --bind
    std::string portFile;              ///< --port-file: write bound port
    std::size_t maxConnections = 256;  ///< --max-connections
    std::size_t queueDepth = 64;       ///< --queue-depth
    double drainMs = 5000.0;           ///< --drain-ms
    double rate = 0.0;  ///< --rate: bucket refill per second (0 = off)
    double burst = 0.0; ///< --burst: bucket capacity (0 = off)
    std::string accessLogPath; ///< --access-log: request JSONL

    // chaos
    std::uint64_t chaosSeed = 7;   ///< --seed
    std::size_t chaosRuns = 50;    ///< --runs: random-tier plans
    std::string reproOut;          ///< --repro-out: shrunk repro file
    std::string replayPath;        ///< --replay: repro file to re-run
    std::string plant;             ///< --plant: planted regression
    std::string workDir;           ///< --work-dir: scratch directory

    // report
    std::string reportMetrics; ///< --metrics: dump to render
    std::string reportTrace;   ///< --trace: trace JSONL to render
    std::string reportMonitor; ///< --monitor: event JSONL to render
    std::string reportSlo;     ///< --slo: SLO JSONL to render
    std::string reportAccess;  ///< --access: access-log JSONL
    std::string reportChaos;   ///< --chaos: campaign ledger JSONL
    bool reportHtml = false;   ///< --html: HTML instead of text
};

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: tomur_cli <command> [args]\n"
        "  catalog\n"
        "  solo <NF> [--flows N] [--size B] [--mtbr M]\n"
        "  train <NF> --out FILE [--quota Q] [--faults P]\n"
        "  predict <NF> --with A,B[,C] [--flows N] [--size B]\n"
        "          [--mtbr M] [--quota Q] [--model FILE]\n"
        "          [--faults P]\n"
        "  diagnose <NF> [--flows N] [--size B] [--mtbr M]\n"
        "          [--model FILE] [--faults P]\n"
        "  autopilot <NF> [--checkpoint-dir DIR] [--resume]\n"
        "          [--checkpoint-every N] [--deadline-ms MS]\n"
        "          [--max-recalibrations N] [--crash-after N]\n"
        "          [--scenario FILE] [--profile-out FILE]\n"
        "          [--events-out FILE] [--bias F] [--bias-at K]\n"
        "          [--quota Q] [--model FILE] [--faults P]\n"
        "          [traffic opts]\n"
        "  monitor <NF> [autopilot opts]   (retry budget 0)\n"
        "  replay <NF> [autopilot opts]    (default scenario: the\n"
        "          regime-change composite)\n"
        "  report [--metrics FILE] [--trace FILE]\n"
        "          [--monitor FILE] [--slo FILE] [--access FILE]\n"
        "          [--chaos FILE] [--out FILE] [--html]\n"
        "  chaos [NF] [--seed S] [--runs N] [--events-out FILE]\n"
        "          [--repro-out FILE] [--replay FILE]\n"
        "          [--plant NAME] [--work-dir DIR]\n"
        "  serve <NF> [--port P] [--bind ADDR] [--port-file FILE]\n"
        "          [--model FILE] [--quota Q] [--deadline-ms MS]\n"
        "          [--max-connections N] [--queue-depth N]\n"
        "          [--drain-ms MS] [--rate R] [--burst B]\n"
        "          [--access-log FILE] [--profile-out FILE]\n"
        "          [--faults P] [traffic opts]\n"
        "common options:\n"
        "  --trace-out FILE    write a JSONL span trace of the run\n"
        "  --metrics-out FILE  write a metrics registry text dump\n");
    std::exit(kExitUsage);
}

std::string
strArg(int argc, char **argv, int &i)
{
    if (i + 1 >= argc) {
        std::fprintf(stderr, "error: option '%s' needs a value\n",
                     argv[i]);
        usage();
    }
    return argv[++i];
}

/** Read flag argv[i]'s value into `field` by the number grammar every
 *  text input shares (readNumber(): no '+', no hex, finite), within
 *  [lo, hi]; a usage error naming the flag otherwise. */
template <class T>
void
numArg(int argc, char **argv, int &i, T &field,
       std::type_identity_t<T> lo, std::type_identity_t<T> hi)
{
    const char *flag = argv[i];
    std::string text = strArg(argc, argv, i);
    if (!readNumber<T>(text, lo, hi, &field)) {
        std::fprintf(stderr, "error: option '%s' needs %s, got '%s'\n",
                     flag, expectedNumber<T>(lo, hi).c_str(),
                     text.c_str());
        usage();
    }
}

/** Like numArg() for a traffic attribute of cli.profile, within the
 *  attribute's input bounds. */
void
attributeArg(int argc, char **argv, int &i, Cli &cli,
             traffic::Attribute a)
{
    double v = 0.0;
    traffic::AttributeRange r = traffic::inputBounds(a);
    numArg(argc, argv, i, v, r.min, r.max);
    cli.profile = cli.profile.withAttribute(a, v);
}

/** Reject unknown NF names before any heavy setup, with the catalog
 *  as the hint (instead of aborting deep inside the registry). */
void
requireKnownNf(const std::string &name)
{
    std::string known;
    for (const auto &info : nfs::catalog()) {
        if (info.name == name)
            return;
        if (!known.empty())
            known += ", ";
        known += info.name;
    }
    std::fprintf(stderr,
                 "error: unknown NF '%s' (known: %s)\n",
                 name.c_str(), known.c_str());
    std::exit(kExitUsage);
}

Cli
parse(int argc, char **argv)
{
    if (argc < 2)
        usage();
    Cli cli;
    cli.command = argv[1];
    int i = 2;
    if (cli.command == "chaos") {
        // The NF operand is optional (defaults to FlowStats).
        if (i < argc && argv[i][0] != '-')
            cli.nf = argv[i++];
    } else if (cli.command != "catalog" && cli.command != "report") {
        if (i >= argc) {
            std::fprintf(stderr, "error: command '%s' needs an NF\n",
                         cli.command.c_str());
            usage();
        }
        cli.nf = argv[i++];
    }
    if (cli.command == "monitor")
        cli.maxRecalibrations = 0;
    for (; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--flows") {
            attributeArg(argc, argv, i, cli,
                         traffic::Attribute::FlowCount);
        } else if (arg == "--size") {
            attributeArg(argc, argv, i, cli,
                         traffic::Attribute::PacketSize);
        } else if (arg == "--mtbr") {
            attributeArg(argc, argv, i, cli, traffic::Attribute::Mtbr);
        } else if (arg == "--quota") {
            numArg(argc, argv, i, cli.quota, 1, kMaxCount);
        } else if (arg == "--with") {
            cli.competitors = split(strArg(argc, argv, i), ',');
        } else if (arg == "--model") {
            cli.modelPath = strArg(argc, argv, i);
        } else if (arg == "--out") {
            cli.outPath = strArg(argc, argv, i);
        } else if (arg == "--trace-out") {
            cli.traceOut = strArg(argc, argv, i);
        } else if (arg == "--metrics-out") {
            cli.metricsOut = strArg(argc, argv, i);
        } else if (arg == "--scenario") {
            cli.scenarioPath = strArg(argc, argv, i);
        } else if (arg == "--profile-out") {
            cli.profileOut = strArg(argc, argv, i);
        } else if (arg == "--events-out") {
            cli.eventsOut = strArg(argc, argv, i);
        } else if (arg == "--bias") {
            numArg(argc, argv, i, cli.biasFactor, sim::kMinBiasFactor,
                   sim::kMaxBiasFactor);
        } else if (arg == "--bias-at") {
            numArg(argc, argv, i, cli.biasAt, -1, kMaxCount);
        } else if (arg == "--checkpoint-dir") {
            cli.checkpointDir = strArg(argc, argv, i);
        } else if (arg == "--resume") {
            cli.resume = true;
        } else if (arg == "--checkpoint-every") {
            numArg(argc, argv, i, cli.checkpointEvery, 0, kMaxCount);
        } else if (arg == "--deadline-ms") {
            numArg(argc, argv, i, cli.deadlineMs, 0.0, kMaxMs);
        } else if (arg == "--max-recalibrations") {
            numArg(argc, argv, i, cli.maxRecalibrations, 0, kMaxCount);
        } else if (arg == "--crash-after") {
            numArg(argc, argv, i, cli.crashAfter, -1, kMaxCount);
        } else if (arg == "--port") {
            numArg(argc, argv, i, cli.port, 0, 65535);
        } else if (arg == "--bind") {
            cli.bindAddress = strArg(argc, argv, i);
        } else if (arg == "--port-file") {
            cli.portFile = strArg(argc, argv, i);
        } else if (arg == "--max-connections") {
            numArg(argc, argv, i, cli.maxConnections, 0, kMaxCount);
        } else if (arg == "--queue-depth") {
            numArg(argc, argv, i, cli.queueDepth, 0, kMaxCount);
        } else if (arg == "--drain-ms") {
            numArg(argc, argv, i, cli.drainMs, 0.0, kMaxMs);
        } else if (arg == "--rate") {
            numArg(argc, argv, i, cli.rate, 0.0, kMaxCount);
        } else if (arg == "--burst") {
            numArg(argc, argv, i, cli.burst, 0.0, kMaxCount);
        } else if (arg == "--access-log") {
            cli.accessLogPath = strArg(argc, argv, i);
        } else if (arg == "--seed") {
            numArg(argc, argv, i, cli.chaosSeed, 0, UINT64_MAX);
        } else if (arg == "--runs") {
            numArg(argc, argv, i, cli.chaosRuns, 0, kMaxCount);
        } else if (arg == "--repro-out") {
            cli.reproOut = strArg(argc, argv, i);
        } else if (arg == "--replay") {
            cli.replayPath = strArg(argc, argv, i);
        } else if (arg == "--plant") {
            cli.plant = strArg(argc, argv, i);
        } else if (arg == "--work-dir") {
            cli.workDir = strArg(argc, argv, i);
        } else if (arg == "--metrics") {
            cli.reportMetrics = strArg(argc, argv, i);
        } else if (arg == "--trace") {
            cli.reportTrace = strArg(argc, argv, i);
        } else if (arg == "--monitor") {
            cli.reportMonitor = strArg(argc, argv, i);
        } else if (arg == "--slo") {
            cli.reportSlo = strArg(argc, argv, i);
        } else if (arg == "--access") {
            cli.reportAccess = strArg(argc, argv, i);
        } else if (arg == "--chaos") {
            cli.reportChaos = strArg(argc, argv, i);
        } else if (arg == "--html") {
            cli.reportHtml = true;
        } else if (arg == "--faults") {
            numArg(argc, argv, i, cli.faultRate, 0.0, 1.0);
        } else {
            std::fprintf(stderr, "error: unknown option '%s'\n",
                         arg.c_str());
            usage();
        }
    }
    return cli;
}

/** The lab, its NIC made faulty after the bench library is
 *  profiled (a one-time, controlled step even on a flaky NIC). */
struct Env : core::Lab
{
    explicit Env(double fault_rate)
    {
        if (fault_rate > 0.0) {
            faulty.setConfig(
                sim::FaultConfig::uniformCorruption(fault_rate));
            std::fprintf(stderr,
                         "injecting measurement faults at rate "
                         "%.2f\n",
                         fault_rate);
        }
    }
};

/** Load a persisted model, mapping failures to exit codes. */
core::TomurModel
loadModelOrExit(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "error: cannot open '%s': %s\n",
                     path.c_str(), std::strerror(errno));
        std::exit(kExitIo);
    }
    core::TomurModel model;
    if (auto st = model.load(in); !st) {
        std::fprintf(stderr, "error: model file '%s' is unusable: "
                             "%s\n",
                     path.c_str(), st.toString().c_str());
        std::exit(kExitCorruptModel);
    }
    return model;
}

/** Save a trained model, mapping failures to exit codes. */
void
saveModelOrExit(const core::TomurModel &model,
                const std::string &path)
{
    std::ofstream out(path, std::ios::binary);
    if (!out) {
        std::fprintf(stderr, "error: cannot create '%s': %s\n",
                     path.c_str(), std::strerror(errno));
        std::exit(kExitIo);
    }
    if (auto st = model.save(out); !st) {
        std::fprintf(stderr, "error: saving to '%s' failed: %s\n",
                     path.c_str(), st.toString().c_str());
        std::exit(kExitIo);
    }
    out.flush();
    if (!out) {
        std::fprintf(stderr, "error: writing '%s' failed: %s\n",
                     path.c_str(), std::strerror(errno));
        std::exit(kExitIo);
    }
}

/** Write an output file through `fill`. On failure prints an error
 *  naming `what` and returns false; the caller exits kExitIo. */
bool
writeOutput(const std::string &path, const char *what,
            const std::function<void(std::ostream &)> &fill)
{
    std::ofstream out(path);
    if (out)
        fill(out);
    if (!out) {
        std::fprintf(stderr, "error: cannot write %s to '%s': %s\n",
                     what, path.c_str(), std::strerror(errno));
        return false;
    }
    return true;
}

/** Train (with screening tuned for the injected fault rate) or load
 *  the model for the target NF. */
core::TomurModel
obtainModel(Env &env, const Cli &cli,
            framework::NetworkFunction &nf)
{
    if (!cli.modelPath.empty())
        return loadModelOrExit(cli.modelPath);
    std::fprintf(stderr, "training model for %s (quota %zu)...\n",
                 cli.nf.c_str(), cli.quota);
    core::TrainOptions opts;
    opts.adaptive.quota = cli.quota;
    if (cli.faultRate > 0.0) {
        // Faulty testbed: also screen suspiciously low ratios by
        // repetition (the default screen only rejects implausible
        // values).
        opts.screen.verifyBelowRatio = 0.6;
    }
    core::TrainReport report;
    auto model = env.trainer->train(nf, cli.profile, opts, &report);
    if (report.faultySamplesDetected > 0) {
        std::fprintf(stderr,
                     "screened %zu faulty measurements (%zu "
                     "retries, %zu abandoned, %zu sub-models "
                     "degraded)\n",
                     report.faultySamplesDetected,
                     report.retriesUsed, report.samplesAbandoned,
                     report.subModelsDegraded);
    }
    return model;
}

int
cmdCatalog()
{
    std::printf("%-16s %-6s %-12s %-9s %s\n", "NF", "regex",
                "compression", "crypto", "traffic-sensitive");
    for (const auto &info : nfs::catalog()) {
        std::printf("%-16s %-6s %-12s %-9s %s\n", info.name.c_str(),
                    info.usesRegex ? "yes" : "-",
                    info.usesCompression ? "yes" : "-",
                    info.usesCrypto ? "yes" : "-",
                    info.trafficSensitive ? "yes" : "-");
    }
    return kExitOk;
}

int
cmdSolo(const Cli &cli)
{
    Env env(cli.faultRate);
    auto nf = nfs::makeByName(cli.nf, env.dev);
    auto m = env.faulty.runSolo(
        env.trainer->workloadOf(*nf, cli.profile));
    std::printf("%s @ %s: %.1f Kpps solo (bottleneck: %s)\n",
                cli.nf.c_str(), cli.profile.toString().c_str(),
                m.truthThroughput / 1e3,
                sim::bottleneckName(m.bottleneck));
    return kExitOk;
}

int
cmdTrain(const Cli &cli)
{
    if (cli.outPath.empty()) {
        std::fprintf(stderr, "error: train needs --out FILE\n");
        usage();
    }
    Env env(cli.faultRate);
    auto nf = nfs::makeByName(cli.nf, env.dev);
    auto model = obtainModel(env, cli, *nf);
    saveModelOrExit(model, cli.outPath);
    std::printf("model for %s written to %s%s\n", cli.nf.c_str(),
                cli.outPath.c_str(),
                model.health().anyDegraded()
                    ? " (degraded sub-models; see warnings)"
                    : "");
    return kExitOk;
}

int
cmdPredict(const Cli &cli)
{
    if (cli.competitors.empty()) {
        std::fprintf(stderr, "error: predict needs --with A,B,...\n");
        usage();
    }
    if (cli.competitors.size() > 3) {
        std::fprintf(stderr, "error: at most 3 competitors fit on "
                             "one NIC\n");
        usage();
    }
    for (const auto &name : cli.competitors)
        requireKnownNf(name);
    Env env(cli.faultRate);
    auto nf = nfs::makeByName(cli.nf, env.dev);
    auto model = obtainModel(env, cli, *nf);

    std::vector<core::ContentionLevel> levels;
    std::vector<framework::WorkloadProfile> deploy = {
        env.trainer->workloadOf(*nf, cli.profile)};
    auto defaults = traffic::TrafficProfile::defaults();
    for (const auto &name : cli.competitors) {
        auto comp = nfs::makeByName(name, env.dev);
        levels.push_back(env.trainer->contentionOf(*comp, defaults));
        deploy.push_back(env.trainer->workloadOf(*comp, defaults));
    }

    double solo = env.bed.runSolo(deploy[0]).truthThroughput;
    auto b = model.predictDetailed(levels, cli.profile, solo);
    auto measured = env.bed.run(deploy);

    std::printf("%s with {%s} @ %s\n", cli.nf.c_str(),
                join(cli.competitors, ", ").c_str(),
                cli.profile.toString().c_str());
    std::printf("  solo      : %10.1f Kpps\n", solo / 1e3);
    std::printf("  predicted : %10.1f Kpps (drop %.1f%%)\n",
                b.predicted / 1e3,
                100.0 * (1.0 - b.predicted / solo));
    std::printf("  measured  : %10.1f Kpps (error %.1f%%)\n",
                measured[0].throughput / 1e3,
                100.0 *
                    std::abs(b.predicted - measured[0].throughput) /
                    measured[0].throughput);
    if (b.degraded) {
        std::printf("  CAUTION   : degraded prediction "
                    "(confidence %.2f): %s\n",
                    b.confidence, b.degradedReason.c_str());
    }
    return kExitOk;
}

int
cmdDiagnose(const Cli &cli)
{
    Env env(cli.faultRate);
    auto nf = nfs::makeByName(cli.nf, env.dev);
    auto model = obtainModel(env, cli, *nf);

    const auto &w = env.trainer->workloadOf(*nf, cli.profile);
    auto levels = env.lib->referenceContention(w).levels;

    double solo = env.bed.runSolo(w).truthThroughput;
    auto b = model.predictDetailed(levels, cli.profile, solo);
    std::printf("%s @ %s under reference contention:\n",
                cli.nf.c_str(), cli.profile.toString().c_str());
    std::printf("  solo                : %10.1f Kpps\n",
                b.soloThroughput / 1e3);
    std::printf("  memory-only         : %10.1f Kpps\n",
                b.memoryOnlyThroughput / 1e3);
    for (int k = 0; k < hw::numAccelKinds; ++k) {
        if (b.accelUsed[k]) {
            std::printf("  %-11s-only    : %10.1f Kpps\n",
                        hw::accelName(static_cast<hw::AccelKind>(k)),
                        b.accelOnlyThroughput[k] / 1e3);
        }
    }
    std::printf("  composed prediction : %10.1f Kpps\n",
                b.predicted / 1e3);
    std::printf("  dominant bottleneck : %s\n",
                core::resourceName(usecases::tomurDiagnosis(b)));
    if (b.degraded) {
        std::printf("  CAUTION             : degraded prediction "
                    "(confidence %.2f): %s\n",
                    b.confidence, b.degradedReason.c_str());
    }
    return kExitOk;
}

/** Load --scenario (or the built-in default), mapping failures to
 *  exit codes. The `replay` command defaults to the composite stress
 *  scenario, `monitor` and `autopilot` to the plain shift-and-return
 *  schedule. */
std::vector<core::ScheduleStep>
loadScheduleOrExit(const Cli &cli)
{
    if (cli.scenarioPath.empty()) {
        if (cli.command == "replay") {
            return core::toSchedule(
                traffic::defaultComposite(cli.profile));
        }
        return core::defaultSchedule(cli.profile);
    }
    std::ifstream in(cli.scenarioPath);
    if (!in) {
        std::fprintf(stderr, "error: cannot open '%s': %s\n",
                     cli.scenarioPath.c_str(), std::strerror(errno));
        std::exit(kExitIo);
    }
    auto parsed = traffic::parseScenario(in);
    if (!parsed) {
        std::fprintf(stderr, "error: %s\n",
                     parsed.status().toString().c_str());
        std::exit(kExitUsage);
    }
    return core::toSchedule(parsed.value());
}

/** The one driver behind `monitor`, `autopilot` and `replay`. */
int
runSupervisedReplay(const Cli &cli)
{
    // Install SIGTERM/SIGINT -> flag handlers before any heavy work:
    // a signal during initial training is remembered and honoured at
    // the first sample instead of killing the process mid-setup.
    serve::installShutdownHandlers();

    Env env(cli.faultRate);
    auto nf = nfs::makeByName(cli.nf, env.dev);

    std::unique_ptr<CheckpointStore> store;
    if (!cli.checkpointDir.empty())
        store = std::make_unique<CheckpointStore>(cli.checkpointDir);

    // A resumable run gets its model (and all detector state) from
    // the checkpoint; only a fresh start pays for training.
    bool haveCheckpoint = cli.resume && store != nullptr &&
                          !store->listGenerations().empty();
    core::TomurModel model;
    if (!haveCheckpoint)
        model = obtainModel(env, cli, *nf);

    std::vector<core::ScheduleStep> schedule =
        loadScheduleOrExit(cli);

    const auto &w = env.trainer->workloadOf(*nf, cli.profile);
    auto ref = env.lib->referenceContention(w);

    core::PredictionMonitor monitor;
    core::ReplayContext ctx;
    ctx.trainer = env.trainer.get();
    ctx.model = &model;
    ctx.nf = nf.get();
    ctx.levels = ref.levels;
    ctx.competitors = ref.workloads;
    ctx.soloBed = &env.bed;
    ctx.measureBed = &env.faulty;
    ctx.label = cli.nf;

    if (cli.crashAfter >= 0) {
        auto cfg = env.faulty.faultConfig();
        cfg.crashAfterBatches = cli.crashAfter;
        env.faulty.setConfig(cfg);
        std::fprintf(stderr,
                     "chaos: will crash after %ld batches\n",
                     cli.crashAfter);
    }

    // Recalibration = full retrain through the (possibly faulty,
    // possibly biased) measurement path, under the optional wall-
    // clock deadline. Degraded sub-models count as failure — the
    // breaker should not close on a model that is itself limping.
    core::TrainOptions topts;
    topts.adaptive.quota = cli.quota;
    if (cli.faultRate > 0.0)
        topts.screen.verifyBelowRatio = 0.6;
    auto recalibrate = [&](std::size_t sample,
                           std::string *detail) -> Status {
        (void)sample;
        core::TrainReport report;
        core::TomurModel fresh;
        if (cli.deadlineMs > 0.0) {
            Deadline dl = Deadline::afterMillis(cli.deadlineMs);
            ScopedDeadline scope(dl);
            fresh = env.trainer->train(*nf, cli.profile, topts,
                                       &report);
        } else {
            fresh = env.trainer->train(*nf, cli.profile, topts,
                                       &report);
        }
        if (report.subModelsDegraded > 0 ||
            fresh.health().anyDegraded()) {
            return Status::unavailable(
                strf("retrain left %zu sub-models degraded",
                     report.subModelsDegraded));
        }
        model = std::move(fresh);
        if (detail != nullptr) {
            *detail = strf("retrained (%zu memory samples, %zu "
                           "faulty screened)",
                           report.memorySamples,
                           report.faultySamplesDetected);
        }
        return Status::ok();
    };

    core::SupervisorOptions sopts;
    sopts.maxRecalibrations = cli.maxRecalibrations;
    core::Supervisor supervisor(sopts, recalibrate);

    core::AutopilotOptions aopts;
    aopts.replay.biasAtSample = cli.biasAt;
    aopts.replay.biasFactor = cli.biasFactor;
    aopts.checkpointEverySamples =
        store != nullptr ? cli.checkpointEvery : 0;
    aopts.resume = cli.resume;
    // SIGTERM/SIGINT ends the run cleanly: the loop writes a final
    // checkpoint and returns, instead of dying mid-generation.
    aopts.stopRequested = serve::shutdownRequested;
    SamplingProfiler profiler;
    aopts.profiler = &profiler;

    auto res = core::runAutopilot(ctx, schedule, monitor,
                                  supervisor, store.get(), aopts);
    if (!res) {
        std::fprintf(stderr, "error: %s\n",
                     res.status().toString().c_str());
        switch (res.status().code()) {
          case StatusCode::CorruptData:
            return kExitCorruptModel;
          case StatusCode::IoError:
            return kExitIo;
          default:
            return kExitRuntime;
        }
    }

    if (!cli.eventsOut.empty() &&
        !writeOutput(cli.eventsOut, "events", [&](std::ostream &out) {
            monitor.exportJsonl(out);
            supervisor.exportJsonl(out);
        })) {
        return kExitIo;
    }

    const auto &r = res.value();
    const auto &sup = r.supervisorSummary;
    if (r.stoppedEarly) {
        std::printf("%s: stopped by signal at sample %zu/%zu "
                    "(final checkpoint %s)\n",
                    cli.nf.c_str(), r.stoppedAtSample, r.samples,
                    store != nullptr ? "written" : "skipped: no "
                                                   "--checkpoint-dir");
    }
    std::printf("%s: %zu samples supervised (%zu resumed past), "
                "breaker %s\n",
                cli.nf.c_str(), r.samples, r.startSample,
                core::breakerStateName(sup.state));
    std::printf("  recalibrations: %zu attempted, %zu succeeded, "
                "%zu failed (%zu breaker trips)\n",
                sup.recalibrationsAttempted,
                sup.recalibrationsSucceeded,
                sup.recalibrationsFailed, sup.breakerTrips);
    std::printf("  deadline misses: %zu\n", sup.deadlineMisses);
    std::printf("  |rel error|: ewma %.4f, mean %.4f\n",
                r.monitorSummary.ewmaAbsError,
                r.monitorSummary.meanAbsError);
    for (int k = 0; k < core::numSupervisorEventKinds; ++k) {
        if (sup.eventCounts[k] == 0)
            continue;
        std::printf("    %-26s %zu\n",
                    core::supervisorEventName(
                        static_cast<core::SupervisorEventKind>(k)),
                    sup.eventCounts[k]);
    }
    const auto &mon = r.monitorSummary;
    std::printf("  recovery: %zu regime changes recovered "
                "(mean %.1f samples, max %zu)%s\n",
                mon.recoveries, mon.meanRecoverySamples,
                mon.maxRecoverySamples,
                mon.recoveryOpen ? "; one regime still open" : "");
    std::printf("  profiler: %llu tokens, %llu sampled\n",
                static_cast<unsigned long long>(profiler.tokens()),
                static_cast<unsigned long long>(
                    profiler.sampledTokens()));
    if (!cli.profileOut.empty() &&
        !writeOutput(cli.profileOut, "profile", [&](std::ostream &out) {
            profiler.exportText(out);
        })) {
        return kExitIo;
    }
    return kExitOk;
}

int
cmdServe(const Cli &cli)
{
    Env env(cli.faultRate);
    auto nf = nfs::makeByName(cli.nf, env.dev);
    auto model = obtainModel(env, cli, *nf);

    // Reference contention is captured once, up front: the request
    // hot path predicts against these levels and never touches a
    // testbed, so a /predict costs microseconds.
    const auto &w = env.trainer->workloadOf(*nf, cli.profile);
    auto ref = env.lib->referenceContention(w);

    serve::ModelRegistry registry;
    registry.install(std::move(model), cli.modelPath.empty()
                                           ? "trained"
                                           : cli.modelPath);
    serve::ModelService service(registry, ref.levels, cli.nf);

    // The observatory rides the single-threaded core: the server
    // writes it (access log, SLO folds, phase profiling), /debug
    // reads it. The tracer gets a bounded ring so /debug/trace has
    // recent spans without unbounded daemon memory: a request
    // records one span, so the ring holds about as many requests as
    // the access log.
    SamplingProfiler profiler;
    serve::ServerObservatory observatory;
    observatory.profiler = &profiler;
    std::ofstream accessOut;
    if (!cli.accessLogPath.empty()) {
        accessOut.open(cli.accessLogPath);
        if (!accessOut) {
            std::fprintf(
                stderr,
                "error: cannot write access log '%s': %s\n",
                cli.accessLogPath.c_str(), std::strerror(errno));
            return kExitIo;
        }
        observatory.accessSink =
            [&accessOut](const serve::AccessRecord &rec) {
                accessOut << serve::formatAccessRecord(
                                 rec, /*canonical=*/false)
                          << "\n";
            };
    }
    if (!tracer().enabled())
        tracer().enable(serve::kAccessLogCapacity);
    service.attachObservatory(&observatory);

    serve::ServeOptions sopts;
    sopts.maxConnections = cli.maxConnections;
    sopts.maxQueueDepth = cli.queueDepth;
    sopts.requestDeadlineMs = cli.deadlineMs;
    sopts.bucketCapacity = cli.burst;
    serve::Server core(sopts, service);
    core.setObservatory(&observatory);

    serve::EpollOptions eopts;
    eopts.bindAddress = cli.bindAddress;
    eopts.port = cli.port;
    eopts.drainDeadlineMs = cli.drainMs;
    eopts.bucketRefillPerSec = cli.rate;
    serve::EpollServer daemon(core, eopts);
    if (!daemon.status().isOk()) {
        std::fprintf(stderr, "error: %s\n",
                     daemon.status().toString().c_str());
        return kExitIo;
    }

    // Scripts binding port 0 discover the choice here; written
    // before run() so pollers see it as soon as we can serve.
    if (!cli.portFile.empty() &&
        !writeOutput(cli.portFile, "port file", [&](std::ostream &out) {
            out << daemon.boundPort() << "\n";
        })) {
        return kExitIo;
    }

    serve::installShutdownHandlers();
    Status st = daemon.run();

    const auto &s = core.stats();
    std::printf("served %zu requests (%zu shed, %zu throttled, "
                "%zu deadline misses, %zu parse errors, "
                "%zu internal errors)\n",
                s.requestsHandled, s.shed + s.acceptShed,
                s.throttled, s.deadlineMisses, s.parseErrors,
                s.internalErrors);
    for (const auto &slo : observatory.slo.states()) {
        std::printf("  slo %s: %llu/%llu bad, budget %.2f "
                    "remaining, %llu burns / %llu recoveries%s\n",
                    slo.name.c_str(),
                    static_cast<unsigned long long>(slo.bad),
                    static_cast<unsigned long long>(slo.total),
                    slo.budgetRemaining,
                    static_cast<unsigned long long>(slo.burnEvents),
                    static_cast<unsigned long long>(
                        slo.recoveredEvents),
                    slo.burning ? " (still burning)" : "");
    }
    if (!cli.profileOut.empty() &&
        !writeOutput(cli.profileOut, "profile", [&](std::ostream &out) {
            profiler.exportText(out);
        })) {
        return kExitIo;
    }
    if (!st.isOk()) {
        std::fprintf(stderr, "error: %s\n", st.toString().c_str());
        return kExitRuntime;
    }
    return kExitOk;
}

/** Read a whole file; empty path -> empty body, missing file -> exit
 *  with an I/O error naming the artifact. */
std::string
readArtifactOrExit(const std::string &path, const char *what)
{
    if (path.empty())
        return "";
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "error: cannot open %s '%s': %s\n",
                     what, path.c_str(), std::strerror(errno));
        std::exit(kExitIo);
    }
    std::ostringstream body;
    body << in.rdbuf();
    return body.str();
}

int
cmdChaos(const Cli &cli)
{
    std::string nf = cli.nf.empty() ? "FlowStats" : cli.nf;
    chaos::RunnerOptions ropts;
    ropts.workDir = cli.workDir;
    if (ropts.workDir.empty()) {
        ropts.workDir =
            (std::filesystem::temp_directory_path() / "tomur-chaos")
                .string();
    }
    ropts.plant = cli.plant;

    if (!cli.replayPath.empty()) {
        std::ifstream in(cli.replayPath);
        if (!in) {
            std::fprintf(stderr,
                         "error: cannot read repro '%s': %s\n",
                         cli.replayPath.c_str(),
                         std::strerror(errno));
            return kExitIo;
        }
        auto plan = chaos::parsePlan(in);
        if (!plan) {
            std::fprintf(stderr, "error: bad repro file: %s\n",
                         plan.status().toString().c_str());
            return kExitUsage;
        }
        // Built only now: building the world trains a model, which a
        // refused repro must not pay for.
        chaos::ChaosWorld world(nf);
        auto outcome = chaos::runPlan(world, plan.value(), ropts);
        auto verdicts = chaos::checkInvariants(plan.value(), outcome);
        std::size_t violations = 0;
        std::printf("replay %s: seed=%llu target=%s actions=%zu "
                    "samples=%zu crashes=%zu stream=%016llx\n",
                    cli.replayPath.c_str(),
                    static_cast<unsigned long long>(
                        plan.value().seed),
                    chaos::planTargetName(plan.value().target),
                    plan.value().actions.size(), outcome.samples,
                    outcome.crashes,
                    static_cast<unsigned long long>(
                        outcome.streamHash));
        for (const auto &v : verdicts) {
            std::printf("  %-22s %s%s%s\n",
                        chaos::invariantName(v.kind),
                        v.passed ? "pass" : "FAIL",
                        v.passed ? "" : " — ",
                        v.detail.c_str());
            violations += v.passed ? 0 : 1;
        }
        return violations == 0 ? kExitOk : kExitRuntime;
    }

    chaos::ChaosWorld world(nf);
    chaos::CampaignOptions copts;
    copts.seed = cli.chaosSeed;
    copts.runs = cli.chaosRuns;
    copts.runner = ropts;
    auto result = chaos::runCampaign(world, copts);

    std::printf("chaos campaign: %zu plans, %zu violations "
                "(%zu plans), %zu crashes, %zu resumes, "
                "%zu faults injected, %zu determinism re-runs\n",
                result.plans, result.violations,
                result.violatingPlans, result.crashes,
                result.resumes, result.faultsInjected,
                result.determinismReruns);
    for (int k = 0; k < chaos::numInvariants; ++k) {
        std::printf("  %-22s %s\n",
                    chaos::invariantName(
                        static_cast<chaos::InvariantKind>(k)),
                    result.invariantFailures[k] == 0
                        ? "pass"
                        : strf("FAIL x%zu",
                               result.invariantFailures[k])
                              .c_str());
    }
    if (result.haveRepro) {
        std::printf("first violation: plan %zu, %s — %s "
                    "(shrunk to %zu actions in %zu probe runs)\n",
                    result.firstViolationIndex,
                    chaos::invariantName(result.firstViolationKind),
                    result.firstViolationDetail.c_str(),
                    result.shrunkPlan.actions.size(),
                    result.shrinkIterations);
        if (!cli.reproOut.empty()) {
            if (!writeOutput(cli.reproOut, "repro",
                             [&](std::ostream &out) {
                                 out << result.reproText;
                             })) {
                return kExitIo;
            }
            std::printf("repro written to %s\n",
                        cli.reproOut.c_str());
        }
    }
    if (!cli.eventsOut.empty() &&
        !writeOutput(cli.eventsOut, "campaign ledger",
                     [&](std::ostream &out) { out << result.jsonl; })) {
        return kExitIo;
    }
    return result.violations == 0 ? kExitOk : kExitRuntime;
}

int
cmdReport(const Cli &cli)
{
    ReportArtifacts artifacts;
    artifacts.metricsText =
        readArtifactOrExit(cli.reportMetrics, "metrics dump");
    artifacts.traceJsonl =
        readArtifactOrExit(cli.reportTrace, "trace export");
    artifacts.monitorJsonl =
        readArtifactOrExit(cli.reportMonitor, "monitor stream");
    artifacts.sloJsonl =
        readArtifactOrExit(cli.reportSlo, "SLO stream");
    artifacts.accessJsonl =
        readArtifactOrExit(cli.reportAccess, "access log");
    artifacts.chaosJsonl =
        readArtifactOrExit(cli.reportChaos, "chaos ledger");

    ReportOptions ropts;
    ropts.html = cli.reportHtml;
    auto rendered = renderReport(artifacts, ropts);
    if (!rendered) {
        std::fprintf(stderr, "error: %s\n",
                     rendered.status().toString().c_str());
        return kExitUsage;
    }
    if (cli.outPath.empty()) {
        std::fputs(rendered.value().c_str(), stdout);
        return kExitOk;
    }
    if (!writeOutput(cli.outPath, "report", [&](std::ostream &out) {
            out << rendered.value();
        })) {
        return kExitIo;
    }
    std::printf("report written to %s\n", cli.outPath.c_str());
    return kExitOk;
}

/** Dispatch under a root `cli.<command>` span. */
int
runCommand(const Cli &cli)
{
    std::string root = "cli." + cli.command;
    TraceSpan span(root.c_str());
    if (!cli.nf.empty())
        span.field("nf", cli.nf);
    if (cli.command == "catalog")
        return cmdCatalog();
    if (cli.command == "solo")
        return cmdSolo(cli);
    if (cli.command == "train")
        return cmdTrain(cli);
    if (cli.command == "predict")
        return cmdPredict(cli);
    if (cli.command == "diagnose")
        return cmdDiagnose(cli);
    if (cli.command == "monitor" || cli.command == "autopilot" ||
        cli.command == "replay")
        return runSupervisedReplay(cli);
    if (cli.command == "chaos")
        return cmdChaos(cli);
    if (cli.command == "report")
        return cmdReport(cli);
    if (cli.command == "serve")
        return cmdServe(cli);
    std::fprintf(stderr, "error: unknown command '%s'\n",
                 cli.command.c_str());
    usage();
}

/** Write the trace / metrics files requested on the command line. */
int
writeObservability(const Cli &cli)
{
    int rc = kExitOk;
    if (!cli.traceOut.empty() &&
        !writeOutput(cli.traceOut, "trace", [](std::ostream &out) {
            tracer().exportJsonl(out);
        })) {
        rc = kExitIo;
    }
    if (!cli.metricsOut.empty() &&
        !writeOutput(cli.metricsOut, "metrics", [](std::ostream &out) {
            metrics().dump(out);
        })) {
        rc = kExitIo;
    }
    return rc;
}

} // namespace

int
main(int argc, char **argv)
{
    Cli cli = parse(argc, argv);
    if (cli.command != "catalog" && !cli.nf.empty())
        requireKnownNf(cli.nf);
    if (!cli.traceOut.empty())
        tracer().enable();
    // Top-level containment: anything that escapes a command is an
    // internal error, reported as a structured event (greppable by
    // the same monitors that watch warnEvent streams) with its own
    // exit code — never a raw terminate(). SimulatedCrash is the
    // chaos harness's kill switch and gets its own event name so
    // crash-resume scripts can tell a planned kill from a real bug.
    try {
        // Root span must close before export, hence the helper scope.
        int rc = runCommand(cli);
        int obs_rc = writeObservability(cli);
        return rc != kExitOk ? rc : obs_rc;
    } catch (const SimulatedCrash &e) {
        warnEvent("cli", "simulated-crash",
                  {{"command", cli.command}, {"what", e.what()}});
        writeObservability(cli);
        return kExitInternal;
    } catch (const std::exception &e) {
        warnEvent("cli", "uncaught-exception",
                  {{"command", cli.command},
                   {"type", typeid(e).name()},
                   {"what", e.what()}});
        return kExitInternal;
    } catch (...) {
        warnEvent("cli", "uncaught-exception",
                  {{"command", cli.command},
                   {"what", "non-standard exception"}});
        return kExitInternal;
    }
}
