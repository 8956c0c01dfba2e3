#include "framework/profile.hh"

#include <algorithm>

#include "common/telemetry.hh"
#include "common/trace.hh"

namespace tomur::framework {

namespace {

/** Fully-functional packets each profile is measured over. */
constexpr std::size_t kSamplePackets = 384;
/** Cap on warm-up packets. Before measuring, one (payload-free,
 *  accelerator-non-functional) packet per distinct flow, up to this
 *  cap, warms per-flow state so table footprints reflect the
 *  profile's flow count. */
constexpr std::uint64_t kMaxWarmupPackets = 600000;

/** Process-wide profiling metrics (tomur_profile_*). */
struct ProfileMetrics
{
    Counter &workloads =
        metrics().counter("tomur_profile_workloads_total");
    Counter &packets =
        metrics().counter("tomur_profile_packets_total");
    Counter &warmupPackets =
        metrics().counter("tomur_profile_warmup_packets_total");
    Histogram &instrPerPacket = metrics().histogram(
        "tomur_profile_instr_per_packet",
        Histogram::exponentialBounds(64.0, 4.0, 8));
};

ProfileMetrics &
profileMetrics()
{
    static ProfileMetrics pm;
    return pm;
}

} // namespace

WorkloadProfiler::WorkloadProfiler(NetworkFunction &nf,
                                   const regex::RuleSet *ruleset,
                                   ProfileOptions opts)
    : nf_(nf), ruleset_(ruleset), opts_(opts)
{
}

WorkloadProfile
WorkloadProfiler::profile(
    const traffic::TrafficProfile &traffic_profile)
{
    TraceSpan span("profile.workload");
    span.field("nf", nf_.name());
    span.field("flows",
               static_cast<std::uint64_t>(traffic_profile.flowCount));
    span.field("packet_size", static_cast<std::uint64_t>(
                                  traffic_profile.packetSize));
    span.field("mtbr", traceFormat(traffic_profile.mtbr));

    // Incremental warm state is sound only when the NF still holds
    // exactly the flows this session warmed (flow identity is a pure
    // function of the flow index, so warm sets nest by flow count)
    // and the new profile wants at least as many.
    std::uint64_t want = std::min<std::uint64_t>(
        traffic_profile.flowCount, kMaxWarmupPackets);
    bool incremental = warmed_ &&
                       nf_.packetsProcessed() == expectedPackets_ &&
                       want >= warmedFlows_;
    if (!incremental) {
        nf_.reset();
        warmedFlows_ = 0;
    }
    span.field("warm", incremental ? "incremental" : "fresh");

    traffic::TrafficGen gen(traffic_profile, ruleset_, opts_.seed);

    // Phase 1: warm per-flow state so data-structure footprints match
    // the flow count (accelerator-non-functional, empty payloads —
    // flow state depends only on addressing).
    if (want > warmedFlows_) {
        CostContext warm_ctx;
        warm_ctx.setAccelFunctional(false);
        // Reuse one buffer, rewriting the addressing per flow: the
        // warm-up only needs flow identity, not payload bytes.
        net::Packet pkt =
            net::PacketBuilder::build(gen.flowTuple(0), {});
        for (std::uint64_t i = warmedFlows_; i < want; ++i) {
            // Restore the TTL before rewriting (NFs may have
            // decremented or re-addressed the shared buffer).
            pkt.bytes()[net::ethHeaderLen + 8] = 64;
            pkt.rewriteAddressing(gen.flowTuple(i));
            nf_.processPacket(pkt, warm_ctx);
        }
        profileMetrics().warmupPackets.inc(want - warmedFlows_);
        warmedFlows_ = want;
    }

    // Phase 2: measure over fully-functional sample packets.
    CostContext ctx;
    double frame_bytes = 0.0;
    std::size_t drops = 0;
    for (std::size_t i = 0; i < kSamplePackets; ++i) {
        net::Packet pkt = gen.next();
        frame_bytes += static_cast<double>(pkt.size());
        if (nf_.processPacket(pkt, ctx) == Verdict::Drop)
            ++drops;
    }

    const double n = static_cast<double>(kSamplePackets);
    WorkloadProfile w;
    w.nfName = nf_.name();
    w.pattern = nf_.pattern();
    w.cores = nf_.cores();
    w.traffic = traffic_profile;
    w.pacedRate = nf_.pacedRate();
    w.instrPerPacket = ctx.instructions() / n;
    w.llcReadsPerPacket = ctx.memReads() / n;
    w.llcWritesPerPacket = ctx.memWrites() / n;
    w.frameBytes = frame_bytes / n;
    w.dropFraction = static_cast<double>(drops) / n;

    // Working set: sum of region footprints; reuse: access-weighted.
    // Per-region attribution points ride on the sorted region map, so
    // the emitted order is deterministic.
    double wss = 0.0, reuse_weighted = 0.0, accesses = 0.0;
    for (const auto &[name, use] : ctx.regions()) {
        wss += use.bytes;
        reuse_weighted += use.reuse * use.accesses;
        accesses += use.accesses;
        if (span.active()) {
            tracePoint("profile.region",
                       {{"region", name},
                        {"bytes", traceFormat(use.bytes)},
                        {"accesses", traceFormat(use.accesses)},
                        {"reuse", traceFormat(use.reuse)}});
        }
    }
    w.wssBytes = wss;
    w.reuse = accesses > 0.0 ? reuse_weighted / accesses : 1.0;

    // Accelerator demand.
    double req_count[hw::numAccelKinds] = {};
    double req_bytes[hw::numAccelKinds] = {};
    double req_matches[hw::numAccelKinds] = {};
    for (const auto &r : ctx.offloads()) {
        int k = static_cast<int>(r.kind);
        req_count[k] += 1.0;
        req_bytes[k] += r.bytes;
        req_matches[k] += r.matches;
    }
    for (int k = 0; k < hw::numAccelKinds; ++k) {
        AccelUse &use = w.accel[k];
        if (req_count[k] <= 0.0)
            continue;
        use.used = true;
        use.requestsPerPacket = req_count[k] / n;
        use.bytesPerRequest = req_bytes[k] / req_count[k];
        use.matchesPerRequest = req_matches[k] / req_count[k];
        use.queues = nf_.queueCount(static_cast<hw::AccelKind>(k));
        if (span.active()) {
            tracePoint(
                "profile.accel",
                {{"kind",
                  hw::accelName(static_cast<hw::AccelKind>(k))},
                 {"req_per_pkt", traceFormat(use.requestsPerPacket)},
                 {"bytes_per_req", traceFormat(use.bytesPerRequest)}},
                k);
        }
    }

    profileMetrics().workloads.inc();
    profileMetrics().packets.inc(kSamplePackets);
    profileMetrics().instrPerPacket.observe(w.instrPerPacket);
    span.field("instr_per_pkt", traceFormat(w.instrPerPacket));
    span.field("wss_bytes", traceFormat(w.wssBytes));
    span.field("drop_fraction", traceFormat(w.dropFraction));

    expectedPackets_ = nf_.packetsProcessed();
    warmed_ = true;
    return w;
}

WorkloadProfile
profileWorkload(NetworkFunction &nf,
                const traffic::TrafficProfile &traffic_profile,
                const regex::RuleSet *ruleset,
                const ProfileOptions &opts)
{
    WorkloadProfiler session(nf, ruleset, opts);
    return session.profile(traffic_profile);
}

} // namespace tomur::framework
