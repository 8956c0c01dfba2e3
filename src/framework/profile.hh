/**
 * @file
 * Workload profiling: run sample traffic through an NF and distil its
 * per-packet resource demand into a WorkloadProfile the testbed can
 * schedule. This corresponds to deploying the NF and watching it
 * process real packets — no source-level knowledge is extracted
 * beyond what execution reveals.
 */

#ifndef TOMUR_FRAMEWORK_PROFILE_HH
#define TOMUR_FRAMEWORK_PROFILE_HH

#include <cstdint>
#include <string>

#include "framework/nf.hh"
#include "regex/matcher.hh"
#include "traffic/generator.hh"
#include "traffic/profile.hh"

namespace tomur::framework {

/** Per-accelerator demand of a workload. */
struct AccelUse
{
    bool used = false;
    double requestsPerPacket = 0.0;
    double bytesPerRequest = 0.0;
    double matchesPerRequest = 0.0;
    int queues = 1;
};

/**
 * The resource demand of one NF under one traffic profile.
 */
struct WorkloadProfile
{
    std::string nfName;
    ExecutionPattern pattern = ExecutionPattern::RunToCompletion;
    int cores = 2;

    double instrPerPacket = 0.0;
    double llcReadsPerPacket = 0.0;
    double llcWritesPerPacket = 0.0;
    double wssBytes = 0.0;
    double reuse = 1.0;         ///< access-weighted temporal reuse
    double frameBytes = 0.0;    ///< mean wire size per packet
    double dropFraction = 0.0;  ///< share of packets dropped
    double pacedRate = 0.0;     ///< open-loop pacing (0 = closed loop)

    AccelUse accel[hw::numAccelKinds];

    traffic::TrafficProfile traffic;

    /** Does the workload touch the given accelerator? */
    bool
    usesAccel(hw::AccelKind kind) const
    {
        return accel[static_cast<int>(kind)].used;
    }

    const AccelUse &
    accelUse(hw::AccelKind kind) const
    {
        return accel[static_cast<int>(kind)];
    }
};

/** Profiling options. */
struct ProfileOptions
{
    /** Seed of the synthesized traffic. */
    std::uint64_t seed = 12345;
};

/**
 * Incremental profiling session over one NF.
 *
 * Flow identities are a pure function of the flow index
 * (TrafficGen::flowTuple), so the warm set of a profile with fewer
 * flows is a prefix of the warm set of any larger profile. A session
 * exploits that: profiling a sequence of traffic profiles in
 * ascending flow-count order warms each flow exactly once instead of
 * re-warming from scratch per profile — the dominant cost of a
 * training sweep. Profiling a smaller flow count than the NF
 * currently holds (or detecting that the NF was driven or reset
 * behind the session's back, via NetworkFunction::packetsProcessed)
 * falls back to a full reset + re-warm, which is exactly the
 * one-shot profileWorkload behaviour.
 */
class WorkloadProfiler
{
  public:
    /**
     * @param ruleset ruleset for MTBR payload synthesis (may be null
     *        for mtbr == 0 profiles)
     */
    WorkloadProfiler(NetworkFunction &nf,
                     const regex::RuleSet *ruleset,
                     ProfileOptions opts = {});

    /** Profile one traffic profile, reusing warm flow state from
     *  earlier calls of this session when sound. */
    WorkloadProfile
    profile(const traffic::TrafficProfile &traffic_profile);

    /** The NF this session profiles (identity check for caches). */
    const NetworkFunction *target() const { return &nf_; }

  private:
    NetworkFunction &nf_;
    const regex::RuleSet *ruleset_;
    ProfileOptions opts_;
    std::uint64_t warmedFlows_ = 0;   ///< flows [0, n) in NF tables
    std::uint64_t expectedPackets_ = 0; ///< tamper detection
    bool warmed_ = false;
};

/**
 * Profile one NF under one traffic profile (one-shot).
 *
 * The NF is reset, warmed across the profile's flows, then measured
 * over a fixed sample of fully-functional packets (profile.cc).
 * Equivalent to a fresh WorkloadProfiler's first profile() call.
 *
 * @param ruleset ruleset for MTBR payload synthesis (may be null for
 *        mtbr == 0 profiles)
 */
WorkloadProfile
profileWorkload(NetworkFunction &nf,
                const traffic::TrafficProfile &traffic_profile,
                const regex::RuleSet *ruleset,
                const ProfileOptions &opts = {});

} // namespace tomur::framework

#endif // TOMUR_FRAMEWORK_PROFILE_HH
