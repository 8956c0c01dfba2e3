/**
 * @file
 * Adaptive profiling (Algorithm 1, §5.2): prune traffic attributes
 * the NF is insensitive to, then recursively bisect each kept
 * attribute's range, spending the sampling quota where solo
 * throughput changes fastest.
 */

#ifndef TOMUR_TOMUR_ADAPTIVE_HH
#define TOMUR_TOMUR_ADAPTIVE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "traffic/profile.hh"

namespace tomur::core {

/** The hyper-parameters of Algorithm 1 that the evaluation varies;
 *  ε0, m and the recursion cap are fixed in adaptive.cc. */
struct AdaptiveOptions
{
    std::size_t quota = 160;     ///< Q: total profiling budget
    double eps1 = 0.03;          ///< relative change to keep splitting
};

/**
 * Callbacks the algorithm drives. Both count against the quota.
 */
struct AdaptiveCallbacks
{
    /** Solo throughput of the NF at a traffic profile. */
    std::function<double(const traffic::TrafficProfile &)> solo;
    /**
     * Collect one training sample at the given traffic profile with
     * a random contention level.
     */
    std::function<void(const traffic::TrafficProfile &)> collect;
};

/** Outcome summary. */
struct AdaptiveResult
{
    /** Attributes that survived pruning (model dimensions). */
    std::vector<traffic::Attribute> keptAttributes;
    /** Total profiling operations performed (quota consumed). */
    std::size_t samplesUsed = 0;
    /** Traffic profiles where contended samples were collected. */
    std::vector<traffic::TrafficProfile> sampledProfiles;
};

/**
 * Run adaptive profiling around a default traffic profile.
 *
 * @param defaults the default traffic profile (16000, 1500, 600)
 * @param candidate_attrs attributes to consider (defaults to all 3)
 */
AdaptiveResult
adaptiveProfile(const AdaptiveCallbacks &callbacks,
                const traffic::TrafficProfile &defaults,
                const AdaptiveOptions &opts = {},
                std::vector<traffic::Attribute> candidate_attrs = {
                    traffic::Attribute::FlowCount,
                    traffic::Attribute::PacketSize,
                    traffic::Attribute::Mtbr});

} // namespace tomur::core

#endif // TOMUR_TOMUR_ADAPTIVE_HH
