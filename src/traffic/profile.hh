/**
 * @file
 * Traffic profiles: the three attributes the paper models (§5.1) —
 * flow count, packet size, and match-to-byte ratio (MTBR) — written
 * as a vector (flows, packet_size, mtbr), e.g. (16000, 1500, 600).
 */

#ifndef TOMUR_TRAFFIC_PROFILE_HH
#define TOMUR_TRAFFIC_PROFILE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace tomur::traffic {

/** Index of each attribute in the traffic feature vector. */
enum class Attribute : int
{
    FlowCount = 0,
    PacketSize = 1,
    Mtbr = 2,
};

/** Number of traffic attributes. */
constexpr int numAttributes = 3;

/** Attribute name for reports. */
const char *attributeName(Attribute a);

/** A traffic profile. */
struct TrafficProfile
{
    std::uint64_t flowCount = 16000;
    std::uint64_t packetSize = 1500; ///< total frame bytes
    double mtbr = 600.0;             ///< matches per MB of payload

    /** The paper's default profile (16000, 1500, 600). */
    static TrafficProfile defaults();

    /** As a model feature vector (flows, size, mtbr). */
    std::vector<double> toVector() const;

    /** Read one attribute by index. */
    double attribute(Attribute a) const;

    /** Return a copy with one attribute replaced. */
    TrafficProfile withAttribute(Attribute a, double value) const;

    /** "(16000, 1500, 600)" rendering. */
    std::string toString() const;

    bool operator==(const TrafficProfile &o) const = default;
};

/** Bounds on what a text input (scenario script, CLI flag) may set
 *  an attribute to: generous, meant to refuse garbage that lexes as
 *  a number, not to police realistic traffic. */
constexpr double kMaxFlows = 1e9;
constexpr double kMaxPacketSize = 1e6;
constexpr double kMaxMtbr = 1e12;

/** Valid ranges for each attribute, used by adaptive profiling. */
struct AttributeRange
{
    double min = 0.0;
    double max = 0.0;
};

/** Default exploration ranges per attribute (paper §7: up to 500 K
 *  flows, 64-1500 B packets, 0-1100 matches/MB). */
AttributeRange defaultRange(Attribute a);

} // namespace tomur::traffic

#endif // TOMUR_TRAFFIC_PROFILE_HH
