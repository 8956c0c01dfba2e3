/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * A small xoshiro256** generator seeded via splitmix64. Every stochastic
 * component in the library takes an explicit Rng (or seed) so that
 * experiments are reproducible; nothing reads global entropy.
 */

#ifndef TOMUR_COMMON_RNG_HH
#define TOMUR_COMMON_RNG_HH

#include <bit>
#include <cstdint>
#include <vector>

namespace tomur {

/** splitmix64 step; used for seeding and cheap hashing. */
std::uint64_t splitmix64(std::uint64_t &state);

/**
 * Complete serializable Rng state (xoshiro words + Box-Muller spare).
 * Capturing the spare matters: dropping it would desynchronize the
 * normal() stream across a checkpoint/restore boundary.
 */
struct RngState
{
    std::uint64_t s[4] = {0, 0, 0, 0};
    bool hasSpare = false;
    double spare = 0.0;
};

/**
 * xoshiro256** pseudo-random generator.
 *
 * Satisfies UniformRandomBitGenerator so it can also drive <random>
 * distributions, though the built-in helpers below are preferred for
 * cross-platform determinism.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a 64-bit seed (expanded via splitmix64). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type(0); }

    /** Next raw 64-bit value. */
    result_type
    operator()()
    {
        const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = std::rotl(s_[3], 45);
        return result;
    }

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n), n > 0. */
    std::uint64_t
    uniformInt(std::uint64_t n)
    {
        if (n == 0) [[unlikely]]
            badRange("Rng::uniformInt(0)");
        // Lemire multiply-shift with the rejection loop kept for
        // exactness. A power-of-two n never rejects ((-n) % n == 0),
        // so it skips the divide and draws exactly one word.
        const std::uint64_t threshold = (n & (n - 1)) ? (-n) % n : 0;
        for (;;) {
            __uint128_t m = static_cast<__uint128_t>((*this)()) * n;
            if (static_cast<std::uint64_t>(m) >= threshold)
                return static_cast<std::uint64_t>(m >> 64);
        }
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t
    uniformInt(std::int64_t lo, std::int64_t hi)
    {
        if (hi < lo) [[unlikely]]
            badRange("Rng::uniformInt: hi < lo");
        return lo + static_cast<std::int64_t>(
            uniformInt(static_cast<std::uint64_t>(hi - lo) + 1));
    }

    /** Standard normal via Box-Muller. */
    double normal();

    /** Normal with given mean and standard deviation. */
    double normal(double mean, double stddev);

    /**
     * Multiplicative log-normal noise factor with unit median.
     * @param sigma standard deviation of the underlying normal.
     */
    double lognormalFactor(double sigma);

    /** Bernoulli trial with probability p. */
    bool chance(double p);

    /** Fisher-Yates shuffle. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i) {
            std::size_t j = uniformInt(i);
            std::swap(v[i - 1], v[j]);
        }
    }

    /** Pick a uniformly random element (container must be non-empty). */
    template <typename T>
    const T &
    pick(const std::vector<T> &v)
    {
        return v[uniformInt(v.size())];
    }

    /** Derive an independent child generator (for per-task streams). */
    Rng split();

    /** Snapshot the full generator state for checkpointing. */
    RngState state() const;

    /** Restore a previously captured state; the stream continues
     *  exactly where the snapshot left off. */
    void setState(const RngState &st);

  private:
    /** panic() with msg; out of line to keep the draws small. */
    [[noreturn]] static void badRange(const char *msg);

    std::uint64_t s_[4];
    bool hasSpare_ = false;
    double spare_ = 0.0;
};

} // namespace tomur

#endif // TOMUR_COMMON_RNG_HH
