/**
 * @file
 * Seeded sampling profiler for hot loops: a bounded-memory profiler
 * that times a pseudo-random 1-in-meanPeriod subset of its tokens
 * instead of every one, so instrumenting a replay loop that ingests
 * hundreds of thousands of samples costs a counter decrement per
 * token — not a clock read — on the unsampled path.
 *
 * Design:
 *  - every token bumps per-site counts; only *sampled* tokens read
 *    the steady clock, and their durations are summed per site, so
 *    memory is one counter triple per site no matter how many
 *    tokens flow through;
 *  - which token indices get sampled is a pure function of a fixed
 *    seed (a countdown of RNG-drawn gaps with mean `meanPeriod`), so
 *    two profilers with the same period sample the same indices —
 *    the durations are wall-clock, the *selection* is
 *    deterministic.
 *
 * Not thread-safe: one owner per loop, like PredictionMonitor. The
 * profiler is pure observability — it must never feed a decision
 * path, or the repo's determinism contract breaks.
 */

#ifndef TOMUR_COMMON_SAMPLER_HH
#define TOMUR_COMMON_SAMPLER_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/trace.hh"

namespace tomur {

/** Sampling-profiler tuning. */
struct SamplerOptions
{
    /** Expected tokens between two samples (1 = sample all). Gaps
     *  are drawn uniformly from [1, 2*meanPeriod - 1]. */
    std::uint64_t meanPeriod = 64;
};

/** Per-site aggregate. */
struct SamplerSiteStats
{
    std::string name;
    std::uint64_t tokens = 0;    ///< all tokens at this site
    std::uint64_t sampled = 0;   ///< tokens that were timed
    std::uint64_t sampledNs = 0; ///< summed sampled durations
};

class SamplingProfiler
{
  public:
    explicit SamplingProfiler(SamplerOptions opts = {});

    /** Register (or look up) a site by name; ids are dense and
     *  assigned in registration order. */
    int registerSite(const std::string &name);

    /**
     * RAII token: decides at construction whether this token is
     * sampled (and only then reads the clock). A null profiler makes
     * the scope a no-op, so call sites need no branching.
     */
    class Scope
    {
      public:
        Scope(SamplingProfiler *profiler, int site)
            : profiler_(profiler), site_(site)
        {
            if (profiler_ &&
                (sampled_ = profiler_->beginToken(site_)))
                startNs_ = monotonicNs();
        }
        ~Scope()
        {
            // sampled_ is only ever set with a live profiler, so
            // one flag test covers both conditions.
            if (sampled_)
                profiler_->endToken(site_, monotonicNs() - startNs_);
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SamplingProfiler *profiler_;
        int site_;
        bool sampled_ = false;
        std::uint64_t startNs_ = 0;
    };

    /** Count one token at `site`; true when it must be timed (the
     *  caller then reports the duration via endToken). `site` MUST
     *  come from registerSite() — the hot path elides the bounds
     *  check. Inline so the unsampled path — two counter bumps, a
     *  decrement and a branch — costs no function call in the
     *  loops it instruments. */
    bool beginToken(int site)
    {
        ++tokens_;
        ++siteTokens_[static_cast<std::size_t>(site)];
        if (--countdown_ > 0)
            return false;
        countdown_ = nextGap();
        return true;
    }
    /** Record a sampled token's measured duration. */
    void endToken(int site, std::uint64_t durNs);

    std::uint64_t tokens() const { return tokens_; }
    std::uint64_t sampledTokens() const { return sampledTokens_; }
    /** Per-site aggregates, in site-id order. */
    std::vector<SamplerSiteStats> siteStats() const;

    /** Human-readable dump (a totals line, then one line per site). */
    void exportText(std::ostream &out) const;

  private:
    std::uint64_t nextGap();

    SamplerOptions opts_;
    Rng rng_;
    std::uint64_t countdown_;
    std::uint64_t tokens_ = 0;
    std::uint64_t sampledTokens_ = 0;

    std::vector<std::string> siteNames_;
    std::vector<std::uint64_t> siteTokens_;
    std::vector<std::uint64_t> siteSampled_;
    std::vector<std::uint64_t> siteSampledNs_;
};

} // namespace tomur

#endif // TOMUR_COMMON_SAMPLER_HH
