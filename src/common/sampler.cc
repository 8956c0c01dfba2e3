#include "common/sampler.hh"

#include <ostream>

#include "common/strutil.hh"

namespace tomur {

namespace {

/** Seed of the gap stream: every profiler with the same period
 *  samples the same token indices. */
constexpr std::uint64_t kGapSeed = 1;

} // namespace

SamplingProfiler::SamplingProfiler(SamplerOptions opts)
    : opts_(opts), rng_(kGapSeed)
{
    if (opts_.meanPeriod == 0)
        opts_.meanPeriod = 1;
    countdown_ = nextGap();
}

std::uint64_t
SamplingProfiler::nextGap()
{
    // Uniform in [1, 2*meanPeriod - 1]: mean = meanPeriod, and a
    // meanPeriod of 1 degenerates to sampling every token.
    return 1 + rng_.uniformInt(2 * opts_.meanPeriod - 1);
}

int
SamplingProfiler::registerSite(const std::string &name)
{
    for (std::size_t i = 0; i < siteNames_.size(); ++i) {
        if (siteNames_[i] == name)
            return static_cast<int>(i);
    }
    siteNames_.push_back(name);
    siteTokens_.push_back(0);
    siteSampled_.push_back(0);
    siteSampledNs_.push_back(0);
    return static_cast<int>(siteNames_.size()) - 1;
}

void
SamplingProfiler::endToken(int site, std::uint64_t durNs)
{
    ++sampledTokens_;
    if (site >= 0 &&
        static_cast<std::size_t>(site) < siteSampled_.size()) {
        ++siteSampled_[static_cast<std::size_t>(site)];
        siteSampledNs_[static_cast<std::size_t>(site)] += durNs;
    }
}

std::vector<SamplerSiteStats>
SamplingProfiler::siteStats() const
{
    std::vector<SamplerSiteStats> out;
    out.reserve(siteNames_.size());
    for (std::size_t i = 0; i < siteNames_.size(); ++i) {
        SamplerSiteStats s;
        s.name = siteNames_[i];
        s.tokens = siteTokens_[i];
        s.sampled = siteSampled_[i];
        s.sampledNs = siteSampledNs_[i];
        out.push_back(std::move(s));
    }
    return out;
}

void
SamplingProfiler::exportText(std::ostream &out) const
{
    out << strf("sampling profiler: %llu tokens, %llu sampled "
                "(mean period %llu)\n",
                (unsigned long long)tokens_,
                (unsigned long long)sampledTokens_,
                (unsigned long long)opts_.meanPeriod);
    for (const auto &s : siteStats()) {
        double mean_us =
            s.sampled ? static_cast<double>(s.sampledNs) /
                            static_cast<double>(s.sampled) / 1e3
                      : 0.0;
        out << strf("  %-24s tokens=%-10llu sampled=%-8llu "
                    "mean=%.2fus\n",
                    s.name.c_str(), (unsigned long long)s.tokens,
                    (unsigned long long)s.sampled, mean_us);
    }
}

} // namespace tomur
