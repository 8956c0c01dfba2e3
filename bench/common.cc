#include "common.hh"

#include "common/strutil.hh"

namespace tomur::bench {

BenchEnv::BenchEnv(hw::NicConfig config, std::uint64_t seed)
    : core::Lab(std::move(config)), rng(seed)
{
}

framework::NetworkFunction &
BenchEnv::nf(const std::string &name)
{
    auto it = nfs_.find(name);
    if (it == nfs_.end()) {
        it = nfs_.emplace(name, nfs::makeByName(name, dev)).first;
    }
    return *it->second;
}

const framework::WorkloadProfile &
BenchEnv::workload(const std::string &name,
                   const traffic::TrafficProfile &p)
{
    return trainer->workloadOf(nf(name), p);
}

double
BenchEnv::solo(const std::string &name,
               const traffic::TrafficProfile &p)
{
    auto key = std::make_pair(name, p.toVector());
    auto it = soloCache_.find(key);
    if (it != soloCache_.end())
        return it->second;
    double t = bed.runSolo(workload(name, p)).truthThroughput;
    soloCache_[key] = t;
    return t;
}

traffic::TrafficProfile
BenchEnv::randomProfile()
{
    traffic::TrafficProfile p;
    for (int a = 0; a < traffic::numAttributes; ++a) {
        auto attr = static_cast<traffic::Attribute>(a);
        auto r = traffic::defaultRange(attr);
        p = p.withAttribute(attr, rng.uniform(r.min, r.max));
    }
    return p;
}

void
AccuracyTracker::add(const std::string &approach, double truth,
                     double predicted)
{
    auto &s = series_[approach];
    s.truth.push_back(truth);
    s.pred.push_back(predicted);
}

double
AccuracyTracker::mape(const std::string &approach) const
{
    auto it = series_.find(approach);
    if (it == series_.end())
        return 0.0;
    return ml::mape(it->second.truth, it->second.pred);
}

double
AccuracyTracker::accWithin(const std::string &approach,
                           double pct) const
{
    auto it = series_.find(approach);
    if (it == series_.end())
        return 0.0;
    return ml::accWithin(it->second.truth, it->second.pred, pct);
}

std::vector<double>
AccuracyTracker::errors(const std::string &approach) const
{
    auto it = series_.find(approach);
    if (it == series_.end())
        return {};
    return ml::absPctErrors(it->second.truth, it->second.pred);
}

std::size_t
AccuracyTracker::count(const std::string &approach) const
{
    auto it = series_.find(approach);
    return it == series_.end() ? 0 : it->second.truth.size();
}

void
printHeader(const char *experiment, const char *paper_claim)
{
    std::printf("==============================================================\n");
    std::printf("%s\n", experiment);
    std::printf("Paper: %s\n", paper_claim);
    std::printf("==============================================================\n");
}

std::string
boxRow(const std::vector<double> &xs, int decimals)
{
    auto b = BoxStats::from(xs);
    return strf("p5=%.*f p25=%.*f p50=%.*f p75=%.*f p95=%.*f",
                decimals, b.p5, decimals, b.p25, decimals, b.p50,
                decimals, b.p75, decimals, b.p95);
}

} // namespace tomur::bench
