#include "tomur/memory_model.hh"

#include <cmath>
#include <memory>

#include "common/logging.hh"
#include "common/strutil.hh"
#include "common/threadpool.hh"

namespace tomur::core {

bool
operator==(const MemoryModelOptions &a, const MemoryModelOptions &b)
{
    return a.seeds == b.seeds && a.gbr == b.gbr &&
           a.trafficAware == b.trafficAware;
}

MemoryModel::MemoryModel(MemoryModelOptions opts) : opts_(opts)
{
    if (opts_.seeds < 1)
        fatal("MemoryModel: need at least one seed");
}

std::vector<std::string>
MemoryModel::featureNames() const
{
    if (opts_.trafficAware)
        return memoryFeatureNames();
    return hw::PerfCounters::featureNames();
}

std::vector<double>
MemoryModel::featuresFor(
    const std::vector<ContentionLevel> &competitors,
    const traffic::TrafficProfile &profile) const
{
    if (opts_.trafficAware)
        return memoryFeatures(competitors, profile);
    return aggregateCounters(competitors).toVector();
}

Status
MemoryModel::fit(const ml::Dataset &data)
{
    if (data.size() == 0) {
        return Status::invalidArgument(
            "MemoryModel::fit: empty training set (every profiling "
            "sample was rejected or lost)");
    }
    for (std::size_t r = 0; r < data.size(); ++r) {
        if (!std::isfinite(data.labels()[r])) {
            return Status::invalidArgument(strf(
                "MemoryModel::fit: non-finite label in row %zu", r));
        }
        for (double v : data.row(r)) {
            if (!std::isfinite(v)) {
                return Status::invalidArgument(strf(
                    "MemoryModel::fit: non-finite feature in row %zu",
                    r));
            }
        }
    }
    // Bin the shared feature matrix once for the whole ensemble:
    // the members differ only in their subsample seed.
    std::shared_ptr<const ml::BinnedMatrix> binned;
    if (opts_.seeds > 1) {
        binned = std::make_shared<const ml::BinnedMatrix>(
            ml::BinnedMatrix::build(data));
    }
    // Ensemble members are independent given their seeds: fit them
    // across the pool, collected in seed order. A member fitted by
    // an earlier call warm-starts (same params -> same object; the
    // regressor's fingerprints decide what survives), which never
    // changes its result — only what work the refit skips.
    models_ = parallelMap(
        static_cast<std::size_t>(opts_.seeds), [&](std::size_t s) {
            ml::GbrParams p = opts_.gbr;
            p.seed = opts_.gbr.seed + static_cast<std::uint64_t>(s);
            ml::GradientBoostingRegressor gbr =
                s < models_.size() && models_[s].params() == p
                    ? std::move(models_[s])
                    : ml::GradientBoostingRegressor(p);
            gbr.fit(data, binned);
            return gbr;
        });
    fitted_ = true;
    return Status::ok();
}

double
MemoryModel::predict(const std::vector<ContentionLevel> &competitors,
                     const traffic::TrafficProfile &profile) const
{
    if (!fitted_)
        panic("MemoryModel::predict before fit");
    return ml::meanPredict(models_, featuresFor(competitors, profile));
}

} // namespace tomur::core
