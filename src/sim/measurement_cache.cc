#include "sim/measurement_cache.hh"

#include <cstring>

#include "common/telemetry.hh"

namespace tomur::sim {

namespace {

/**
 * Process-wide cache metrics (tomur_cache_*), shared by every
 * MeasurementCache instance; references resolved once. Key-size
 * buckets span the observed canonical-key range (one workload is a
 * few hundred bytes; deployments of 2-4 scale linearly).
 */
struct CacheMetrics
{
    Counter &hits = metrics().counter("tomur_cache_hits_total");
    Counter &misses = metrics().counter("tomur_cache_misses_total");
    Counter &stores = metrics().counter("tomur_cache_stores_total");
    Counter &storeDropped =
        metrics().counter("tomur_cache_store_dropped_total");
    Gauge &entries = metrics().gauge("tomur_cache_entries");
    Histogram &keyBytes = metrics().histogram(
        "tomur_cache_key_bytes",
        Histogram::exponentialBounds(256.0, 2.0, 6));
};

CacheMetrics &
cacheMetrics()
{
    static CacheMetrics cm;
    return cm;
}

} // namespace

namespace {

/** Append a double's bit pattern (byte-exact, no rounding). */
void
putDouble(std::string &out, double v)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((bits >> (8 * i)) & 0xff));
}

void
putInt(std::string &out, std::int64_t v)
{
    putDouble(out, static_cast<double>(v));
}

/** Length-prefixed so "ab"+"c" cannot alias "a"+"bc". */
void
putString(std::string &out, const std::string &s)
{
    putInt(out, static_cast<std::int64_t>(s.size()));
    out += s;
}

} // namespace

std::string
deploymentKey(const TestbedOptions &opts,
              const std::vector<framework::WorkloadProfile> &w)
{
    std::string key;
    key.reserve(64 + w.size() * 200);
    // Solver options that shape the noise-free fixed point. Noise
    // parameters are deliberately excluded: noise is applied above
    // the cache, per call.
    putInt(key, opts.maxIterations);
    putDouble(key, opts.damping);
    putInt(key, static_cast<std::int64_t>(w.size()));
    for (const auto &p : w) {
        putString(key, p.nfName);
        putInt(key, static_cast<std::int64_t>(p.pattern));
        putInt(key, p.cores);
        putDouble(key, p.instrPerPacket);
        putDouble(key, p.llcReadsPerPacket);
        putDouble(key, p.llcWritesPerPacket);
        putDouble(key, p.wssBytes);
        putDouble(key, p.reuse);
        putDouble(key, p.frameBytes);
        putDouble(key, p.dropFraction);
        putDouble(key, p.pacedRate);
        for (const auto &a : p.accel) {
            putInt(key, a.used ? 1 : 0);
            putDouble(key, a.requestsPerPacket);
            putDouble(key, a.bytesPerRequest);
            putDouble(key, a.matchesPerRequest);
            putInt(key, a.queues);
        }
        for (double v : p.traffic.toVector())
            putDouble(key, v);
    }
    return key;
}

MeasurementCache::MeasurementCache()
{
    cacheMetrics(); // resolve the metric references up front
}

bool
MeasurementCache::lookup(const std::string &key,
                         std::vector<Measurement> *out) const
{
    bool hit;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = map_.find(key);
        hit = it != map_.end();
        if (hit)
            *out = it->second;
    }
    if (hit) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        cacheMetrics().hits.inc();
    } else {
        misses_.fetch_add(1, std::memory_order_relaxed);
        cacheMetrics().misses.inc();
    }
    return hit;
}

void
MeasurementCache::store(const std::string &key,
                        std::vector<Measurement> value)
{
    cacheMetrics().keyBytes.observe(
        static_cast<double>(key.size()));
    bool inserted;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        inserted = map_.emplace(key, std::move(value)).second;
        // Gauge update stays under the lock so concurrent stores
        // cannot publish entry counts out of order.
        if (inserted) {
            cacheMetrics().entries.set(
                static_cast<double>(map_.size()));
        }
    }
    if (inserted)
        cacheMetrics().stores.inc();
    else
        cacheMetrics().storeDropped.inc();
}

MeasurementCache::Stats
MeasurementCache::stats() const
{
    Stats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mutex_);
    s.entries = map_.size();
    return s;
}

void
MeasurementCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    map_.clear();
    hits_.store(0, std::memory_order_relaxed);
    misses_.store(0, std::memory_order_relaxed);
}

} // namespace tomur::sim
