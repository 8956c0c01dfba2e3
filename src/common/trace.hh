/**
 * @file
 * Span-based tracing for the profiling -> training -> prediction
 * pipeline.
 *
 * A `TraceSpan` is an RAII scope: construction opens the span (it
 * becomes the calling thread's current span), destruction records it
 * into the tracer's ring of recent records with its parent linkage,
 * monotonic start/duration timestamps, and any fields attached along
 * the way. `tracePoint()` records a lightweight instant event (e.g.
 * one solver iteration with its residual) under the current span.
 * Everything is a no-op while the tracer is disabled — the hot paths
 * pay one relaxed atomic load.
 *
 * Retention: the tracer keeps its newest `capacity` records (a
 * BoundedRing). Each record past capacity evicts the oldest one and
 * counts it in droppedCount() and `tomur_trace_dropped_total`, so a
 * long-running process always holds its most recent records.
 *
 * Parent linkage crosses the thread pool: `parallelFor` captures the
 * caller's current span and installs it as the inherited parent for
 * every loop iteration, so a solve fanned out by `prewarm` still
 * nests under the `sim.prewarm` span that requested it.
 *
 * Two export modes:
 *  - exportJsonl(): JSON-lines in recording order, wall-clock
 *    timestamps included — the CLI's `--trace-out` format and
 *    the `/debug/trace` body.
 *  - canonical export (ExportOptions::canonical): the span tree is
 *    rebuilt, siblings are sorted by their serialized subtree, span
 *    ids are renumbered depth-first, and timestamps are omitted.
 *    Spans carry logical step indices (solver iteration, GBR round)
 *    rather than wall-clock-only data, so a noise-free fixed-seed
 *    run exports byte-identically at any TOMUR_THREADS — the
 *    golden-trace tests diff exactly this.
 */

#ifndef TOMUR_COMMON_TRACE_HH
#define TOMUR_COMMON_TRACE_HH

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "common/ring.hh"

namespace tomur {

class Counter;

/** Monotonic (steady_clock) time in nanoseconds: the one clock for
 *  span timestamps, profiler tokens and the serve core's timings.
 *  Out of line, so headers that call it stay free of <chrono>. */
std::uint64_t monotonicNs();

/** One key/value attribute (values are pre-formatted strings). */
struct TraceField
{
    std::string key;
    std::string value;
};

/** A finished span or an instant point event in the tracer's ring. */
struct TraceRecord
{
    bool isSpan = true;
    std::uint64_t id = 0;     ///< span id (0 for points)
    std::uint64_t parent = 0; ///< enclosing span id (0 = root)
    std::string name;
    std::int64_t step = -1; ///< logical step index (-1 unset)
    std::vector<TraceField> fields;
    std::uint64_t startNs = 0; ///< monotonic (spans only)
    std::uint64_t durNs = 0;   ///< duration (spans only)
};

/** Export settings. */
struct TraceExportOptions
{
    /** Sort siblings, renumber ids depth-first, omit timestamps —
     *  deterministic for deterministic workloads (golden tests). */
    bool canonical = false;
};

/** Bounded-ring span recorder; see file header. */
class Tracer
{
  public:
    /** Registers tomur_trace_dropped_total eagerly, so the drop
     *  counter shows up (at zero) in every metrics dump instead of
     *  appearing only after the first eviction. */
    Tracer();

    /** Start recording into a ring of `capacity` records (clears
     *  the ring and its eviction count). */
    void enable(std::size_t capacity = 1 << 16);
    void disable();
    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    void clear();

    /** Records kept (spans + points), at most the capacity. */
    std::size_t recordCount() const;
    /** Oldest records evicted to make room for newer ones. */
    std::size_t droppedCount() const;

    /** Copy of the retained records, oldest first (recording
     *  order). */
    std::vector<TraceRecord> snapshot() const;

    /** The calling thread's current (innermost open) span id. */
    std::uint64_t currentSpan() const;

    /**
     * Install the parent adopted by spans opened while the calling
     * thread has no open span of its own (pool tasks). Returns the
     * previous value so callers can restore it.
     */
    std::uint64_t setInheritedParent(std::uint64_t id);

    void exportJsonl(std::ostream &out,
                     const TraceExportOptions &opts = {}) const;
    std::string
    exportString(const TraceExportOptions &opts = {}) const;

  private:
    friend class TraceSpan;
    friend void tracePoint(const char *,
                           std::vector<TraceField>,
                           std::int64_t);

    std::uint64_t openSpan();          ///< 0 when disabled
    void closeSpan(TraceRecord rec);   ///< pops + records
    void record(TraceRecord rec);

    std::atomic<bool> enabled_{false};
    std::atomic<std::uint64_t> nextId_{1};
    mutable std::mutex mutex_;
    BoundedRing<TraceRecord> records_{1 << 16};
    Counter &droppedMetric_;
};

/** The process-wide tracer. */
Tracer &tracer();

/**
 * RAII span. Cheap when tracing is disabled (`active()` false: all
 * methods are no-ops and nothing is recorded).
 */
class TraceSpan
{
  public:
    explicit TraceSpan(const char *name);
    ~TraceSpan();

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

    bool active() const { return rec_.id != 0; }

    /** Attach an attribute (formatted deterministically). */
    void field(const char *key, const std::string &value);
    void field(const char *key, double value);
    void field(const char *key, std::uint64_t value);
    void field(const char *key, std::int64_t value);

    /** Set the span's logical step index. */
    void step(std::int64_t s);

  private:
    TraceRecord rec_;
};

/**
 * Record an instant event under the calling thread's current span.
 * @param step logical step index (iteration/round number)
 */
void tracePoint(const char *name,
                std::vector<TraceField> fields = {},
                std::int64_t step = -1);

/** Deterministic double formatting shared by trace fields. */
std::string traceFormat(double v);

} // namespace tomur

#endif // TOMUR_COMMON_TRACE_HH
