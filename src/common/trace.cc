#include "common/trace.hh"

#include <algorithm>
#include <chrono>
#include <map>
#include <ostream>
#include <sstream>

#include "common/strutil.hh"
#include "common/telemetry.hh"

namespace tomur {

namespace {

/** Per-thread open-span stack + cross-pool inherited parent. */
thread_local std::vector<std::uint64_t> t_span_stack;
thread_local std::uint64_t t_inherited_parent = 0;

} // namespace

std::uint64_t
monotonicNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

std::string
traceFormat(double v)
{
    return strf("%.9g", v);
}

// ---------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------

Tracer::Tracer()
    : droppedMetric_(metrics().counter("tomur_trace_dropped_total"))
{
}

void
Tracer::enable(std::size_t capacity)
{
    std::lock_guard<std::mutex> lock(mutex_);
    records_ = BoundedRing<TraceRecord>(capacity);
    enabled_.store(true, std::memory_order_relaxed);
}

void
Tracer::disable()
{
    enabled_.store(false, std::memory_order_relaxed);
}

void
Tracer::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    records_.clear();
    nextId_.store(1, std::memory_order_relaxed);
}

std::size_t
Tracer::recordCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return records_.size();
}

std::size_t
Tracer::droppedCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return records_.evicted();
}

std::vector<TraceRecord>
Tracer::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return records_.snapshot();
}

std::uint64_t
Tracer::currentSpan() const
{
    return t_span_stack.empty() ? t_inherited_parent
                                : t_span_stack.back();
}

std::uint64_t
Tracer::setInheritedParent(std::uint64_t id)
{
    std::uint64_t prev = t_inherited_parent;
    t_inherited_parent = id;
    return prev;
}

std::uint64_t
Tracer::openSpan()
{
    if (!enabled())
        return 0;
    std::uint64_t id =
        nextId_.fetch_add(1, std::memory_order_relaxed);
    t_span_stack.push_back(id);
    return id;
}

void
Tracer::closeSpan(TraceRecord rec)
{
    // The stack top must be this span (RAII scopes nest strictly),
    // but tolerate an enable()/disable() racing a live span.
    if (!t_span_stack.empty() && t_span_stack.back() == rec.id)
        t_span_stack.pop_back();
    record(std::move(rec));
}

void
Tracer::record(TraceRecord rec)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (records_.push(std::move(rec)))
        droppedMetric_.inc();
}

Tracer &
tracer()
{
    // Leaked for the same reason as metrics(): pool workers may
    // consult the tracer during process teardown, after atexit
    // handlers would have destroyed a static instance.
    static Tracer *t = new Tracer;
    return *t;
}

// ---------------------------------------------------------------
// TraceSpan
// ---------------------------------------------------------------

TraceSpan::TraceSpan(const char *name)
{
    Tracer &t = tracer();
    if (!t.enabled())
        return;
    rec_.parent = t.currentSpan();
    rec_.id = t.openSpan();
    if (rec_.id == 0)
        return;
    rec_.name = name;
    rec_.startNs = monotonicNs();
}

TraceSpan::~TraceSpan()
{
    if (!active())
        return;
    rec_.durNs = monotonicNs() - rec_.startNs;
    tracer().closeSpan(std::move(rec_));
}

void
TraceSpan::field(const char *key, const std::string &value)
{
    if (active())
        rec_.fields.push_back({key, value});
}

void
TraceSpan::field(const char *key, double value)
{
    if (active())
        rec_.fields.push_back({key, traceFormat(value)});
}

void
TraceSpan::field(const char *key, std::uint64_t value)
{
    if (active())
        rec_.fields.push_back({key, strf("%llu",
                                         (unsigned long long)value)});
}

void
TraceSpan::field(const char *key, std::int64_t value)
{
    if (active())
        rec_.fields.push_back({key, strf("%lld", (long long)value)});
}

void
TraceSpan::step(std::int64_t s)
{
    if (active())
        rec_.step = s;
}

void
tracePoint(const char *name, std::vector<TraceField> fields,
           std::int64_t step)
{
    Tracer &t = tracer();
    if (!t.enabled())
        return;
    TraceRecord rec;
    rec.isSpan = false;
    rec.parent = t.currentSpan();
    rec.name = name;
    rec.step = step;
    rec.fields = std::move(fields);
    t.record(std::move(rec));
}

// ---------------------------------------------------------------
// Export
// ---------------------------------------------------------------

namespace {

/** One JSONL line for a record (timestamps optional). */
std::string
recordLine(const TraceRecord &r, std::uint64_t id,
           std::uint64_t parent, bool timestamps)
{
    std::string line = "{\"type\":\"";
    line += r.isSpan ? "span" : "event";
    line += "\"";
    if (r.isSpan)
        line += strf(",\"id\":%llu", (unsigned long long)id);
    line += strf(",\"parent\":%llu", (unsigned long long)parent);
    line += ",\"name\":\"" + jsonEscape(r.name) + "\"";
    if (r.step >= 0)
        line += strf(",\"step\":%lld", (long long)r.step);
    for (const auto &f : r.fields) {
        line += ",\"" + jsonEscape(f.key) + "\":\"" +
                jsonEscape(f.value) + "\"";
    }
    if (timestamps && r.isSpan) {
        line += strf(",\"start_ns\":%llu,\"dur_ns\":%llu",
                     (unsigned long long)r.startNs,
                     (unsigned long long)r.durNs);
    }
    line += "}";
    return line;
}

struct TreeNode
{
    const TraceRecord *rec = nullptr;
    std::vector<std::size_t> children; ///< indices into nodes
    std::string key;                   ///< canonical subtree key
};

} // namespace

void
Tracer::exportJsonl(std::ostream &out,
                    const TraceExportOptions &opts) const
{
    auto records = snapshot();
    if (!opts.canonical) {
        for (const auto &r : records)
            out << recordLine(r, r.id, r.parent, true) << "\n";
        return;
    }

    // Canonical export: rebuild the tree, sort siblings by their
    // serialized subtree, renumber depth-first, omit timestamps.
    // Points and spans sharing a parent keep their recorded relative
    // order among points; spans are grouped after points and sorted
    // (points from one span are recorded by one thread, so their
    // order is deterministic; span completion order is not).
    std::vector<TreeNode> nodes(records.size());
    std::map<std::uint64_t, std::size_t> byId;
    for (std::size_t i = 0; i < records.size(); ++i) {
        nodes[i].rec = &records[i];
        if (records[i].isSpan)
            byId[records[i].id] = i;
    }
    std::vector<std::size_t> roots;
    for (std::size_t i = 0; i < records.size(); ++i) {
        auto it = byId.find(records[i].parent);
        if (records[i].parent != 0 && it != byId.end() &&
            it->second != i) {
            nodes[it->second].children.push_back(i);
        } else {
            roots.push_back(i);
        }
    }

    // Bottom-up canonical keys: own line (no ids/timestamps) plus
    // the sorted children's keys. Recursion is on the span tree,
    // whose depth is the instrumentation nesting depth (shallow).
    auto buildKey = [&](auto &&self, std::size_t n) -> void {
        auto &node = nodes[n];
        std::vector<std::string> pointKeys, spanKeys;
        for (std::size_t c : node.children) {
            self(self, c);
            (nodes[c].rec->isSpan ? spanKeys : pointKeys)
                .push_back(nodes[c].key);
        }
        std::sort(spanKeys.begin(), spanKeys.end());
        node.key = recordLine(*node.rec, 0, 0, false);
        for (const auto &k : pointKeys)
            node.key += "\n" + k;
        for (const auto &k : spanKeys)
            node.key += "\n" + k;
    };
    for (std::size_t r : roots)
        buildKey(buildKey, r);
    std::sort(roots.begin(), roots.end(),
              [&](std::size_t a, std::size_t b) {
                  return nodes[a].key < nodes[b].key;
              });

    // Depth-first emission with renumbered ids.
    std::uint64_t next_id = 1;
    auto emit = [&](auto &&self, std::size_t n,
                    std::uint64_t parent) -> void {
        auto &node = nodes[n];
        std::uint64_t id = 0;
        if (node.rec->isSpan)
            id = next_id++;
        out << recordLine(*node.rec, id, parent, false) << "\n";
        std::vector<std::size_t> points, spans;
        for (std::size_t c : node.children)
            (nodes[c].rec->isSpan ? spans : points).push_back(c);
        std::sort(spans.begin(), spans.end(),
                  [&](std::size_t a, std::size_t b) {
                      return nodes[a].key < nodes[b].key;
                  });
        for (std::size_t c : points)
            self(self, c, id);
        for (std::size_t c : spans)
            self(self, c, id);
    };
    for (std::size_t r : roots)
        emit(emit, r, 0);
}

std::string
Tracer::exportString(const TraceExportOptions &opts) const
{
    std::ostringstream ss;
    exportJsonl(ss, opts);
    return ss.str();
}

} // namespace tomur
