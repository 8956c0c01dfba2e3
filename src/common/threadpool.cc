#include "common/threadpool.hh"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <limits>
#include <memory>

#include "common/deadline.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/serial.hh"
#include "common/telemetry.hh"
#include "common/trace.hh"

namespace tomur {

namespace {

/** Set while a thread is executing pool jobs (nested-loop guard). */
thread_local bool t_on_worker = false;

std::mutex g_pool_mutex;
std::unique_ptr<ThreadPool> g_pool;

/**
 * Pool introspection metrics. Values depend on scheduling and pool
 * width, so the whole family lives under the `tomur_pool_` prefix
 * the deterministic-dump consumers exclude (see telemetry.hh).
 */
struct PoolMetrics
{
    Counter &jobsPosted =
        metrics().counter("tomur_pool_jobs_posted_total");
    Counter &jobsExecuted =
        metrics().counter("tomur_pool_jobs_executed_total");
    Counter &loops =
        metrics().counter("tomur_pool_loops_total");
    Counter &inlineLoops =
        metrics().counter("tomur_pool_inline_loops_total");
    Gauge &queueDepth = metrics().gauge("tomur_pool_queue_depth");
    Gauge &width = metrics().gauge("tomur_pool_width");
};

PoolMetrics &
poolMetrics()
{
    static PoolMetrics pm;
    return pm;
}

} // namespace

ThreadPool::ThreadPool(int threads)
    : threads_(threads < 1 ? 1 : threads)
{
    // threads_ counts the calling thread as a participant: a pool of
    // width N spawns N-1 workers and the caller works too, so
    // TOMUR_THREADS=1 means strictly serial execution.
    for (int i = 1; i < threads_; ++i)
        workers_.emplace_back([this] { workerLoop(); });
    poolMetrics().width.set(threads_);
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    cv_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::post(std::function<void()> job)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(std::move(job));
        poolMetrics().queueDepth.set(
            static_cast<double>(queue_.size()));
    }
    poolMetrics().jobsPosted.inc();
    cv_.notify_one();
}

bool
ThreadPool::onWorkerThread()
{
    return t_on_worker;
}

void
ThreadPool::workerLoop()
{
    t_on_worker = true;
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock,
                     [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stopping
            job = std::move(queue_.back());
            queue_.pop_back();
            poolMetrics().queueDepth.set(
                static_cast<double>(queue_.size()));
        }
        poolMetrics().jobsExecuted.inc();
        job();
    }
}

int
configuredThreadCount()
{
    if (const char *env = std::getenv("TOMUR_THREADS")) {
        int n = 0;
        if (readNumber(env, 1, kMaxConfiguredThreads, &n))
            return n;
        warnEvent("threadpool", "bad-TOMUR_THREADS",
                  {{"value", env}});
    }
    unsigned hc = std::thread::hardware_concurrency();
    return hc >= 1 ? static_cast<int>(hc) : 1;
}

ThreadPool &
ThreadPool::global()
{
    std::lock_guard<std::mutex> lock(g_pool_mutex);
    if (!g_pool)
        g_pool = std::make_unique<ThreadPool>(configuredThreadCount());
    return *g_pool;
}

void
setGlobalThreadCount(int threads)
{
    std::lock_guard<std::mutex> lock(g_pool_mutex);
    if (g_pool && g_pool->threadCount() == (threads < 1 ? 1 : threads))
        return;
    g_pool.reset(); // join old workers before spawning anew
    g_pool = std::make_unique<ThreadPool>(threads);
}

int
globalThreadCount()
{
    return ThreadPool::global().threadCount();
}

namespace {

/** Shared state of one parallelFor invocation. */
struct LoopState
{
    const std::function<void(std::size_t)> *fn = nullptr;
    std::size_t n = 0;
    Deadline *deadline = nullptr;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::mutex mutex;
    std::condition_variable cv;
    std::exception_ptr error;
    std::size_t errorIndex = std::numeric_limits<std::size_t>::max();

    void
    recordError(std::size_t i, std::exception_ptr e)
    {
        // Keep the lowest-index exception so the rethrow is
        // deterministic no matter which worker faulted first.
        std::lock_guard<std::mutex> lock(mutex);
        if (i < errorIndex) {
            errorIndex = i;
            error = std::move(e);
        }
    }

    /** Claim-and-run iterations until the range is exhausted. */
    void
    drain()
    {
        for (;;) {
            std::size_t i = next.fetch_add(1);
            if (i >= n)
                return;
            // Each claimed iteration is one cancellation granule: an
            // expired deadline skips the body (recording the miss at
            // the lowest skipped index) but still counts the slot
            // done, so the loop drains instead of hanging. Work that
            // already started is never interrupted — the phase can
            // overrun by at most the granules in flight.
            if (deadline != nullptr && deadline->check()) {
                recordError(i, std::make_exception_ptr(
                                   DeadlineExceeded("parallelFor")));
            } else {
                try {
                    (*fn)(i);
                } catch (...) {
                    recordError(i, std::current_exception());
                }
            }
            if (done.fetch_add(1) + 1 == n) {
                std::lock_guard<std::mutex> lock(mutex);
                cv.notify_all();
            }
        }
    }
};

} // namespace

void
parallelFor(std::size_t n, const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;

    // Inline execution: single iteration, serial pool, or a nested
    // loop already running on a pool worker (queueing from a worker
    // could deadlock a saturated fixed-size pool).
    ThreadPool &pool = ThreadPool::global();
    poolMetrics().loops.inc();
    Deadline *deadline = currentDeadline();
    if (n == 1 || pool.threadCount() == 1 ||
        ThreadPool::onWorkerThread()) {
        poolMetrics().inlineLoops.inc();
        std::exception_ptr error;
        std::size_t error_index =
            std::numeric_limits<std::size_t>::max();
        for (std::size_t i = 0; i < n; ++i) {
            if (deadline != nullptr && deadline->check()) {
                if (i < error_index) {
                    error_index = i;
                    error = std::make_exception_ptr(
                        DeadlineExceeded("parallelFor"));
                }
                break; // serial path: nothing in flight to finish
            }
            try {
                fn(i);
            } catch (...) {
                if (i < error_index) {
                    error_index = i;
                    error = std::current_exception();
                }
            }
        }
        if (error)
            std::rethrow_exception(error);
        return;
    }

    auto state = std::make_shared<LoopState>();
    state->fn = &fn;
    state->n = n;
    state->deadline = deadline;

    std::size_t helpers = static_cast<std::size_t>(pool.threadCount());
    if (helpers > n)
        helpers = n;
    // helpers counts the caller; post one job per extra worker. The
    // caller's current trace span travels with the job, so spans
    // opened inside pool tasks nest under the span that launched the
    // loop (the caller's own drain() sees it via its span stack).
    std::uint64_t trace_parent = tracer().currentSpan();
    for (std::size_t h = 1; h < helpers; ++h) {
        pool.post([state, trace_parent] {
            std::uint64_t prev =
                tracer().setInheritedParent(trace_parent);
            Deadline *prev_deadline =
                setCurrentDeadline(state->deadline);
            state->drain();
            setCurrentDeadline(prev_deadline);
            tracer().setInheritedParent(prev);
        });
    }

    state->drain(); // the caller participates

    {
        std::unique_lock<std::mutex> lock(state->mutex);
        state->cv.wait(lock, [&] {
            return state->done.load() == state->n;
        });
        if (state->error)
            std::rethrow_exception(state->error);
    }
}

std::uint64_t
deriveSeed(std::uint64_t base, std::uint64_t index)
{
    // Two splitmix64 steps over (base, index) decorrelate adjacent
    // indices; the constant offsets the all-zero fixed point.
    std::uint64_t s = base + 0x9e3779b97f4a7c15ULL * (index + 1);
    std::uint64_t x = splitmix64(s);
    x ^= splitmix64(s);
    return splitmix64(s) ^ x;
}

} // namespace tomur
