/**
 * @file
 * Shared worker pool + deterministic parallel loops.
 *
 * The profiling/training pipeline fans thousands of independent
 * testbed solves, tree fits and predictions across cores. All
 * parallelism in the library goes through the one global ThreadPool
 * so the worker count is controlled in a single place: the
 * TOMUR_THREADS environment variable (default:
 * std::thread::hardware_concurrency()).
 *
 * Determinism contract: parallelFor/parallelMap assign work by index,
 * collect results by index, and rethrow the first (lowest-index)
 * exception. Combined with per-task RNG streams derived via
 * deriveSeed(base, index), a parallel run is bit-identical to the
 * same run with TOMUR_THREADS=1 — scheduling order can never leak
 * into results.
 *
 * Nested use is safe: a parallel loop entered from inside a pool
 * worker runs inline on that worker (no new tasks are queued), so
 * recursion cannot deadlock the fixed-size pool.
 */

#ifndef TOMUR_COMMON_THREADPOOL_HH
#define TOMUR_COMMON_THREADPOOL_HH

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tomur {

/** Fixed-size worker pool executing queued jobs. */
class ThreadPool
{
  public:
    /**
     * @param threads worker count; values < 1 are clamped to 1. A
     *        one-thread pool spawns no workers at all — every loop
     *        runs inline on the caller.
     */
    explicit ThreadPool(int threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Workers available (>= 1; counts the caller's thread). */
    int threadCount() const { return threads_; }

    /** Enqueue a job (runs on some worker, eventually). */
    void post(std::function<void()> job);

    /** True when the calling thread is one of this pool's workers. */
    static bool onWorkerThread();

    /**
     * The process-wide pool. First use constructs it with
     * TOMUR_THREADS (or hardware_concurrency) workers.
     */
    static ThreadPool &global();

  private:
    void workerLoop();

    int threads_;
    std::vector<std::thread> workers_;
    std::vector<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stopping_ = false;
};

/** The most workers TOMUR_THREADS may ask for. */
constexpr int kMaxConfiguredThreads = 1024;

/**
 * Worker count the global pool uses: TOMUR_THREADS when it is an
 * integer in [1, kMaxConfiguredThreads] (common/serial.hh
 * readNumber()), otherwise std::thread::hardware_concurrency(); a set
 * but refused value logs a bad-TOMUR_THREADS warn event.
 */
int configuredThreadCount();

/**
 * Resize the global pool (tests and the bench harness use this to
 * compare serial vs parallel runs in-process). Not thread-safe
 * against concurrent parallelFor calls — call it only between
 * parallel regions.
 */
void setGlobalThreadCount(int threads);

/** Current global pool width. */
int globalThreadCount();

/**
 * Run fn(0) ... fn(n-1), potentially in parallel, and block until
 * all calls finished. Iterations must be independent. The first
 * exception (by lowest index) is rethrown on the calling thread
 * after the loop drains; remaining iterations still run.
 */
void parallelFor(std::size_t n,
                 const std::function<void(std::size_t)> &fn);

/**
 * Map fn over [0, n) collecting results in index order. The result
 * vector is identical to the serial loop's regardless of worker
 * count or scheduling.
 */
template <typename F>
auto
parallelMap(std::size_t n, F fn)
    -> std::vector<decltype(fn(std::size_t{}))>
{
    std::vector<decltype(fn(std::size_t{}))> out(n);
    parallelFor(n, [&](std::size_t i) { out[i] = fn(i); });
    return out;
}

/**
 * Derive the seed for per-task RNG stream `index` from a base seed.
 * Stateless (splitmix64-based), so task i's stream is the same
 * whether tasks run serially, in parallel, or out of order.
 */
std::uint64_t deriveSeed(std::uint64_t base, std::uint64_t index);

} // namespace tomur

#endif // TOMUR_COMMON_THREADPOOL_HH
