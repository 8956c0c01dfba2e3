/**
 * @file
 * The production front end: a real TCP listener plus an epoll event
 * loop driving the deterministic Server core (serve/server.hh).
 *
 * Division of labour: this file owns file descriptors, readiness,
 * signals, and wall-clock pacing (token-bucket refill, the drain
 * deadline); every protocol/robustness decision — parsing, shedding,
 * deadlines, drain bookkeeping — lives in the core, where the chaos
 * suite exercises it without sockets. The loop is level-triggered
 * with a short wait timeout: the core's step() is a bounded
 * poll-everything round, so readiness only decides *when* to step,
 * never *what* is stepped, which keeps the epoll path a thin shell.
 *
 * Shutdown: SIGTERM/SIGINT set a process-wide flag (async-signal-safe
 * store only); the loop begins a graceful drain — stop accepting,
 * answer new requests 503, finish admitted work — and exits cleanly
 * when the core reports drained() or the drain deadline trips
 * (whereupon leftovers are aborted and counted, not leaked).
 */

#ifndef TOMUR_SERVE_EPOLL_SERVER_HH
#define TOMUR_SERVE_EPOLL_SERVER_HH

#include <cstdint>
#include <string>

#include "common/status.hh"
#include "serve/server.hh"

namespace tomur::serve {

/** Epoll front-end tuning. */
struct EpollOptions
{
    std::string bindAddress = "127.0.0.1";
    int port = 0; ///< 0 = ephemeral; boundPort() reports the choice
    /** Drain budget once a shutdown signal arrives (0 = forever). */
    double drainDeadlineMs = 5000.0;
    /** Token-bucket refill per second per client (paired with
     *  ServeOptions::bucketCapacity). */
    double bucketRefillPerSec = 0.0;
};

/** Install the process-wide SIGTERM/SIGINT -> shutdown-flag
 *  handlers (idempotent). Also used by the CLI autopilot command. */
void installShutdownHandlers();

/** The shutdown flag (set by the signal handlers, or by tests). */
bool shutdownRequested();
void requestShutdown();   ///< programmatic trigger (tests)
void clearShutdownFlag(); ///< reset between runs (tests)

class EpollServer
{
  public:
    /** Binds and listens immediately (Status reports bind errors). */
    EpollServer(Server &core, EpollOptions opts);
    ~EpollServer();

    EpollServer(const EpollServer &) = delete;
    EpollServer &operator=(const EpollServer &) = delete;

    /** Listener health after construction. */
    const Status &status() const { return status_; }

    /** The port actually bound (after ephemeral resolution). */
    int boundPort() const { return boundPort_; }

    /**
     * Serve until a shutdown signal arrives, then drain. Returns
     * ok() on a clean drain; an error Status if the drain deadline
     * tripped and connections had to be aborted (still a controlled
     * exit — the daemon maps it to a nonzero exit code).
     */
    Status run();

    /** One loop iteration (exposed for tests). */
    void iterate();

  private:
    class TcpListener;

    Server &core_;
    EpollOptions opts_;
    Status status_ = Status::ok();
    int epollFd_ = -1;
    int listenFd_ = -1;
    int boundPort_ = 0;
    std::uint64_t lastTickNs_ = 0;
    std::unique_ptr<Listener> listener_;
};

} // namespace tomur::serve

#endif // TOMUR_SERVE_EPOLL_SERVER_HH
