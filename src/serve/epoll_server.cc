#include "serve/epoll_server.hh"

#include <cerrno>
#include <csignal>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/logging.hh"
#include "common/strutil.hh"
#include "common/trace.hh"

namespace tomur::serve {

// ---------------------------------------------------------------
// Shutdown flag + handlers
// ---------------------------------------------------------------

namespace {

/** listen() backlog. */
constexpr int kBacklog = 128;
/** epoll_wait tick (also paces token-bucket refill). */
constexpr int kWaitTimeoutMs = 10;

volatile std::sig_atomic_t g_shutdown = 0;

void
onShutdownSignal(int)
{
    // Async-signal-safe: one flag store, nothing else. The event
    // loop (or the autopilot sample loop) notices and drains.
    g_shutdown = 1;
}

} // namespace

void
installShutdownHandlers()
{
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = onShutdownSignal;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGTERM, &sa, nullptr);
    sigaction(SIGINT, &sa, nullptr);
    // A peer that hangs up mid-response must produce an EPIPE the
    // transport maps to a dead connection, not a process kill.
    std::signal(SIGPIPE, SIG_IGN);
}

bool
shutdownRequested()
{
    return g_shutdown != 0;
}

void
requestShutdown()
{
    g_shutdown = 1;
}

void
clearShutdownFlag()
{
    g_shutdown = 0;
}

// ---------------------------------------------------------------
// TcpListener
// ---------------------------------------------------------------

class EpollServer::TcpListener : public Listener
{
  public:
    TcpListener(int listen_fd, int epoll_fd)
        : listenFd_(listen_fd), epollFd_(epoll_fd)
    {
    }

    AcceptResult
    accept() override
    {
        AcceptResult r;
        struct sockaddr_in peer;
        socklen_t len = sizeof(peer);
        int fd = ::accept4(listenFd_,
                           reinterpret_cast<sockaddr *>(&peer),
                           &len, SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                r.none = true;
            } else {
                r.error = Status::ioError(strf(
                    "accept: %s", std::strerror(errno)));
            }
            return r;
        }
        char addr[INET_ADDRSTRLEN] = "unknown";
        inet_ntop(AF_INET, &peer.sin_addr, addr, sizeof(addr));
        r.clientId = addr;

        struct epoll_event ev;
        std::memset(&ev, 0, sizeof(ev));
        ev.events = EPOLLIN;
        ev.data.fd = fd;
        if (epoll_ctl(epollFd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
            // Not fatal: the 10 ms wait timeout still guarantees the
            // core polls this connection; it just loses low-latency
            // wakeups.
            warn(strf("epoll_ctl(add, fd %d): %s", fd,
                      std::strerror(errno)));
        }
        r.transport = std::make_unique<SocketTransport>(fd);
        return r;
    }

  private:
    int listenFd_;
    int epollFd_;
};

// ---------------------------------------------------------------
// EpollServer
// ---------------------------------------------------------------

EpollServer::EpollServer(Server &core, EpollOptions opts)
    : core_(core), opts_(opts)
{
    std::signal(SIGPIPE, SIG_IGN);

    listenFd_ = ::socket(AF_INET,
                         SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                         0);
    if (listenFd_ < 0) {
        status_ = Status::ioError(
            strf("socket: %s", std::strerror(errno)));
        return;
    }
    int one = 1;
    setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
               sizeof(one));

    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port =
        htons(static_cast<std::uint16_t>(opts_.port));
    if (inet_pton(AF_INET, opts_.bindAddress.c_str(),
                  &addr.sin_addr) != 1) {
        status_ = Status::invalidArgument(
            "unparseable bind address '" + opts_.bindAddress + "'");
        return;
    }
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) < 0) {
        status_ = Status::ioError(
            strf("bind %s:%d: %s", opts_.bindAddress.c_str(),
                 opts_.port, std::strerror(errno)));
        return;
    }
    if (::listen(listenFd_, kBacklog) < 0) {
        status_ = Status::ioError(
            strf("listen: %s", std::strerror(errno)));
        return;
    }
    socklen_t len = sizeof(addr);
    if (getsockname(listenFd_,
                    reinterpret_cast<sockaddr *>(&addr),
                    &len) == 0) {
        boundPort_ = ntohs(addr.sin_port);
    }

    epollFd_ = epoll_create1(EPOLL_CLOEXEC);
    if (epollFd_ < 0) {
        status_ = Status::ioError(
            strf("epoll_create1: %s", std::strerror(errno)));
        return;
    }
    struct epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN;
    ev.data.fd = listenFd_;
    if (epoll_ctl(epollFd_, EPOLL_CTL_ADD, listenFd_, &ev) < 0) {
        status_ = Status::ioError(
            strf("epoll_ctl(listen): %s", std::strerror(errno)));
        return;
    }
    listener_ = std::make_unique<TcpListener>(listenFd_, epollFd_);
    core_.setListener(listener_.get());
    lastTickNs_ = monotonicNs();
}

EpollServer::~EpollServer()
{
    core_.setListener(nullptr);
    if (epollFd_ >= 0)
        ::close(epollFd_);
    if (listenFd_ >= 0)
        ::close(listenFd_);
}

void
EpollServer::iterate()
{
    struct epoll_event events[64];
    // The wait only decides *when* to step; step() itself polls
    // every connection non-blockingly, so a missed registration or
    // a spurious wakeup cannot lose work.
    int n = epoll_wait(epollFd_, events, 64, kWaitTimeoutMs);
    (void)n;

    std::uint64_t now = monotonicNs();
    if (opts_.bucketRefillPerSec > 0.0) {
        double elapsed_sec =
            static_cast<double>(now - lastTickNs_) / 1e9;
        core_.tickTokens(opts_.bucketRefillPerSec * elapsed_sec);
    }
    lastTickNs_ = now;

    // Re-step while progress is being made, bounded so one iteration
    // cannot spin forever on a pathological connection.
    for (int rounds = 0; rounds < 8; ++rounds) {
        if (!core_.step())
            break;
    }
}

Status
EpollServer::run()
{
    if (!status_.isOk())
        return status_;
    inform(strf("server: listening on %s:%d",
                opts_.bindAddress.c_str(), boundPort_));
    std::uint64_t drainStartNs = 0;
    for (;;) {
        if (shutdownRequested() && !core_.draining()) {
            core_.beginDrain();
            // Stop accepting at the socket level too: close the
            // listener so queued SYNs are refused, not ignored.
            if (listenFd_ >= 0) {
                epoll_ctl(epollFd_, EPOLL_CTL_DEL, listenFd_,
                          nullptr);
                ::close(listenFd_);
                listenFd_ = -1;
                core_.setListener(nullptr);
            }
            drainStartNs = monotonicNs();
        }
        if (core_.draining()) {
            if (core_.drained()) {
                inform("server: drained cleanly");
                return Status::ok();
            }
            if (opts_.drainDeadlineMs > 0.0 &&
                static_cast<double>(monotonicNs() - drainStartNs) /
                        1e6 >
                    opts_.drainDeadlineMs) {
                std::size_t open = core_.openConnections();
                core_.abortConnections();
                return Status::unavailable(strf(
                    "drain deadline (%.0f ms) tripped with %zu "
                    "connections still open",
                    opts_.drainDeadlineMs, open));
            }
        }
        iterate();
    }
}

} // namespace tomur::serve
