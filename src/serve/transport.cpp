#include "serve/transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

namespace dsprof::serve {

namespace {

/// One connected SOCK_STREAM fd: every connection — in-process pair, Unix
/// or TCP — gets this send (all-or-fail, blocks on a full buffer),
/// poll-based recv timeout and shutdown, so the wire protocol sees no
/// difference between a local and a remote peer.
class FdTransport final : public Transport {
 public:
  explicit FdTransport(int fd) : fd_(fd) {}
  ~FdTransport() override {
    shutdown();
    if (fd_ >= 0) ::close(fd_);
  }

  Status send(const u8* data, size_t n) override {
    size_t off = 0;
    while (off < n) {
      const ssize_t w = ::send(fd_, data + off, n - off, MSG_NOSIGNAL);
      if (w < 0) {
        if (errno == EINTR) continue;
        if (errno == EPIPE || errno == ECONNRESET)
          return Status::make(StatusCode::Disconnected, "peer closed");
        return Status::make(StatusCode::IoError, std::string("send: ") + std::strerror(errno));
      }
      off += static_cast<size_t>(w);
    }
    return {};
  }

  Status recv_some(u8* buf, size_t cap, size_t& got, int timeout_ms) override {
    got = 0;
    struct pollfd pfd {fd_, POLLIN, 0};
    for (;;) {
      const int pr = ::poll(&pfd, 1, timeout_ms);
      if (pr < 0) {
        if (errno == EINTR) continue;
        return Status::make(StatusCode::IoError, std::string("poll: ") + std::strerror(errno));
      }
      if (pr == 0) return Status::make(StatusCode::Timeout, "socket recv timed out");
      break;
    }
    for (;;) {
      const ssize_t r = ::recv(fd_, buf, cap, 0);
      if (r < 0) {
        if (errno == EINTR) continue;
        if (errno == ECONNRESET)
          return Status::make(StatusCode::Disconnected, "peer reset");
        return Status::make(StatusCode::IoError, std::string("recv: ") + std::strerror(errno));
      }
      if (r == 0) return Status::make(StatusCode::Disconnected, "peer closed");
      got = static_cast<size_t>(r);
      return {};
    }
  }

  void shutdown() override {
    if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
  }

 private:
  int fd_;
};

/// Small control frames must not queue behind event batches; Nagle off.
void set_nodelay(int fd) {
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Open a `domain` stream socket bound to `addr` and listening; throws
/// dsprof::Error naming `where` on failure.
int listen_socket(int domain, const sockaddr* addr, socklen_t len, int backlog,
                  const std::string& where) {
  const int fd = ::socket(domain, SOCK_STREAM, 0);
  DSP_CHECK(fd >= 0, std::string("socket: ") + std::strerror(errno));
  const int one = 1;  // TCP: rebind a port in TIME_WAIT (no effect on Unix)
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  const bool bound = ::bind(fd, addr, len) == 0;
  if (!bound || ::listen(fd, backlog) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    fail((bound ? "listen " : "bind ") + where + ": " + err);
  }
  return fd;
}

}  // namespace

std::pair<std::unique_ptr<Transport>, std::unique_ptr<Transport>> make_pipe_pair() {
  int fds[2];
  DSP_CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0,
            std::string("socketpair: ") + std::strerror(errno));
  return {std::make_unique<FdTransport>(fds[0]), std::make_unique<FdTransport>(fds[1])};
}

// --- listeners --------------------------------------------------------------

Listener::~Listener() { close(); }

std::unique_ptr<Transport> Listener::accept(Status& status, int timeout_ms) {
  status = {};
  if (fd_ < 0) {
    status = Status::make(StatusCode::Disconnected, "listener closed");
    return nullptr;
  }
  struct pollfd pfd {fd_, POLLIN, 0};
  for (;;) {
    const int pr = ::poll(&pfd, 1, timeout_ms);
    if (pr < 0) {
      if (errno == EINTR) continue;
      status = Status::make(StatusCode::IoError, std::string("poll: ") + std::strerror(errno));
      return nullptr;
    }
    if (pr == 0) {
      status = Status::make(StatusCode::Timeout, "accept timed out");
      return nullptr;
    }
    break;
  }
  const int cfd = ::accept(fd_, nullptr, nullptr);
  if (cfd < 0) {
    status = Status::make(StatusCode::IoError, std::string("accept: ") + std::strerror(errno));
    return nullptr;
  }
  if (nodelay_) set_nodelay(cfd);
  return std::make_unique<FdTransport>(cfd);
}

void Listener::close() {
  if (fd_ >= 0) {
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    fd_ = -1;
    if (!unlink_path_.empty()) ::unlink(unlink_path_.c_str());
  }
}

UdsListener::UdsListener(const std::string& path) {
  DSP_CHECK(path.size() < sizeof(sockaddr_un{}.sun_path), "socket path too long");
  ::unlink(path.c_str());
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  fd_ = listen_socket(AF_UNIX, reinterpret_cast<sockaddr*>(&addr), sizeof(addr), 64, path);
  unlink_path_ = path;
  endpoint_ = "unix://" + path;
}

std::unique_ptr<Transport> uds_connect(const std::string& path, Status& status) {
  status = {};
  if (path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    status = Status::make(StatusCode::IoError, "socket path too long");
    return nullptr;
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    status = Status::make(StatusCode::IoError, std::string("socket: ") + std::strerror(errno));
    return nullptr;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    status = Status::make(StatusCode::IoError,
                          "connect " + path + ": " + std::strerror(errno));
    ::close(fd);
    return nullptr;
  }
  return std::make_unique<FdTransport>(fd);
}

// --- TCP --------------------------------------------------------------------

TcpListener::TcpListener(const std::string& host, u16 port) : port_(port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  DSP_CHECK(::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1,
            "bad TCP host '" + host + "' (numeric IPv4 expected)");
  fd_ = listen_socket(AF_INET, reinterpret_cast<sockaddr*>(&addr), sizeof(addr), 128,
                      "tcp://" + host + ":" + std::to_string(port));
  nodelay_ = true;
  // Ephemeral-port request (port 0): report what the kernel picked.
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    port_ = ntohs(bound.sin_port);
  }
  endpoint_ = "tcp://" + host + ":" + std::to_string(port_);
}

std::unique_ptr<Transport> tcp_connect(const std::string& host, u16 port, Status& status,
                                       int timeout_ms) {
  status = {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    status = Status::make(StatusCode::IoError,
                          "bad TCP host '" + host + "' (numeric IPv4 expected)");
    return nullptr;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    status = Status::make(StatusCode::IoError, std::string("socket: ") + std::strerror(errno));
    return nullptr;
  }
  const std::string where = "tcp://" + host + ":" + std::to_string(port);
  if (timeout_ms >= 0) {
    // Bounded connect: non-blocking connect, poll for writability, then
    // read SO_ERROR for the real outcome and restore blocking mode.
    const int flags = ::fcntl(fd, F_GETFL, 0);
    (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    if (rc != 0 && errno == EINPROGRESS) {
      struct pollfd pfd {fd, POLLOUT, 0};
      int pr;
      do {
        pr = ::poll(&pfd, 1, timeout_ms);
      } while (pr < 0 && errno == EINTR);
      if (pr == 0) {
        status = Status::make(StatusCode::Timeout, "connect " + where + ": timed out");
        ::close(fd);
        return nullptr;
      }
      int soerr = 0;
      socklen_t len = sizeof(soerr);
      if (pr < 0 || ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &len) != 0 || soerr != 0) {
        status = Status::make(StatusCode::IoError,
                              "connect " + where + ": " +
                                  std::strerror(soerr != 0 ? soerr : errno));
        ::close(fd);
        return nullptr;
      }
      rc = 0;
    }
    if (rc != 0) {
      status = Status::make(StatusCode::IoError,
                            "connect " + where + ": " + std::strerror(errno));
      ::close(fd);
      return nullptr;
    }
    (void)::fcntl(fd, F_SETFL, flags);
  } else if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    status = Status::make(StatusCode::IoError,
                          "connect " + where + ": " + std::strerror(errno));
    ::close(fd);
    return nullptr;
  }
  set_nodelay(fd);
  return std::make_unique<FdTransport>(fd);
}

// --- endpoint URIs ----------------------------------------------------------

Status parse_endpoint(const std::string& uri, Endpoint& out) {
  out = {};
  if (uri.empty()) return Status::make(StatusCode::Refused, "empty endpoint");
  if (uri.rfind("unix://", 0) == 0) {
    out.kind = Endpoint::Kind::Unix;
    out.path = uri.substr(7);
    if (out.path.empty())
      return Status::make(StatusCode::Refused, "empty unix:// socket path");
    return {};
  }
  if (uri.rfind("tcp://", 0) == 0) {
    const std::string rest = uri.substr(6);
    const size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0)
      return Status::make(StatusCode::Refused,
                          "tcp endpoint '" + uri + "' wants tcp://host:port");
    out.kind = Endpoint::Kind::Tcp;
    out.host = rest.substr(0, colon);
    const std::string port_s = rest.substr(colon + 1);
    char* end = nullptr;
    const unsigned long p = std::strtoul(port_s.c_str(), &end, 10);
    if (port_s.empty() || end == nullptr || *end != '\0' || p > 65535)
      return Status::make(StatusCode::Refused, "bad tcp port '" + port_s + "'");
    out.port = static_cast<u16>(p);
    return {};
  }
  if (uri.find("://") != std::string::npos)
    return Status::make(StatusCode::Refused,
                        "unknown endpoint scheme in '" + uri + "' (tcp:// or unix://)");
  // Bare path: the historic --socket form.
  out.kind = Endpoint::Kind::Unix;
  out.path = uri;
  return {};
}

std::unique_ptr<Listener> make_listener(const std::string& uri) {
  Endpoint ep;
  const Status st = parse_endpoint(uri, ep);
  DSP_CHECK(st.ok(), st.message);
  if (ep.kind == Endpoint::Kind::Tcp)
    return std::make_unique<TcpListener>(ep.host, ep.port);
  return std::make_unique<UdsListener>(ep.path);
}

std::unique_ptr<Transport> connect_endpoint(const std::string& uri, Status& status,
                                            int timeout_ms) {
  Endpoint ep;
  status = parse_endpoint(uri, ep);
  if (!status.ok()) return nullptr;
  if (ep.kind == Endpoint::Kind::Tcp)
    return tcp_connect(ep.host, ep.port, status, timeout_ms);
  return uds_connect(ep.path, status);
}

std::unique_ptr<Transport> connect_with_retry(const std::string& uri, Status& status,
                                              ConnectRetry retry) {
  unsigned backoff = retry.backoff_ms;
  for (unsigned attempt = 0;; ++attempt) {
    auto t = connect_endpoint(uri, status, retry.timeout_ms);
    if (t) return t;
    // A malformed URI never becomes connectable; only I/O failures retry.
    if (status.code == StatusCode::Refused) return nullptr;
    if (attempt + 1 >= retry.attempts) return nullptr;
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
    backoff *= 2;
  }
}

}  // namespace dsprof::serve
