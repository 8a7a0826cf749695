// Byte transports for the dsprofd wire protocol.
//
// One implementation: every connection is a connected SOCK_STREAM fd behind
// the same send, recv and shutdown code, whichever way it was made:
//
//   * make_pipe_pair() — an in-process pair (a Unix socketpair), so the
//     whole client/server stack runs inside one test process under
//     ASan/TSan on the code the daemon runs. A full socket buffer is real
//     backpressure: when the daemon stops draining (e.g. the test stalls
//     the reducer), the client's send() blocks.
//
//   * Unix-domain sockets — UdsListener::accept() / uds_connect() for a
//     single-host dsprofd + dsprof_send pair.
//
//   * TCP sockets — TcpListener::accept() / tcp_connect() for fleet-scale
//     deployment: one dsprofd aggregating collectors across hosts. TCP
//     additionally sets TCP_NODELAY so small control frames
//     (Flush/SnapshotReq) are not Nagle-delayed behind event batches.
//
// Semantics:
//   send()      writes all n bytes or fails; blocks on backpressure. SIGPIPE
//               is avoided via MSG_NOSIGNAL.
//   recv_some() returns at least 1 byte, or Timeout after timeout_ms
//               (timeout_ms < 0 = block forever), or Disconnected once the
//               peer has closed AND the stream is drained.
//   shutdown()  unblocks both directions; subsequent I/O on either end
//               completes with Disconnected. Safe to call from any thread
//               (that is how the server interrupts a blocked reader).
//
// Endpoint URIs pick a transport at run time (dsprofd --listen,
// dsprof_send --connect):
//   tcp://host:port   TCP (numeric IPv4 host; port 0 = ephemeral when
//                     listening — TcpListener::port() reports the choice)
//   unix://path       Unix-domain socket
//   path              bare paths mean unix:// (backward compatible)
#pragma once

#include <memory>
#include <string>
#include <utility>

#include "serve/status.hpp"

namespace dsprof::serve {

class Transport {
 public:
  virtual ~Transport() = default;
  virtual Status send(const u8* data, size_t n) = 0;
  virtual Status recv_some(u8* buf, size_t cap, size_t& got, int timeout_ms) = 0;
  virtual void shutdown() = 0;
};

/// Create a connected in-process pair (client end, server end); throws
/// dsprof::Error if the socketpair cannot be made.
std::pair<std::unique_ptr<Transport>, std::unique_ptr<Transport>> make_pipe_pair();

/// A listening stream socket of either flavor; it owns the fd, and each
/// accepted connection is the same fd Transport. Server::serve() accepts
/// over this class, so the daemon is transport-agnostic.
class Listener {
 public:
  virtual ~Listener();
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Accept one connection; nullptr with non-Ok status on timeout/close.
  /// timeout_ms < 0 blocks until a client arrives or close() is called.
  std::unique_ptr<Transport> accept(Status& status, int timeout_ms = -1);

  /// Unblock accept() and stop listening.
  void close();

  /// Canonical endpoint URI ("unix://path" / "tcp://host:port", with the
  /// real port when an ephemeral one was requested).
  const std::string& endpoint() const { return endpoint_; }

 protected:
  Listener() = default;

  int fd_ = -1;
  bool nodelay_ = false;     // TCP: Nagle off on each accepted connection
  std::string unlink_path_;  // Unix: the socket file, removed on close
  std::string endpoint_;
};

/// Listening Unix-domain socket. The path is unlinked on bind and on close.
class UdsListener final : public Listener {
 public:
  /// Bind and listen; throws dsprof::Error on failure (daemon startup is
  /// fail-fast — there is no session to degrade yet).
  explicit UdsListener(const std::string& path);
};

/// Listening TCP socket (numeric IPv4 host, e.g. "127.0.0.1" or "0.0.0.0").
/// Port 0 requests an ephemeral port; port() reports the bound one.
class TcpListener final : public Listener {
 public:
  /// Bind and listen; throws dsprof::Error on failure (fail-fast, like
  /// UdsListener).
  TcpListener(const std::string& host, u16 port);

  u16 port() const { return port_; }

 private:
  u16 port_ = 0;
};

/// Connect to a listening dsprofd socket.
std::unique_ptr<Transport> uds_connect(const std::string& path, Status& status);

/// Connect to a listening TCP dsprofd. `timeout_ms` bounds the connect
/// itself (< 0 = the OS default); TCP_NODELAY is set on success.
std::unique_ptr<Transport> tcp_connect(const std::string& host, u16 port, Status& status,
                                       int timeout_ms = -1);

// --- endpoint URIs ----------------------------------------------------------

struct Endpoint {
  enum class Kind { Unix, Tcp };
  Kind kind = Kind::Unix;
  std::string path;  // unix socket path
  std::string host;  // numeric IPv4 host
  u16 port = 0;
};

/// Parse "tcp://host:port", "unix://path" or a bare path (= unix).
Status parse_endpoint(const std::string& uri, Endpoint& out);

/// Listener for a URI; throws dsprof::Error on a malformed URI or a bind
/// failure (daemon startup is fail-fast).
std::unique_ptr<Listener> make_listener(const std::string& uri);

/// One connect attempt to a URI endpoint.
std::unique_ptr<Transport> connect_endpoint(const std::string& uri, Status& status,
                                            int timeout_ms = -1);

/// Connection retry policy for collectors racing daemon startup: retry the
/// connect with exponential backoff (mirrors ClientOptions' recv retry).
struct ConnectRetry {
  unsigned attempts = 5;    // total connect attempts
  unsigned backoff_ms = 20; // first sleep; doubles each retry
  int timeout_ms = 2000;    // per-attempt connect timeout (TCP)
};

/// Connect to a URI endpoint, retrying per `retry`. On failure returns
/// nullptr with the last attempt's status.
std::unique_ptr<Transport> connect_with_retry(const std::string& uri, Status& status,
                                              ConnectRetry retry = {});

}  // namespace dsprof::serve
