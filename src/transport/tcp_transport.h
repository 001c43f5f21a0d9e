// TCP implementation of the transport abstraction (POSIX sockets).  The
// fd stream class behind it also backs inprocPair() (inproc_transport.h).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "transport/transport.h"

namespace ninf::transport {

/// Connect to host:port; throws ninf::TransportError on failure.
/// timeout_seconds > 0 bounds the connection establishment (a timed-out
/// attempt throws a TransportError naming host:port and the deadline);
/// <= 0 blocks until the OS gives up.
std::unique_ptr<Stream> tcpConnect(const std::string& host,
                                   std::uint16_t port,
                                   double timeout_seconds = 0.0)
    NINF_BLOCKING;

/// Start connecting to host:port without waiting: the stream is in
/// non-blocking mode, and its connection is settled once its native
/// handle reports writable — then finishConnect() says how it went.
/// Throws ninf::TransportError for a bad address or a connect that fails
/// at once.  tcpConnect() is this plus a wait.
std::unique_ptr<Stream> tcpConnectNowait(const std::string& host,
                                         std::uint16_t port);

/// Settle a tcpConnectNowait() stream that reported writable: throws
/// ninf::TransportError naming the peer when the connect failed.
void finishConnect(const Stream& stream);

/// Listening TCP socket bound to 127.0.0.1.
class TcpListener : public Listener {
 public:
  /// Bind to the given port; port 0 picks an ephemeral port.
  /// `backlog` bounds the kernel's pending-connection queue; <= 0 means
  /// net_tuning.h's kListenBacklogDefault (SOMAXCONN — the historical
  /// hardcoded 64 dropped SYNs during flash-crowd arrival).
  explicit TcpListener(std::uint16_t port, int backlog = 0);
  ~TcpListener() override;

  /// The actually bound port (useful with port 0).
  std::uint16_t port() const { return port_; }

  /// Test callers only: every server and node accepts via tryAccept().
  std::unique_ptr<Stream> accept() override;
  void close() override;

  int nativeHandle() const override;
  std::unique_ptr<Stream> tryAccept(AcceptStatus& status) override
      NINF_REACTOR_CONTEXT;

 private:
  // Atomic: close() is called from another thread to unblock accept().
  std::atomic<int> fd_{-1};
  std::uint16_t port_ = 0;
  /// tryAccept() switched the socket to O_NONBLOCK.
  std::atomic<bool> nonblocking_{false};
};

}  // namespace ninf::transport
