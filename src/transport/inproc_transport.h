// In-process transport: the two ends of a socketpair(AF_UNIX).
// Used by unit tests and single-process demos; each end is the same fd
// stream as a TCP connection (implemented in tcp_transport.cpp), so it
// is pollable, honours deadlines and is served by the reactor.
#pragma once

#include <memory>
#include <utility>

#include "transport/transport.h"

namespace ninf::transport {

/// Create two connected streams: bytes sent on one arrive on the other.
/// Both report peerName() "inproc".
std::pair<std::unique_ptr<Stream>, std::unique_ptr<Stream>> inprocPair();

}  // namespace ninf::transport
