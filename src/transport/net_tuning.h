// Shared listener tuning knobs.
//
// One definition for the two accept paths, so they cannot drift apart:
// the reactor's tryAccept(), which every NinfServer and metaserver node
// accepts on, and the blocking TcpListener::accept(), which has test
// callers only.
#pragma once

#include <sys/socket.h>

namespace ninf::transport {

/// Kernel pending-connection queue requested by listeners when the
/// caller does not pick one (TcpListener's `backlog <= 0`).  A flash
/// crowd fills a short backlog long before the server is the
/// bottleneck, and the kernel then drops SYNs; default to the system
/// maximum rather than the historical 64.
inline constexpr int kListenBacklogDefault = SOMAXCONN;

/// Pause after descriptor/buffer exhaustion (EMFILE/ENFILE/ENOBUFS/
/// ENOMEM) before trying to accept again, seconds.  Used by both the
/// blocking accept() (test callers only) and the reactor's re-arm timer
/// so the two accept paths shed load at the same rate; the pending
/// connection stays in the kernel backlog meanwhile.
inline constexpr double kAcceptBackoffSeconds = 0.05;

/// Poll timeout of the blocking accept() path (test callers only) when
/// the socket has been switched to non-blocking by a tryAccept()
/// caller, milliseconds: park on readiness, then re-check for close().
inline constexpr int kAcceptPollMs = 1000;

}  // namespace ninf::transport
