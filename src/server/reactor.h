// Event-driven serving core: a single epoll reactor owning every
// connection fd of one service, feeding a staged execution pipeline.
//
//   ┌─────────── reactor thread (solo) ────────────┐
//   │ epoll_wait → accept / read / write readiness │
//   │ frame reassembly → Hello, Ping / dispatch    │
//   │ stageFrame: inline answer, or staged call    │
//   │   admission (bounded in-flight)              │
//   │ reply write queues → non-blocking writev     │
//   └──────▲───────────────────────────┬───────────┘
//          │ postFinish (eventfd)      │ service's own queue
//   ┌──────┴───────────────────────────▼───────────┐
//   │ the service's workers: whatever may block or │
//   │ compute, replying through postFinish         │
//   └──────────────────────────────────────────────┘
//
// The reactor serves a ReactorService — NinfServer, or the metaserver's
// MetaserverNode — owning the wire (framing, the Hello negotiation,
// admission, writes) and asking the service only what to answer.
//
// The reactor thread is the only thread that touches connection state
// (fds, reassembly buffers, write queues); workers communicate with it
// exclusively through postFinish().  One thread serves every connection,
// so an idle connection costs one epoll registration — no reader
// thread, no writer thread — and thread count is O(workers), not
// O(connections).
//
// Connections arrive two ways: accepted from the listener registered
// with start(), or handed over already established through adopt() (an
// in-process socketpair end, a fault-injecting wrapper).  Both end in
// the same registration; from then on the reactor owns the stream,
// closes it and frees it.  A listener or stream without a pollable
// native handle is rejected with a TransportError.
//
// The service may also dial connections of its own (dial(), on the
// reactor thread): v1 framing, no Hello, and every frame that arrives
// goes to the connection's Outbound handler instead of the service.
// The metaserver node polls its computing servers this way.
//
// Timers: postAt() runs a function on the reactor thread at a deadline;
// epoll_wait sleeps no longer than the earliest one.  The accept backoff
// after fd exhaustion is such a timer.
//
// Backpressure: when the number of staged calls in flight reaches the
// admission budget, the reactor stops reading from connections (their
// EPOLLIN interest is dropped) until completions drain — the kernel
// socket buffers and the peer's congestion window absorb the excess.
//
// v1 clients are served through the same reactor with a per-connection
// serialization fallback: a v1 frame that the service stages marks the
// connection busy and no further frames are parsed until its reply is
// queued, preserving lock-step reply order.  Inline answers are queued
// in frame order as they are produced, so they need no hold.
//
// Linux only (epoll, eventfd).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/buffer_pool.h"
#include "common/sync.h"
#include "obs/metrics.h"
#include "protocol/message.h"
#include "transport/transport.h"
#include "xdr/xdr.h"

namespace ninf::server {

/// What a Reactor serves.  Its methods run on the reactor thread and must
/// not block; a frame whose work may block is staged instead, and runs on
/// the service's workers under an admission slot.  A handler that throws
/// aborts its own connection only.
class ReactorService {
 public:
  /// An inline reply; `body` may borrow memory that `keepalive` owns.
  struct Reply {
    protocol::MessageType type{};
    xdr::Encoder body;
    std::shared_ptr<void> keepalive;
  };

  /// True when frames of `type` go to stageFrame().
  virtual bool staged(protocol::MessageType type) const = 0;
  /// Take one frame of a staged type.  Either answer it at once — return
  /// the reply frame, which the reactor queues; it holds no admission
  /// slot and no v1 hold — or stage it and return an empty buffer: the
  /// call is then in flight until a worker answers it exactly once
  /// through Reactor::postFinish (an empty reply when it failed).  An
  /// inline answer never goes through postFinish.
  virtual common::PooledBuffer stageFrame(std::uint64_t conn_id,
                                          protocol::WireMode mode,
                                          protocol::Frame frame) = 0;
  /// Answer any other frame (the reactor answers Hello and Ping).
  virtual Reply controlReply(protocol::MessageType type,
                             std::span<const std::uint8_t> payload) = 0;

 protected:
  ~ReactorService() = default;
};

class Reactor {
 public:
  /// Constant per service: the feature bits Hello may echo (every
  /// service agrees on up to protocol::kMaxVersion), the metric root
  /// (`<root>.reactor.*`, `<root>.v2_connections`) and the reactor
  /// thread's name (at most 15 characters).
  struct Profile {
    std::uint32_t features = 0;
    std::string_view metrics_root;
    const char* thread_name = "ninf-rx";
  };
  struct Options {
    /// Staged calls in flight (dispatched, reply not yet queued) before
    /// the reactor stops reading from connections.
    std::size_t max_inflight = 256;
  };

  /// Spawns the reactor thread with no connections.  The reactor serves
  /// connections by calling back into `service` on the reactor thread;
  /// the service must outlive the reactor's stop().
  Reactor(ReactorService& service, Profile profile, Options options);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Accept connections from `listener`.  At most one listener per
  /// reactor, which its service enforces.  Throws TransportError
  /// when the listener has no native handle.  Thread-safe.
  void start(std::shared_ptr<transport::Listener> listener);

  /// Serve an established stream: switches it to non-blocking mode and
  /// takes ownership.  Throws TransportError when it has no native
  /// handle or cannot go non-blocking.  Thread-safe; after stop() the
  /// stream is closed unserved.
  void adopt(std::unique_ptr<transport::Stream> stream);

  /// Close every connection, unblock and join the loop thread; further
  /// postFinish() calls are dropped.  Idempotent.
  void stop();

  /// Answer one staged call of `conn_id` from any thread.  On the
  /// reactor thread `reply` is queued (empty = the call failed: close
  /// the connection), the call's admission slot and v1 hold are
  /// released, and paused reads resume.  Dropped when the connection is
  /// gone, and after stop() — a worker finishing during shutdown has
  /// nowhere to send its reply anyway.
  void postFinish(std::uint64_t conn_id, common::PooledBuffer reply);

  using Clock = std::chrono::steady_clock;
  /// Names one postAt() timer.  Timers run in (deadline, post) order.
  struct TimerId {
    Clock::time_point deadline;
    std::uint64_t seq = 0;
    auto operator<=>(const TimerId&) const = default;
  };

  /// Run `fn` on the reactor thread once `deadline` has passed, in
  /// deadline order.  Thread-safe; dropped after stop().
  TimerId postAt(Clock::time_point deadline, std::function<void()> fn);

  // ---- reactor thread only: called from the service's handlers ----

  /// Drop a timer that has not run yet (a no-op once it ran).
  void cancel(const TimerId& id);

  /// What an outbound connection does with what arrives on it; both
  /// get the connection's id.
  struct Outbound {
    /// Each frame that arrives (v1 framing).  Throwing closes the
    /// connection.
    std::function<void(std::uint64_t, protocol::Frame)> on_frame;
    /// The connection is gone — connect failure, EOF, error or close().
    /// Called once, unless the reactor stops first.
    std::function<void(std::uint64_t)> on_close;
  };

  /// Serve `stream` — a transport::tcpConnectNowait() stream whose
  /// connect may still be in progress — as an outbound connection.
  /// Frames queued before the connect settles leave once it does.
  /// Throws TransportError when the stream cannot be registered.
  std::uint64_t dial(std::unique_ptr<transport::Stream> stream,
                     Outbound outbound);

  /// Append one marshalled frame to `conn_id`'s write queue.  The
  /// actual writev is deferred to the end of the current loop iteration
  /// so every frame queued in one wakeup burst leaves in a single
  /// coalesced sendvNowait (bounded by common::batchLimits()).  Unknown
  /// ids (connection died) are dropped.  Not part of staged-call
  /// bookkeeping.
  void queueFrame(std::uint64_t conn_id, common::PooledBuffer frame);

  /// Close `conn_id` now; it is freed (and an outbound connection's
  /// on_close runs) before this loop iteration ends.
  void close(std::uint64_t conn_id);

  /// postFinish() for a caller already on the reactor thread: a timer or
  /// an Outbound handler.  Never from inside stageFrame() — answer
  /// inline there instead.
  void finishStagedCall(std::uint64_t conn_id, common::PooledBuffer reply);

 private:
  /// Hand a task to the solo stage: `fn` runs on the reactor thread in
  /// post order.  Thread-safe; the wakeup is coalesced (one eventfd
  /// write per burst).  Dropped silently after stop().
  void postSolo(std::function<void()> fn);

  /// One queued reply frame.  `off` is the flushed prefix: a short
  /// sendvNowait advances it in place, so a retry resumes exactly where
  /// the kernel stopped — a slow reader sees each byte once even when a
  /// flush concatenates many frames.
  struct OutBuf {
    common::PooledBuffer bytes;
    std::size_t off = 0;
  };

  /// Per-connection state; touched only by the reactor thread.
  struct Conn {
    std::uint64_t id = 0;
    std::unique_ptr<transport::Stream> stream;
    int fd = -1;
    protocol::FrameAssembler assembler;
    protocol::WireMode mode = protocol::WireMode::V1;
    std::deque<OutBuf> writeq;
    /// Staged calls dispatched but not yet replied.
    std::size_t staged_inflight = 0;
    /// v1 lock-step serialization: a staged v1 call is in flight, stop
    /// parsing frames until its reply is queued.
    bool v1_busy = false;
    /// EPOLLIN interest dropped for admission backpressure.
    bool paused = false;
    bool want_write = false;  // EPOLLOUT armed
    bool read_open = true;    // peer's send side still delivering
    bool dead = false;        // write side failed: drop everything
    /// Queued replies await the end-of-iteration coalesced flush.
    bool flush_queued = false;
    /// Set on connections from dial(): frames go here, not to the
    /// service.
    std::unique_ptr<Outbound> outbound;
    /// dial() in progress: writes wait until the connect settles.
    bool connecting = false;
  };

  // The event loop and everything it calls run on the reactor thread;
  // NINF_REACTOR_CONTEXT marks the roots ninf-tidy walks the call
  // graph from (lambdas posted through postSolo are picked up
  // automatically).
  void loop() NINF_REACTOR_CONTEXT;
  /// Registration, reached through postSolo from start()/adopt().
  void listen(std::shared_ptr<transport::Listener> listener)
      NINF_REACTOR_CONTEXT;
  /// Register a connection; returns its id, or 0 when epoll refused it.
  std::uint64_t addConn(std::unique_ptr<transport::Stream> stream,
                        std::unique_ptr<Outbound> outbound = nullptr)
      NINF_REACTOR_CONTEXT;
  void watchListener();
  void handleAccept() NINF_REACTOR_CONTEXT;
  void handleConnEvent(Conn& conn, std::uint32_t events)
      NINF_REACTOR_CONTEXT;
  void readReadable(Conn& conn);
  void processFrames(Conn& conn);
  /// Hand an outbound connection's frames to its handler.
  void deliverFrames(Conn& conn);
  void dispatchFrame(Conn& conn, protocol::Frame frame)
      NINF_REACTOR_CONTEXT;
  void handleHello(Conn& conn, const protocol::Frame& frame);
  void flushConn(Conn& conn);
  void markFlush(Conn& conn);
  /// Flush every connection marked by queueReply this iteration (runs
  /// after the final drainSolo, before the next epoll_wait).
  void flushPending() NINF_REACTOR_CONTEXT;
  void updateEpoll(Conn& conn);
  void pauseReading(Conn& conn);
  void resumeReads();
  /// Destroy now or mark for destruction once in-flight work drains.
  void maybeDestroy(std::uint64_t conn_id);
  void destroyConn(std::uint64_t conn_id);
  void killConn(Conn& conn);  // write/read failure: close + drop queues
  void drainSolo() NINF_REACTOR_CONTEXT;
  /// Run every timer whose deadline has passed.
  void runTimers() NINF_REACTOR_CONTEXT;
  /// epoll_wait timeout: until the earliest timer, or -1 for none.
  int timerTimeoutMs() const;

  /// The reactor's instruments, named under the service's metric root.
  struct Metrics {
    explicit Metrics(const std::string& root);
    obs::Counter& wakeups;
    obs::Counter& v2_connections;
    obs::Counter& flushes;
    obs::Counter& frames;
    obs::Histogram& frames_per_writev;
    obs::Gauge& solo_depth;
    obs::Gauge& epilogue_depth;
    obs::Gauge& peak_frame_bytes;
    obs::Gauge& fds;
  };

  ReactorService& service_;
  const Profile profile_;
  const Metrics metrics_;
  const Options options_;
  std::shared_ptr<transport::Listener> listener_;  // null until listen()

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  bool accept_registered_ = false;
  /// stop() asked the loop to exit (reactor-thread flag, set via a solo
  /// task so it is observed at a frame boundary).
  bool exit_requested_ = false;
  /// Pending postAt() timers; touched only by the reactor thread.
  std::map<TimerId, std::function<void()>> timers_;
  std::atomic<std::uint64_t> next_timer_{1};

  std::map<std::uint64_t, Conn> conns_;
  /// Connections with replies queued since the last flushPending().
  std::vector<std::uint64_t> flush_pending_;
  std::uint64_t next_conn_id_ = 2;  // 0 = listener, 1 = wakeup
  /// Total staged calls in flight across live connections (admission).
  std::size_t staged_total_ = 0;
  /// Marshalled reply buffers queued but not fully written (epilogue
  /// backlog, mirrored in <root>.reactor.stage_depth.epilogue).
  std::size_t epilogue_depth_ = 0;

  /// Hand-off queue from workers to the solo stage.  Leaf lock: nothing
  /// else is ever acquired while holding it.
  mutable Mutex solo_mutex_{"server.reactor.solo"};
  std::deque<std::function<void()>> solo_queue_ NINF_GUARDED_BY(solo_mutex_);
  bool stopped_ NINF_GUARDED_BY(solo_mutex_) = false;

  std::thread thread_;
};

}  // namespace ninf::server
