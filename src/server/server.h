// The Ninf computational server.
//
// "The Ninf computational server is a process which services remote
//  computing requests of remote clients by managing the communication and
//  activation of the services requested via Ninf RPC." (section 2.1)
//
// Threading model: ONE epoll reactor thread (see reactor.h) serves every
// connection — accepted from the start()ed listener or handed over with
// adopt() — decodes and admits every call itself, and feeds compute and
// reply marshalling to the fixed pool of `workers` execution threads, so
// the total thread count is O(workers), not O(connections).  A call's
// T_enqueue is its entry into the compute queue: decode is already done.
// workers == 1 is the paper's data-parallel configuration (calls run one
// at a time, each free to use every PE internally); workers == P is the
// task-parallel configuration (up to P calls run concurrently, one PE
// each).
//
// Connections speak protocol v1 (lock-step) by default.  A client that
// opens with Hello is upgraded to v2: replies then leave as jobs finish
// (possibly out of order, correlated by call ID), so one connection
// carries up to `workers` concurrent calls.
//
// The two-phase protocol of section 5.1 is supported: SubmitRequest
// detaches the job from the connection, SubmitAck returns a job id, and
// the client fetches the result later (possibly over a new connection).
// Results nobody fetches are reaped after pending_ttl_seconds.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "common/sync.h"
#include "protocol/call_marshal.h"
#include "protocol/message.h"
#include "server/job_queue.h"
#include "server/metrics.h"
#include "server/reactor.h"
#include "server/registry.h"
#include "server/result_cache.h"
#include "transport/transport.h"

namespace ninf::server {

struct ServerOptions {
  /// Execution threads draining the job queue (see header comment).
  std::size_t workers = 1;
  QueuePolicy policy = QueuePolicy::Fcfs;
  /// Label of this server's queue-depth gauge
  /// (`server.queue.depth.<name>`); auto-generated when empty.
  std::string name = {};
  /// Two-phase results that were never fetched are discarded this many
  /// seconds after completing (<= 0 keeps them forever — the historical
  /// leak, retained only for experiments).
  double pending_ttl_seconds = 300.0;
  /// Reactor admission budget: staged calls in flight (admitted, reply
  /// not yet queued) before the reactor stops reading from connections.
  /// 0 picks max(64, workers * 16).
  std::size_t max_inflight_calls = 0;
  /// Idempotent result cache: total flattened-reply bytes retained for
  /// entries registered with the IDL `Idempotent` clause.  0 disables
  /// retention AND single-flight coalescing entirely.
  std::size_t cache_max_bytes = 64 * 1024 * 1024;
  /// Cached idempotent replies older than this are discarded (<= 0 keeps
  /// them until evicted by cache_max_bytes pressure).
  double cache_ttl_seconds = 300.0;
};

class NinfServer final : private ReactorService {
 public:
  NinfServer(Registry& registry, ServerOptions options = {});
  ~NinfServer();

  NinfServer(const NinfServer&) = delete;
  NinfServer& operator=(const NinfServer&) = delete;

  /// Serve connections accepted from `listener` on the reactor until
  /// stop() (listener ownership is shared with the caller so tests can
  /// read the bound port).  Throws TransportError when the listener has
  /// no native handle.
  void start(std::shared_ptr<transport::Listener> listener);

  /// Serve one already-established connection (e.g. an inprocPair end)
  /// on the reactor; returns at once.  The server owns the stream from
  /// here on and closes it when the peer hangs up or at stop().  Throws
  /// TransportError when the stream has no native handle.
  void adopt(std::unique_ptr<transport::Stream> stream);

  /// Stop accepting, close every connection, drain workers, join all
  /// threads.  Idempotent.
  void stop();

  const ServerMetrics& metrics() const { return metrics_; }

  /// One reply body ready for streamed emission.  `body` may borrow OUT
  /// array memory owned by `keepalive` (the prepared call), so the two
  /// travel together until the send completes.
  struct ReplyPayload {
    xdr::Encoder body;
    std::shared_ptr<void> keepalive;
    /// False when `body` is an error reply (status != 0); error replies
    /// are delivered to in-flight waiters but never retained in the
    /// idempotent result cache.
    bool ok = true;
  };

 private:
  void workerLoop();
  void sweeperLoop();

  bool staged(protocol::MessageType type) const override
      NINF_REACTOR_CONTEXT {
    return type == protocol::MessageType::CallRequest ||
           type == protocol::MessageType::SubmitRequest;
  }
  /// Reactor staged pipeline, stage 1 of 2 (reactor thread): admit a
  /// complete CallRequest/SubmitRequest frame from `conn_id` — cache
  /// lookup, argument decode, then either the inline answer (cache hit,
  /// decode error, SubmitAck) or the compute job push, whose worker runs
  /// stage 2 (compute + reply marshalling, the epilogue).
  common::PooledBuffer stageFrame(std::uint64_t conn_id,
                                  protocol::WireMode mode,
                                  protocol::Frame frame) override
      NINF_REACTOR_CONTEXT;

  /// Compute the reply to a small control message (everything but
  /// CallRequest/SubmitRequest), framing-agnostic.
  Reply controlReply(protocol::MessageType type,
                     std::span<const std::uint8_t> payload) override
      NINF_REACTOR_CONTEXT;

  /// Drop ready-but-unfetched results older than the TTL.
  void sweepPending();
  void updatePendingGauge(std::size_t count);

  struct PendingResult {
    bool ready = false;
    double ready_time = 0.0;  // server-clock seconds when completed
    ReplyPayload reply;
  };

  Registry& registry_;
  ServerOptions options_;
  ServerMetrics metrics_;
  /// Idempotent result cache (null when cache_max_bytes == 0).
  std::unique_ptr<ResultCache> cache_;
  JobQueue queue_;
  std::vector<std::thread> workers_;  // created in ctor, joined in stop()
  std::shared_ptr<transport::Listener> listener_;
  /// Event-driven connection core, created in the ctor.  stop() quiesces
  /// it, but the object lives until destruction so job lambdas still in
  /// workers can safely post (their posts are dropped).
  std::unique_ptr<Reactor> reactor_;
  std::thread sweeper_;
  std::atomic<bool> stopping_{false};
  /// Pairs sweeper_cv_ with the stopping_ flag (no guarded state of its
  /// own): the empty critical section in stop() fences the flag write
  /// against the sweeper's predicate check.
  Mutex sweeper_mutex_{"server.sweeper"};
  CondVar sweeper_cv_;
  std::atomic<std::uint64_t> next_job_id_{1};
  Mutex pending_mutex_{"server.pending"};
  std::map<std::uint64_t, PendingResult> pending_
      NINF_GUARDED_BY(pending_mutex_);
};

}  // namespace ninf::server
