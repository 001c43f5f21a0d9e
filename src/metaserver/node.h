// One metaserver node: a wire service wrapping a LocalDirectory with the
// sharded control plane.
//
// A deployment runs N shards, each a primary node plus (optionally) a
// backup.  The namespace is partitioned by the consistent-hash ring
// (ring.h): a node answers ScheduleQuery/RegisterServer only for entries
// its shard owns and redirects everything else with WrongShard, carrying
// its current ring view's epoch so the client knows whether its cached
// ring is stale.
//
// Serving: a node is a service of the epoll reactor (server/reactor.h)
// that negotiates v2 like a computing server and echoes only the
// kFeatureSharding bit, so one client connection multiplexes concurrent
// queries (v1 peers still get lock-step).  Every message is handled on
// the reactor thread; nothing there blocks (replication only queues).
//
// ScheduleQuery, the control plane: the node decodes the query and asks
// the directory which candidates need a fresh status
// (LocalDirectory::pollsNeeded).  With none, it picks and answers at
// once.  Otherwise it sends ServerStatus to each of them at once, over
// one status connection per registered endpoint that the reactor dials
// and owns (v1 framing, no Hello), and answers when the last of those
// polls has ended.  Polls are single-flight per server: a poll in
// flight is shared by every decision that arrived before it started;
// a decision that arrives while it is in flight waits for the next one,
// which starts when it ends.  So status_freshness 0 still means a status
// taken after the decision arrived — the paper's poll-per-decision
// model — while a burst of decisions costs each server one poll.  A
// reactor timer bounds each poll at poll_timeout: a server that has not
// answered by then is unreachable for that round, and its connection is
// dropped and dialed again for the next poll.
//
// Roles and fencing:
//  * primary  — serves schedules and registrations, ships every registry
//               op and a periodic liveness heartbeat to its backup
//               (replication.h).
//  * backup   — applies the replicated stream, answers ScheduleQuery /
//               registrations with redirects, and watches the heartbeat:
//               after heartbeat_miss_budget missed intervals it promotes
//               itself — role flips to primary, the shard epoch bumps —
//               and starts serving from the adopted registry + liveness.
//  * fenced   — a deposed primary: its replication link drew a
//               StaleEpoch ack (the promoted backup's epoch outranks
//               its own).  It refuses registrations (Fenced) and
//               redirects schedules (NotPrimary) so no write can land on
//               the losing side of the split.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "metaserver/directory.h"
#include "metaserver/replication.h"
#include "metaserver/ring.h"
#include "server/reactor.h"
#include "transport/transport.h"

namespace ninf::metaserver {

struct NodeOptions {
  std::uint32_t shard_id = 0;
  /// Starting role.
  bool primary = true;
  /// Node-side scheduling policy.  BandwidthAware needs the call's
  /// argument values, which ScheduleQuery does not carry — only the
  /// oblivious and load-based policies are servable over the wire.
  SchedulingPolicy policy = SchedulingPolicy::LeastLoad;
  /// Directory tuning (see LocalDirectory).  freshness 0 polls every
  /// decision — the NetSolve-style model the paper measures.
  double status_freshness = 0.0;
  double poll_timeout = 1.0;
  double cooldown_seconds = 2.0;
  /// Replication cadence and the backup's patience: a backup promotes
  /// after heartbeat_miss_budget * heartbeat_interval_s of silence.
  double heartbeat_interval_s = 0.05;
  std::size_t heartbeat_miss_budget = 4;
  /// Reconstructs compute-server connection factories from replicated
  /// endpoints: LocalDirectory::apply() needs one to register a server.
  /// The node never calls the factories it returns — it polls over
  /// connections its reactor dials, and clients dial their own.
  FactoryResolver resolver;
  /// Connects to this shard's backup node (null = unreplicated shard).
  client::ConnectionFactory backup_factory;
  /// This node's own advertised endpoint (what its ring view reports).
  std::string self_endpoint;
  /// Static shard membership (ids + configured endpoints).  Ownership
  /// derives from the id set alone, so every node may hold the same
  /// descriptor; per-shard epochs are patched in dynamically.
  protocol::RingDescriptor ring;
};

class MetaserverNode final : private server::ReactorService {
 public:
  explicit MetaserverNode(NodeOptions opts);
  ~MetaserverNode();

  MetaserverNode(const MetaserverNode&) = delete;
  MetaserverNode& operator=(const MetaserverNode&) = delete;

  /// Serve connections accepted from `listener` on the node's reactor
  /// until stop().  Also starts replication (primary with a backup
  /// factory) or the promotion watchdog (backup).
  void serve(std::shared_ptr<transport::Listener> listener);

  /// Stop the reactor (closing every connection and dropping schedule
  /// queries still waiting on polls), join threads.  Idempotent.
  /// A stopped node is indistinguishable from a crashed one to clients
  /// — the failover tests kill primaries exactly this way.
  void stop();

  LocalDirectory& directory() { return dir_; }
  bool isPrimary() const { return primary_.load(std::memory_order_acquire); }
  bool isFenced() const { return fenced_.load(std::memory_order_acquire); }
  std::uint64_t shardEpoch() const {
    return epoch_.load(std::memory_order_acquire);
  }
  std::uint32_t shardId() const { return opts_.shard_id; }

  /// Current ring view: the configured membership with this node's own
  /// shard patched to its live epoch and role.
  protocol::RingDescriptor ringView() const;

  /// The replication link (nullptr on unreplicated shards and backups);
  /// exposed so chaos tests can pause it to simulate a partition.
  ReplicationLink* replication() { return repl_.get(); }

 private:
  bool staged(protocol::MessageType type) const override
      NINF_REACTOR_CONTEXT {
    return type == protocol::MessageType::ScheduleQuery;
  }
  common::PooledBuffer stageFrame(std::uint64_t conn_id,
                                  protocol::WireMode mode,
                                  protocol::Frame frame) override
      NINF_REACTOR_CONTEXT;
  Reply controlReply(protocol::MessageType type,
                     std::span<const std::uint8_t> payload) override
      NINF_REACTOR_CONTEXT;

  /// One ScheduleQuery waiting for status polls.
  struct Decision {
    std::uint64_t conn_id = 0;
    protocol::WireMode mode{};
    std::uint64_t call_id = 0;
    protocol::WireTraceContext trace;
    protocol::ScheduleRequest req;
    /// Polls still to end before the decision can pick.
    std::size_t polls_left = 0;
  };
  using DecisionPtr = std::shared_ptr<Decision>;

  /// The status connection to one registered endpoint and its
  /// single-flight poll.
  struct StatusLink {
    /// Reactor connection id; 0 = not dialed.
    std::uint64_t conn = 0;
    /// The server polled: the latest state registered at the endpoint.
    std::shared_ptr<ServerState> state;
    bool in_flight = false;
    /// Bounds the poll in flight at poll_timeout.
    server::Reactor::TimerId deadline;
    /// Decisions sharing the poll in flight.
    std::vector<DecisionPtr> riding;
    /// Decisions that arrived after it started: they share the next.
    std::vector<DecisionPtr> next;
  };
  using Links = std::map<std::string, StatusLink>;  // by endpoint

  /// The pick over the cached statuses, as a ScheduleReply.
  Reply choose(const protocol::ScheduleRequest& req);
  /// Count `d` on the poll of `state` its arrival calls for.  False when
  /// no poll could start (the server is recorded unreachable).
  bool joinPoll(const std::shared_ptr<ServerState>& state,
                const DecisionPtr& d);
  /// Send ServerStatus on `link` (dialing first if needed) and arm its
  /// timer.  False when the endpoint cannot be dialed.
  bool startPoll(Links::iterator link);
  std::uint64_t dialStatus(const std::string& endpoint);
  /// The poll on `link` ended: `status` is its answer, or null when it
  /// failed.  Starts the next poll, then answers every decision whose
  /// last poll this was.
  void endPoll(Links::iterator link, const protocol::ServerStatusInfo* status)
      NINF_REACTOR_CONTEXT;
  void onStatusFrame(const std::string& endpoint, std::uint64_t conn,
                     const protocol::Frame& frame) NINF_REACTOR_CONTEXT;
  void onStatusClosed(const std::string& endpoint, std::uint64_t conn)
      NINF_REACTOR_CONTEXT;
  void onPollTimeout(const std::string& endpoint) NINF_REACTOR_CONTEXT;
  /// A Deregister was applied: drop the endpoint's idle status link.
  void dropLink(const std::string& endpoint);
  /// Answer a decision whose polls have all ended.
  void decide(const Decision& d);

  Reply registryReply(std::span<const std::uint8_t> payload);
  Reply replAppendReply(std::span<const std::uint8_t> payload);
  Reply replHeartbeatReply(std::span<const std::uint8_t> payload);
  /// Epoch gate of both replication frames: false (a StaleEpoch ack) for
  /// a deposed primary, else adopt its epoch and note the heartbeat.
  bool acceptReplicated(std::uint64_t sender_epoch,
                        protocol::ReplAckMsg& ack);
  Reply wrongShard(const std::string& entry, std::uint32_t owner,
                   protocol::RedirectReason reason) const;
  void watchdogLoop();
  void promote();

  NodeOptions opts_;
  LocalDirectory dir_;
  HashRing ownership_;  // built once from opts_.ring; ids never change

  std::atomic<bool> primary_;
  std::atomic<bool> fenced_{false};
  std::atomic<std::uint64_t> epoch_;
  /// Highest primary epoch seen on the replicated stream (backup side).
  std::atomic<std::uint64_t> seen_epoch_{0};
  /// Last heartbeat arrival, steady seconds (backup side).
  std::atomic<double> last_heartbeat_{0.0};
  /// Local op log cursor on unreplicated shards (the link owns it
  /// otherwise).
  std::atomic<std::uint64_t> local_seq_{0};

  std::unique_ptr<ReplicationLink> repl_;

  std::shared_ptr<transport::Listener> listener_;
  std::atomic<bool> stopping_{false};
  std::thread watchdog_;
  /// Created by serve().
  std::unique_ptr<server::Reactor> reactor_;
  /// Touched only on the reactor thread.
  Links links_;
};

}  // namespace ninf::metaserver
