// The metaserver directory layer: registry storage, the liveness cache,
// and candidate picking, extracted from the monolithic Metaserver so the
// dispatch logic no longer owns any server state.
//
// Layering (see docs/ARCHITECTURE.md, "Metaserver layering"):
//
//   failover loop (metaserver.h)                     — stateless policy:
//        │ Router: Metaserver's in-process router,     exclusion, backoff,
//        │ or ShardedMetaserver's ScheduleQuery to     deadline
//        │ the MetaserverNode owning the entry
//        ▼
//   LocalDirectory                                   — server table,
//        │                                              status cache,
//        ▼                                              policy selection
//   replication (log shipping), ring (sharding)      — scale-out
//
// Callers name a server by its ServerState or by its name, never by its
// position in the table: a concurrent Deregister shifts positions.
//
// A scheduling decision is three steps that do no I/O — which servers
// need a poll (pollsNeeded), record each poll's outcome (recordStatus /
// recordUnreachable), then the candidates from the cache
// (cachedCandidates) — around polls the caller makes however it likes.
// The metaserver node sends them on its reactor (node.h); snapshot()
// makes them blocking, one after another, for the in-process Metaserver.
// The freshness and reachability rules live in these steps only.
//
// Two write paths feed a LocalDirectory:
//  * addServer(): the historical in-process path — caller supplies a
//    live connection factory directly.
//  * apply(RegistryOp): the replicatable path — ops are declarative
//    (protocol::WireServerDesc), idempotent on (endpoint, reg_epoch),
//    and factories are reconstructed through a FactoryResolver, so the
//    same op stream replayed on a backup reproduces the same table.
//
// Idempotency contract (the fix for double-counted retries): a client
// retrying a timed-out register re-sends the identical (endpoint,
// reg_epoch) pair; the directory remembers the last applied key per
// endpoint — including tombstones for deregistered ones — and answers
// Duplicate instead of growing the candidate list a second time.  The
// replication log depends on this: the backup replays whatever the
// primary acked, duplicates and all.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "client/dispatcher.h"
#include "common/sync.h"
#include "protocol/message.h"
#include "protocol/meta_wire.h"

namespace ninf::metaserver {

enum class SchedulingPolicy { RoundRobin, LeastLoad, BandwidthAware };

const char* schedulingPolicyName(SchedulingPolicy p);

/// Static description of one computing server known to the metaserver.
struct ServerEntry {
  std::string name;
  client::ConnectionFactory factory;
  /// Declared client->server throughput, bytes/second (from Table 2-style
  /// measurements or the registry).
  double bandwidth_bps = 1e6;
  /// Declared peak compute rate, flops (P_calc in section 3.1).
  double perf_flops = 1e8;
  /// Resolvable address, carried through replication (empty for purely
  /// in-process entries added via addServer).
  std::string endpoint;
  /// Entry names this server exports; empty = everything.
  std::vector<std::string> entries;
};

/// Pure scoring helper, exposed for unit tests: expected completion time
/// of a job of `bytes` transfer and `flops` compute on a server with
/// `queue_depth` jobs ahead of it.
double estimateCompletion(double bytes, double flops, double bandwidth_bps,
                          double perf_flops, double queue_depth);

/// One registered server: its static entry plus the liveness cache.
/// Held by shared_ptr: snapshot()/poll()/acquireTarget() keep using a
/// state after a concurrent Deregister erased it from the table.
struct ServerState {
  /// Immutable: a re-registration replaces the whole state.
  ServerEntry entry;
  /// Registration epoch of the op that produced this entry (0 for
  /// addServer) — half of the idempotency key.
  std::uint64_t reg_epoch = 0;
  /// Serializes network I/O on `monitor`.  Never nested inside any
  /// other directory lock.
  Mutex poll_mutex{"directory.poll"};
  /// Lazy blocking status channel of poll() and snapshot(), touched only
  /// while polling.  The node never opens it: it polls on its reactor.
  std::unique_ptr<client::NinfClient> monitor NINF_GUARDED_BY(poll_mutex);
  /// Cached poll results live under a per-state mutex (not the global
  /// table lock), so reading one server's cache never serializes
  /// against dispatches scanning the table.  Lock order: the global
  /// mutex_ may be held while taking this one, never the reverse.
  mutable Mutex mutex{"directory.server"};
  protocol::ServerStatusInfo last_status NINF_GUARDED_BY(mutex);
  /// Steady seconds; 0 = never polled.
  double last_status_time NINF_GUARDED_BY(mutex) = 0.0;
  bool reachable NINF_GUARDED_BY(mutex) = false;
  /// Until this instant the server is shunned after a failed dispatch.
  std::chrono::steady_clock::time_point cooldown_until
      NINF_GUARDED_BY(mutex){};
};

/// One scheduling-round view of a server, from cachedCandidates() (or
/// snapshot()).
struct Candidate {
  std::shared_ptr<ServerState> state;
  bool reachable = false;
  bool exports = true;  // entry known to this server (BandwidthAware)
  double bytes = 0.0;   // wire bytes of this call (BandwidthAware)
  double flops = 0.0;   // flop estimate of this call (BandwidthAware)
  protocol::ServerStatusInfo status;
};

/// Everything a dispatcher needs to reach one picked server.
struct Target {
  std::string name;
  std::string endpoint;
  client::ConnectionFactory factory;
  /// Last polled load average (for the observed-load histogram).
  double observed_load = 0.0;
};

/// Reconstructs a connection factory from a replicated endpoint string.
/// Must be thread-safe; called while applying ops and after promotions.
using FactoryResolver =
    std::function<client::ConnectionFactory(const std::string& endpoint)>;

/// The concrete directory: server table + liveness cache + policies.
/// Thread-safe; see the lock comments on each member.
class LocalDirectory {
 public:
  explicit LocalDirectory(SchedulingPolicy policy = SchedulingPolicy::LeastLoad)
      : policy_(policy) {}

  // ---- tuning (set before concurrent use) ----
  void setStatusFreshness(double seconds) { status_freshness_ = seconds; }
  double statusFreshness() const { return status_freshness_; }
  void setPollTimeout(double seconds) { poll_timeout_ = seconds; }
  double pollTimeout() const { return poll_timeout_; }
  /// Installs the endpoint->factory resolver used by apply().
  void setResolver(FactoryResolver resolver) {
    resolver_ = std::move(resolver);
  }

  // ---- registry storage ----
  /// Direct in-process registration (duplicate names rejected).
  void addServer(ServerEntry entry);
  /// Apply one replicatable op, idempotent on (endpoint, reg_epoch).
  /// Register ops need a resolver (or an endpoint-free factory already
  /// present); Deregister of an unknown endpoint is a Duplicate, not an
  /// error — a retried dereg whose first try won must succeed quietly.
  protocol::RegisterResult::Status apply(const protocol::RegistryOp& op);
  std::vector<std::string> serverNames() const;

  // ---- liveness ----
  /// Poll a server's status (monitoring loop body).  Always does the
  /// wire round-trip; the result refreshes the scheduling cache.
  protocol::ServerStatusInfo poll(const std::string& server_name);
  /// Last polled status of a server (all-zero before the first poll).
  protocol::ServerStatusInfo lastStatus(const std::string& server_name) const;
  /// Export the soft liveness state (replication heartbeat payload).
  std::vector<protocol::LivenessRecord> livenessDigest() const;
  /// Adopt a replicated liveness digest (backup side): a promoted backup
  /// starts scheduling from the primary's last view instead of polling
  /// the world cold.  Unknown server names are ignored.
  void adoptLiveness(const std::vector<protocol::LivenessRecord>& digest);

  // ---- scheduling: the steps, snapshot, pick, acquireTarget ----
  SchedulingPolicy policy() const { return policy_; }
  std::size_t serverCount() const;

  /// Servers a decision must poll before it picks: every one not named
  /// in `excluded` whose cached status is missing, unreachable or older
  /// than the freshness window (all of them at freshness 0).  Empty for
  /// RoundRobin, which polls nothing.
  std::vector<std::shared_ptr<ServerState>> pollsNeeded(
      const std::vector<std::string>& excluded) const;
  /// A poll of `state` answered: cache the status, mark it reachable.
  static void recordStatus(ServerState& state,
                           const protocol::ServerStatusInfo& status);
  /// A poll of `state` failed or timed out: unreachable until a poll
  /// answers again.
  static void recordUnreachable(ServerState& state);
  /// What the policies decide over, read from the cache alone: every
  /// server not named in `excluded`, with its last status and
  /// reachability.  Empty for RoundRobin.
  std::vector<Candidate> cachedCandidates(
      const std::string& entry_name,
      const std::vector<std::string>& excluded) const;

  /// The three steps with blocking polls in between, each bounded by
  /// the poll timeout: poll what pollsNeeded() names, then read the
  /// candidates; BandwidthAware also asks each reachable server for the
  /// entry's interface to size the call.  All network I/O happens here,
  /// under per-server poll mutexes.
  std::vector<Candidate> snapshot(const std::string& entry_name,
                                  std::span<const protocol::ArgValue> args,
                                  const std::vector<std::string>& excluded);

  /// Policy selection over a snapshot, with cooling servers shunned
  /// while any other candidate remains.  Never returns a server whose
  /// Deregister was applied before the pick.  Throws NotFoundError when
  /// no candidate is eligible, an empty table included.
  std::shared_ptr<ServerState> pick(const std::string& entry_name,
                                    const std::vector<Candidate>& candidates,
                                    const std::vector<std::string>& excluded);

  /// Connection info of a picked server.
  Target acquireTarget(const std::shared_ptr<ServerState>& picked);

  /// A dispatch through server `server_name` failed: start its cooldown
  /// window so a flapping server is not immediately re-picked (0
  /// disables).  Unknown names are ignored.
  void noteFailure(const std::string& server_name, double cooldown_seconds);

 private:
  /// The raw policy switch, honoring only the explicit exclusions.
  std::shared_ptr<ServerState> pickAmong(
      const std::string& entry_name, const std::vector<Candidate>& candidates,
      const std::vector<std::string>& excluded) NINF_REQUIRES(mutex_);
  /// Table mutation for apply(); counters are bumped by the caller
  /// after the lock drops.
  protocol::RegisterResult::Status applyLocked(
      const protocol::RegistryOp& op) NINF_REQUIRES(mutex_);
  client::NinfClient& monitorOf(ServerState& state)
      NINF_REQUIRES(state.poll_mutex);
  /// One blocking status poll over `state.monitor`, recorded.
  protocol::ServerStatusInfo pollState(ServerState& state);
  std::shared_ptr<ServerState> findByName(const std::string& name) const;
  /// Every state in table order, copied under the table lock.
  std::vector<std::shared_ptr<ServerState>> states() const;
  std::size_t indexOfEndpoint(const std::string& endpoint) const
      NINF_REQUIRES(mutex_);

  SchedulingPolicy policy_;
  double status_freshness_ = 0.25;
  double poll_timeout_ = 1.0;
  FactoryResolver resolver_;  // immutable once serving
  /// Guards the server table itself, the round-robin cursor, and the
  /// applied-op tombstones; cached per-server state lives under each
  /// ServerState's own mutex.
  mutable Mutex mutex_{"directory.global"};
  std::vector<std::shared_ptr<ServerState>> servers_ NINF_GUARDED_BY(mutex_);
  /// Round-robin position: a cursor over the table, not an identity.
  std::size_t rr_next_ NINF_GUARDED_BY(mutex_) = 0;
  /// Last applied (reg_epoch, kind) per endpoint — kept for endpoints
  /// whose server was deregistered too, so stale retries of either op
  /// stay idempotent after the table entry is gone.
  struct AppliedKey {
    std::uint64_t reg_epoch = 0;
    protocol::RegistryOp::Kind kind = protocol::RegistryOp::Kind::Register;
  };
  std::map<std::string, AppliedKey> applied_ NINF_GUARDED_BY(mutex_);
};

}  // namespace ninf::metaserver
