#include "metaserver/directory.h"

#include <algorithm>
#include <limits>

#include "common/error.h"
#include "common/log.h"
#include "obs/metrics.h"

namespace ninf::metaserver {

namespace {

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool named(const std::vector<std::string>& names, const std::string& name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

}  // namespace

const char* schedulingPolicyName(SchedulingPolicy p) {
  switch (p) {
    case SchedulingPolicy::RoundRobin: return "round-robin";
    case SchedulingPolicy::LeastLoad: return "least-load";
    case SchedulingPolicy::BandwidthAware: return "bandwidth-aware";
  }
  return "?";
}

double estimateCompletion(double bytes, double flops, double bandwidth_bps,
                          double perf_flops, double queue_depth) {
  NINF_REQUIRE(bandwidth_bps > 0 && perf_flops > 0,
               "server capacities must be positive");
  const double comm = bytes / bandwidth_bps;
  const double comp = flops / perf_flops;
  // Jobs already queued or running delay ours by roughly one compute time
  // each (they contend for the PEs, not for our network path).
  return comm + comp * (1.0 + queue_depth);
}

void LocalDirectory::addServer(ServerEntry entry) {
  NINF_REQUIRE(entry.factory != nullptr, "server entry needs a factory");
  NINF_REQUIRE(!entry.name.empty(), "server entry needs a name");
  LockGuard lock(mutex_);
  for (const auto& s : servers_) {
    NINF_REQUIRE(s->entry.name != entry.name, "duplicate server name");
  }
  auto state = std::make_shared<ServerState>();
  state->entry = std::move(entry);
  servers_.push_back(std::move(state));
}

std::size_t LocalDirectory::indexOfEndpoint(const std::string& endpoint) const {
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    if (servers_[i]->entry.endpoint == endpoint) return i;
  }
  return servers_.size();
}

protocol::RegisterResult::Status LocalDirectory::apply(
    const protocol::RegistryOp& op) {
  using Kind = protocol::RegistryOp::Kind;
  using Status = protocol::RegisterResult::Status;
  NINF_REQUIRE(!op.desc.endpoint.empty(), "registry op needs an endpoint");

  Status st;
  {
    LockGuard lock(mutex_);
    st = applyLocked(op);
  }
  // Shard counters are bumped after the directory lock drops: apply()
  // sits on the replication fan-in path and the obs registry must not
  // serialize it.
  if (st == Status::Applied) {
    if (op.kind == Kind::Deregister) {
      static obs::Counter& deregs =
          obs::counter("metaserver.shard.deregistrations");
      deregs.add();
    } else {
      static obs::Counter& regs =
          obs::counter("metaserver.shard.registrations");
      regs.add();
    }
  }
  return st;
}

protocol::RegisterResult::Status LocalDirectory::applyLocked(
    const protocol::RegistryOp& op) {
  using Kind = protocol::RegistryOp::Kind;
  using Status = protocol::RegisterResult::Status;
  // Idempotency: the identical key applied before answers Duplicate
  // without touching the table.  A register retried after a newer op on
  // the same endpoint (re-register or dereg with a higher epoch) is a
  // stale straggler and must also be a no-op.
  auto applied = applied_.find(op.desc.endpoint);
  if (applied != applied_.end()) {
    if (applied->second.reg_epoch == op.reg_epoch &&
        applied->second.kind == op.kind) {
      return Status::Duplicate;
    }
    if (applied->second.reg_epoch > op.reg_epoch) return Status::Duplicate;
  }

  const std::size_t existing = indexOfEndpoint(op.desc.endpoint);
  if (op.kind == Kind::Deregister) {
    if (existing < servers_.size()) {
      servers_.erase(servers_.begin() +
                     static_cast<std::ptrdiff_t>(existing));
      if (rr_next_ > existing) --rr_next_;
    }
    applied_[op.desc.endpoint] = {op.reg_epoch, op.kind};
    return Status::Applied;
  }

  ServerEntry entry;
  entry.name = op.desc.name;
  entry.endpoint = op.desc.endpoint;
  entry.bandwidth_bps = op.desc.bandwidth_bps;
  entry.perf_flops = op.desc.perf_flops;
  entry.entries = op.desc.entries;
  NINF_REQUIRE(resolver_ != nullptr,
               "registering by endpoint needs a FactoryResolver");
  entry.factory = resolver_(op.desc.endpoint);
  NINF_REQUIRE(entry.factory != nullptr, "resolver produced no factory");

  auto state = std::make_shared<ServerState>();
  state->entry = std::move(entry);
  state->reg_epoch = op.reg_epoch;
  if (existing < servers_.size()) {
    // Re-registration (newer epoch): a new incarnation replaces the
    // state in its slot, so the candidate list never holds the same
    // endpoint twice and readers still holding the old state never see
    // its entry change.  It starts unpolled, like a fresh registration.
    servers_[existing] = std::move(state);
  } else {
    for (const auto& s : servers_) {
      if (s->entry.name == state->entry.name) {
        throw Error("server name '" + state->entry.name +
                    "' already registered under endpoint " +
                    s->entry.endpoint);
      }
    }
    servers_.push_back(std::move(state));
  }
  applied_[op.desc.endpoint] = {op.reg_epoch, op.kind};
  return Status::Applied;
}

std::size_t LocalDirectory::serverCount() const {
  LockGuard lock(mutex_);
  return servers_.size();
}

std::vector<std::string> LocalDirectory::serverNames() const {
  LockGuard lock(mutex_);
  std::vector<std::string> names;
  names.reserve(servers_.size());
  for (const auto& s : servers_) names.push_back(s->entry.name);
  return names;
}

client::NinfClient& LocalDirectory::monitorOf(ServerState& state) {
  if (!state.monitor) state.monitor = state.entry.factory();
  return *state.monitor;
}

std::shared_ptr<ServerState> LocalDirectory::findByName(
    const std::string& name) const {
  LockGuard lock(mutex_);
  for (const auto& s : servers_) {
    if (s->entry.name == name) return s;
  }
  return nullptr;
}

std::vector<std::shared_ptr<ServerState>> LocalDirectory::states() const {
  LockGuard lock(mutex_);
  return servers_;
}

protocol::ServerStatusInfo LocalDirectory::poll(
    const std::string& server_name) {
  const auto state = findByName(server_name);
  if (!state) throw NotFoundError("server '" + server_name + "'");
  return pollState(*state);
}

protocol::ServerStatusInfo LocalDirectory::pollState(ServerState& state) {
  // Wire I/O under the per-server poll mutex only, bounded by the poll
  // timeout: a dead or slow server must not hold up the scheduling table.
  protocol::ServerStatusInfo status;
  try {
    LockGuard poll_lock(state.poll_mutex);
    try {
      status = monitorOf(state).serverStatus(poll_timeout_);
    } catch (const Error&) {
      state.monitor.reset();  // reconnect on the next poll
      throw;
    }
  } catch (const Error&) {
    recordUnreachable(state);
    throw;
  }
  recordStatus(state, status);
  return status;
}

void LocalDirectory::recordStatus(ServerState& state,
                                  const protocol::ServerStatusInfo& status) {
  LockGuard cache(state.mutex);
  state.last_status = status;
  state.last_status_time = nowSeconds();
  state.reachable = true;
}

void LocalDirectory::recordUnreachable(ServerState& state) {
  LockGuard cache(state.mutex);
  state.reachable = false;
}

protocol::ServerStatusInfo LocalDirectory::lastStatus(
    const std::string& server_name) const {
  const auto state = findByName(server_name);
  if (!state) throw NotFoundError("server '" + server_name + "'");
  LockGuard cache(state->mutex);
  return state->last_status;
}

std::vector<protocol::LivenessRecord> LocalDirectory::livenessDigest() const {
  const auto table = states();
  std::vector<protocol::LivenessRecord> out;
  out.reserve(table.size());
  for (const auto& st : table) {
    protocol::LivenessRecord rec;
    LockGuard cache(st->mutex);
    rec.server_name = st->entry.name;
    rec.reachable = st->reachable ? 1 : 0;
    rec.running = st->last_status.running;
    rec.queued = st->last_status.queued;
    rec.load_average = st->last_status.load_average;
    out.push_back(std::move(rec));
  }
  return out;
}

void LocalDirectory::adoptLiveness(
    const std::vector<protocol::LivenessRecord>& digest) {
  for (const auto& rec : digest) {
    const auto state = findByName(rec.server_name);
    if (!state) continue;
    LockGuard cache(state->mutex);
    state->reachable = rec.reachable != 0;
    state->last_status.running = rec.running;
    state->last_status.queued = rec.queued;
    state->last_status.load_average = rec.load_average;
    if (state->reachable) state->last_status_time = nowSeconds();
  }
}

std::vector<std::shared_ptr<ServerState>> LocalDirectory::pollsNeeded(
    const std::vector<std::string>& excluded) const {
  // RoundRobin is oblivious: no polling at all.
  if (policy_ == SchedulingPolicy::RoundRobin) return {};
  const double now = nowSeconds();
  std::vector<std::shared_ptr<ServerState>> out;
  for (auto& state : states()) {
    // Excluded: never picked, so don't poll it either.
    if (named(excluded, state->entry.name)) continue;
    bool fresh = false;
    {
      LockGuard cache(state->mutex);
      fresh = status_freshness_ > 0 && state->reachable &&
              state->last_status_time > 0 &&
              now - state->last_status_time <= status_freshness_;
    }
    if (!fresh) out.push_back(std::move(state));
  }
  return out;
}

std::vector<Candidate> LocalDirectory::cachedCandidates(
    const std::string& entry_name,
    const std::vector<std::string>& excluded) const {
  if (policy_ == SchedulingPolicy::RoundRobin) return {};
  std::vector<Candidate> out;
  for (auto& state : states()) {
    if (named(excluded, state->entry.name)) continue;
    Candidate c;
    // A declared entry list prunes without any wire I/O.
    const auto& entries = state->entry.entries;
    c.exports = entries.empty() || named(entries, entry_name);
    {
      LockGuard cache(state->mutex);
      c.reachable = state->reachable;
      c.status = state->last_status;
    }
    c.state = std::move(state);
    out.push_back(std::move(c));
  }
  return out;
}

std::vector<Candidate> LocalDirectory::snapshot(
    const std::string& entry_name, std::span<const protocol::ArgValue> args,
    const std::vector<std::string>& excluded) {
  // Each poll is bounded by the poll timeout, so one stalled server
  // delays a dispatch (and any dispatcher queued on its poll mutex) by a
  // bounded amount, and is simply unreachable for this round.
  for (const auto& state : pollsNeeded(excluded)) {
    try {
      pollState(*state);
    } catch (const Error&) {
      // Recorded as unreachable.
    }
  }
  std::vector<Candidate> out = cachedCandidates(entry_name, excluded);
  if (policy_ != SchedulingPolicy::BandwidthAware) return out;
  for (auto& c : out) {
    if (!c.reachable || !c.exports) continue;
    ServerState& st = *c.state;
    try {
      LockGuard poll_lock(st.poll_mutex);
      try {
        // The interface query rides the monitor connection; the client
        // caches it, so repeat decisions cost no extra I/O.
        const auto& info = monitorOf(st).queryInterface(entry_name,
                                                        poll_timeout_);
        const auto scalars = protocol::scalarArgs(info, args);
        c.bytes = static_cast<double>(info.bytesTotal(scalars));
        c.flops = static_cast<double>(info.flopsEstimate(scalars));
      } catch (const NotFoundError&) {
        c.exports = false;  // reachable, but no such entry there
      } catch (const Error&) {
        st.monitor.reset();  // status channel died; reconnect next time
        throw;
      }
    } catch (const Error&) {
      c.reachable = false;
      recordUnreachable(st);
    }
  }
  return out;
}

std::shared_ptr<ServerState> LocalDirectory::pick(
    const std::string& entry_name, const std::vector<Candidate>& candidates,
    const std::vector<std::string>& excluded) {
  bool skipped_cooling = false;
  std::shared_ptr<ServerState> picked;
  {
    LockGuard lock(mutex_);
    // A server inside its post-failure cooldown window is shunned like
    // an excluded one — but only while some other candidate remains, so
    // a fully-cooling pool degrades to "try anyway" instead of failing.
    const auto now = std::chrono::steady_clock::now();
    std::vector<std::string> shunned = excluded;
    bool any_open = false;  // a server neither excluded nor cooling
    for (const auto& s : servers_) {
      if (named(excluded, s->entry.name)) continue;
      LockGuard cache(s->mutex);
      if (s->cooldown_until > now) {
        shunned.push_back(s->entry.name);
      } else {
        any_open = true;
      }
    }
    if (shunned.size() > excluded.size() && any_open) {
      try {
        picked = pickAmong(entry_name, candidates, shunned);
        skipped_cooling = true;
      } catch (const NotFoundError&) {
        // Every non-cooling candidate was unreachable or lacks the
        // entry; fall through and consider the cooling servers too.
      }
    }
    if (!skipped_cooling) {
      picked = pickAmong(entry_name, candidates, excluded);
    }
  }
  if (skipped_cooling) {
    static obs::Counter& cooldown_skips =
        obs::counter("metaserver.cooldown_skips");
    cooldown_skips.add();
  }
  return picked;
}

std::shared_ptr<ServerState> LocalDirectory::pickAmong(
    const std::string& entry_name, const std::vector<Candidate>& candidates,
    const std::vector<std::string>& excluded) {
  // Not a precondition: a Deregister may empty the table between a
  // caller's serverCount() and this pick.
  if (servers_.empty()) {
    throw NotFoundError("no server registered for '" + entry_name + "'");
  }
  // A candidate deregistered since its snapshot is no longer eligible:
  // the pick must not name a server whose removal was already applied.
  auto eligible = [&](const Candidate& c) {
    return c.reachable && c.exports && !named(excluded, c.state->entry.name) &&
           std::find(servers_.begin(), servers_.end(), c.state) !=
               servers_.end();
  };
  if (policy_ == SchedulingPolicy::RoundRobin) {
    // A declared entry list excludes a server from this entry's
    // candidates even for the polling-free RoundRobin policy.
    for (std::size_t step = 0; step < servers_.size(); ++step) {
      const auto& s = servers_[rr_next_ % servers_.size()];
      rr_next_ = (rr_next_ + 1) % servers_.size();
      const auto& entries = s->entry.entries;
      if (!named(excluded, s->entry.name) &&
          (entries.empty() || named(entries, entry_name))) {
        return s;
      }
    }
    throw NotFoundError("every server excluded for '" + entry_name + "'");
  }
  // LeastLoad and BandwidthAware: the eligible candidate scoring lowest.
  const bool least_load = policy_ == SchedulingPolicy::LeastLoad;
  const Candidate* best = nullptr;
  double best_score = std::numeric_limits<double>::infinity();
  for (const auto& c : candidates) {
    if (!eligible(c)) continue;
    // Jobs the server reported running or queued at its last poll.  The
    // score reads only that status, so decisions that share one poll
    // see the same numbers (calls routed since are not counted).
    const double queued =
        static_cast<double>(c.status.running + c.status.queued);
    const double score =
        least_load ? c.status.load_average + queued
                   : estimateCompletion(c.bytes, c.flops,
                                        c.state->entry.bandwidth_bps,
                                        c.state->entry.perf_flops, queued);
    if (score < best_score) {
      best_score = score;
      best = &c;
    }
  }
  if (best == nullptr) {
    throw NotFoundError((least_load ? "no reachable server for '"
                                    : "no server exports '") +
                        entry_name + "'");
  }
  return best->state;
}

Target LocalDirectory::acquireTarget(
    const std::shared_ptr<ServerState>& picked) {
  // entry is immutable and the caller's reference keeps the state alive,
  // so this needs no global lock.
  Target target;
  target.name = picked->entry.name;
  target.endpoint = picked->entry.endpoint;
  target.factory = picked->entry.factory;
  LockGuard cache(picked->mutex);
  target.observed_load = picked->last_status.load_average;
  return target;
}

void LocalDirectory::noteFailure(const std::string& server_name,
                                 double cooldown_seconds) {
  if (cooldown_seconds <= 0) return;
  const auto state = findByName(server_name);
  if (!state) return;
  LockGuard cache(state->mutex);
  state->cooldown_until =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(cooldown_seconds));
}

}  // namespace ninf::metaserver
