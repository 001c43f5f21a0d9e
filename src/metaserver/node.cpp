#include "metaserver/node.h"

#include <algorithm>
#include <chrono>

#include "common/error.h"
#include "common/log.h"
#include "obs/metrics.h"
#include "protocol/message.h"
#include "xdr/xdr.h"

namespace ninf::metaserver {

using protocol::MessageType;

namespace {

/// Schedule-pool size.  A ScheduleQuery blocks only on status polls, and
/// each server's poll_mutex already serialises polls to that server, so
/// workers beyond a shard's server count only queue on the poll mutexes;
/// four covers the small per-shard slices the ring hands out.
constexpr std::size_t kScheduleWorkers = 4;

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A reply carrying one encoded wire struct.
template <typename Msg>
server::ReactorService::Reply encoded(MessageType type, const Msg& msg) {
  xdr::Encoder enc;
  msg.encode(enc);
  return {type, std::move(enc), nullptr};
}

}  // namespace

MetaserverNode::MetaserverNode(NodeOptions opts)
    : opts_(std::move(opts)), dir_(opts_.policy), ownership_(opts_.ring),
      primary_(opts_.primary), epoch_(1) {
  NINF_REQUIRE(opts_.policy != SchedulingPolicy::BandwidthAware,
               "bandwidth-aware scheduling is in-process only");
  NINF_REQUIRE(!ownership_.empty(), "node needs a ring descriptor");
  NINF_REQUIRE(ownership_.shard(opts_.shard_id) != nullptr,
               "node's shard id missing from the ring");
  dir_.setStatusFreshness(opts_.status_freshness);
  dir_.setPollTimeout(opts_.poll_timeout);
  if (opts_.resolver) dir_.setResolver(opts_.resolver);
  epoch_.store(ownership_.shard(opts_.shard_id)->epoch,
               std::memory_order_release);
}

MetaserverNode::~MetaserverNode() { stop(); }

void MetaserverNode::serve(std::shared_ptr<transport::Listener> listener) {
  NINF_REQUIRE(listener != nullptr, "null listener");
  NINF_REQUIRE(!listener_, "node already serving");
  listener_ = std::move(listener);

  if (primary_.load(std::memory_order_acquire) && opts_.backup_factory) {
    ReplicationOptions ropts;
    ropts.heartbeat_interval_s = opts_.heartbeat_interval_s;
    repl_ = std::make_unique<ReplicationLink>(opts_.backup_factory, ropts);
    repl_->start(
        epoch_.load(std::memory_order_acquire),
        [this] { return dir_.livenessDigest(); },
        [this](std::uint64_t observed) {
          seen_epoch_.store(observed, std::memory_order_release);
          fenced_.store(true, std::memory_order_release);
          NINF_LOG(Warn) << "shard " << opts_.shard_id
                         << " primary fenced at epoch " << observed;
        });
  }
  if (!primary_.load(std::memory_order_acquire)) {
    last_heartbeat_.store(nowSeconds(), std::memory_order_release);
    watchdog_ = std::thread([this] { watchdogLoop(); });
  }

  schedule_pool_ = std::make_unique<ThreadPool>(kScheduleWorkers);
  // v2 with the sharding bit only (no trace context on the control
  // plane); metrics under metaserver.reactor.*.
  reactor_ = std::make_unique<server::Reactor>(
      static_cast<ReactorService&>(*this),
      server::Reactor::Profile{protocol::kFeatureSharding, "metaserver"},
      server::Reactor::Options{});
  reactor_->start(listener_);
}

void MetaserverNode::stop() {
  if (stopping_.exchange(true)) return;
  if (listener_) listener_->close();
  // Reactor before pool: no new query is staged once the loop exits, and
  // replies of queries still polling are dropped by the stopped reactor.
  if (reactor_) reactor_->stop();
  if (schedule_pool_) schedule_pool_->drain();
  if (watchdog_.joinable()) watchdog_.join();
  if (repl_) repl_->stop();
}

protocol::RingDescriptor MetaserverNode::ringView() const {
  protocol::RingDescriptor view = opts_.ring;
  for (auto& s : view.shards) {
    if (s.id != opts_.shard_id) continue;
    s.epoch = epoch_.load(std::memory_order_acquire);
    // A promoted backup claims the primary slot; a fenced ex-primary
    // keeps its (stale, lower-epoch) claim, which loses every merge.
    if (primary_.load(std::memory_order_acquire) &&
        !fenced_.load(std::memory_order_acquire) &&
        !opts_.self_endpoint.empty()) {
      s.primary_endpoint = opts_.self_endpoint;
    }
  }
  view.ring_epoch = HashRing::epochOf(view);
  return view;
}

void MetaserverNode::watchdogLoop() {
  const double budget =
      static_cast<double>(opts_.heartbeat_miss_budget) *
      opts_.heartbeat_interval_s;
  const auto tick =
      std::chrono::duration<double>(opts_.heartbeat_interval_s / 4.0);
  while (!stopping_.load()) {
    std::this_thread::sleep_for(tick);
    if (stopping_.load()) return;
    if (primary_.load(std::memory_order_acquire)) return;  // already serving
    const double silence =
        nowSeconds() - last_heartbeat_.load(std::memory_order_acquire);
    if (silence > budget) {
      promote();
      return;
    }
  }
}

void MetaserverNode::promote() {
  const std::uint64_t base =
      std::max(seen_epoch_.load(std::memory_order_acquire),
               epoch_.load(std::memory_order_acquire));
  epoch_.store(base + 1, std::memory_order_release);
  primary_.store(true, std::memory_order_release);
  static obs::Counter& promotions =
      obs::counter("metaserver.replication.promotions");
  promotions.add();
  NINF_LOG(Info) << "shard " << opts_.shard_id
                 << " backup promoted to primary at epoch " << base + 1;
}

common::PooledBuffer MetaserverNode::stageFrame(std::uint64_t conn_id,
                                                protocol::WireMode mode,
                                                protocol::Frame frame) {
  // std::function must be copyable; the frame's slab is move-only.
  auto f = std::make_shared<protocol::Frame>(std::move(frame));
  schedule_pool_->submit([this, conn_id, mode, f] {
    // Empty = the query failed: the reactor still frees the admission
    // slot (and a v1 client's hold), and closes the connection.
    common::PooledBuffer wire;
    try {
      const Reply reply = scheduleReply(f->body.span());
      wire = protocol::flattenFramePooled(mode, reply.type, f->header.call_id,
                                          f->header.trace, reply.body);
    } catch (const std::exception& e) {
      NINF_LOG(Warn) << "node schedule query aborted: " << e.what();
    }
    reactor_->postFinish(conn_id, std::move(wire));
  });
  return {};  // always staged: the query may wait on status polls
}

MetaserverNode::Reply MetaserverNode::controlReply(
    MessageType type, std::span<const std::uint8_t> payload) {
  switch (type) {
    case MessageType::RingQuery:
      return encoded(MessageType::RingInfo, ringView());
    case MessageType::RegisterServer:
    case MessageType::DeregisterServer:
      return registryReply(payload);
    case MessageType::ReplAppend:
      return replAppendReply(payload);
    case MessageType::ReplHeartbeat:
      return replHeartbeatReply(payload);
    default:
      throw ProtocolError("metaserver node got message type " +
                          std::to_string(static_cast<std::uint32_t>(type)));
  }
}

MetaserverNode::Reply MetaserverNode::wrongShard(
    const std::string& entry, std::uint32_t owner,
    protocol::RedirectReason reason) const {
  static obs::Counter& redirects = obs::counter("metaserver.shard.redirects");
  redirects.add();
  protocol::RedirectInfo info;
  info.entry = entry;
  info.owner_shard = owner;
  info.ring_epoch = HashRing::epochOf(ringView());
  info.reason = reason;
  return encoded(MessageType::WrongShard, info);
}

MetaserverNode::Reply MetaserverNode::scheduleReply(
    std::span<const std::uint8_t> payload) {
  xdr::Decoder dec(payload);
  const protocol::ScheduleRequest req = protocol::ScheduleRequest::decode(dec);
  const std::uint32_t owner = ownership_.ownerOf(req.entry);
  if (owner != opts_.shard_id) {
    return wrongShard(req.entry, owner, protocol::RedirectReason::NotOwner);
  }
  if (!primary_.load(std::memory_order_acquire) ||
      fenced_.load(std::memory_order_acquire)) {
    return wrongShard(req.entry, opts_.shard_id,
                      protocol::RedirectReason::NotPrimary);
  }
  static obs::Counter& queries = obs::counter("metaserver.shard.queries");
  queries.add();

  // Failed servers reported by the client start their cooldown here, so
  // the knowledge outlives this one query and shields other clients.
  for (const auto& name : req.excluded) {
    dir_.noteFailure(name, opts_.cooldown_seconds);
  }

  protocol::ScheduleChoice choice;
  choice.shard_epoch = epoch_.load(std::memory_order_acquire);
  try {
    const auto candidates = dir_.snapshot(req.entry, {}, req.excluded);
    const Target target =
        dir_.acquireTarget(dir_.pick(req.entry, candidates, req.excluded));
    choice.server_name = target.name;
    choice.endpoint = target.endpoint;
  } catch (const NotFoundError&) {
    // Empty server_name = "no reachable candidate" (an empty registry
    // included); the client raises the typed NotFoundError on its side.
  }
  return encoded(MessageType::ScheduleReply, choice);
}

MetaserverNode::Reply MetaserverNode::registryReply(
    std::span<const std::uint8_t> payload) {
  xdr::Decoder dec(payload);
  protocol::RegistryOp op = protocol::RegistryOp::decode(dec);
  // Every entry the server exports must belong to this shard; an empty
  // list (exports everything) is acceptable on any shard.
  for (const auto& entry : op.desc.entries) {
    const std::uint32_t owner = ownership_.ownerOf(entry);
    if (owner != opts_.shard_id) {
      return wrongShard(entry, owner, protocol::RedirectReason::NotOwner);
    }
  }
  if (!primary_.load(std::memory_order_acquire)) {
    // A live backup: the shard is fine, the client just picked the wrong
    // role.
    return wrongShard(
        op.desc.entries.empty() ? op.desc.name : op.desc.entries.front(),
        opts_.shard_id, protocol::RedirectReason::NotPrimary);
  }
  protocol::RegisterResult result;
  result.shard_epoch = epoch_.load(std::memory_order_acquire);
  try {
    // A fenced primary's link is fenced first (the fence callback runs
    // after it), so append() refuses the write before it is queued.
    op.seq = repl_ ? repl_->append(op)
                   : local_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
    result.status = dir_.apply(op);
    result.seq = op.seq;
  } catch (const FencedError&) {
    static obs::Counter& fenced_writes =
        obs::counter("metaserver.replication.fenced_writes");
    fenced_writes.add();
    result.status = protocol::RegisterResult::Status::Fenced;
  }
  return encoded(MessageType::RegisterAck, result);
}

bool MetaserverNode::acceptReplicated(std::uint64_t sender_epoch,
                                      protocol::ReplAckMsg& ack) {
  const std::uint64_t mine = epoch_.load(std::memory_order_acquire);
  const bool primary = primary_.load(std::memory_order_acquire);
  if (sender_epoch < mine || (primary && sender_epoch <= mine)) {
    // The sender is a deposed primary: refuse, and tell it our epoch so
    // it fences itself.
    ack.status = protocol::ReplAckMsg::Status::StaleEpoch;
    ack.shard_epoch = mine;
    return false;
  }
  epoch_.store(sender_epoch, std::memory_order_release);
  seen_epoch_.store(sender_epoch, std::memory_order_release);
  last_heartbeat_.store(nowSeconds(), std::memory_order_release);
  ack.status = protocol::ReplAckMsg::Status::Ok;
  ack.shard_epoch = sender_epoch;
  return true;
}

MetaserverNode::Reply MetaserverNode::replAppendReply(
    std::span<const std::uint8_t> payload) {
  xdr::Decoder dec(payload);
  const protocol::ReplAppendMsg msg = protocol::ReplAppendMsg::decode(dec);
  protocol::ReplAckMsg ack;
  if (acceptReplicated(msg.shard_epoch, ack)) {
    ack.seq = msg.op.seq;
    try {
      dir_.apply(msg.op);
    } catch (const std::exception& e) {
      // Replay divergence (e.g. no resolver): log loudly but keep the
      // stream alive — dropping it would only re-deliver the same op.
      NINF_LOG(Warn) << "replicated op " << msg.op.seq
                     << " failed to apply: " << e.what();
    }
  }
  return encoded(MessageType::ReplAck, ack);
}

MetaserverNode::Reply MetaserverNode::replHeartbeatReply(
    std::span<const std::uint8_t> payload) {
  xdr::Decoder dec(payload);
  const protocol::ReplHeartbeatMsg msg =
      protocol::ReplHeartbeatMsg::decode(dec);
  protocol::ReplAckMsg ack;
  if (acceptReplicated(msg.shard_epoch, ack)) {
    ack.seq = msg.last_seq;
    dir_.adoptLiveness(msg.liveness);
  }
  return encoded(MessageType::ReplAck, ack);
}

}  // namespace ninf::metaserver
