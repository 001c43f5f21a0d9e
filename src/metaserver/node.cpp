#include "metaserver/node.h"

#include <algorithm>
#include <chrono>

#include "common/error.h"
#include "common/log.h"
#include "common/thread_name.h"
#include "obs/metrics.h"
#include "protocol/message.h"
#include "transport/tcp_transport.h"
#include "xdr/xdr.h"

namespace ninf::metaserver {

using protocol::MessageType;

namespace {

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

  // v2 with the sharding bit only (no trace context on the control
  // plane); metrics under metaserver.reactor.*.
  reactor_ = std::make_unique<server::Reactor>(
      static_cast<ReactorService&>(*this),
      server::Reactor::Profile{protocol::kFeatureSharding, "metaserver",
                               "ninf-meta-rx"},
      server::Reactor::Options{});
  reactor_->start(listener_);
}

void MetaserverNode::stop() {
  if (stopping_.exchange(true)) return;
  if (listener_) listener_->close();
  if (reactor_) reactor_->stop();
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
  nameThisThread("ninf-watchdog");
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
  xdr::Decoder dec(frame.body.span());
  auto d = std::make_shared<Decision>();
  d->req = protocol::ScheduleRequest::decode(dec);
  auto inline_answer = [&](const Reply& reply) {
    return protocol::flattenFramePooled(mode, reply.type, frame.header.call_id,
                                        frame.header.trace, reply.body);
  };
  const std::uint32_t owner = ownership_.ownerOf(d->req.entry);
  if (owner != opts_.shard_id) {
    return inline_answer(
        wrongShard(d->req.entry, owner, protocol::RedirectReason::NotOwner));
  }
  if (!primary_.load(std::memory_order_acquire) ||
      fenced_.load(std::memory_order_acquire)) {
    return inline_answer(wrongShard(d->req.entry, opts_.shard_id,
                                    protocol::RedirectReason::NotPrimary));
  }
  static obs::Counter& queries = obs::counter("metaserver.shard.queries");
  queries.add();

  // Failed servers reported by the client start their cooldown here, so
  // the knowledge outlives this one query and shields other clients.
  for (const auto& name : d->req.excluded) {
    dir_.noteFailure(name, opts_.cooldown_seconds);
  }
  d->conn_id = conn_id;
  d->mode = mode;
  d->call_id = frame.header.call_id;
  d->trace = frame.header.trace;
  for (const auto& state : dir_.pollsNeeded(d->req.excluded)) {
    if (joinPoll(state, d)) ++d->polls_left;
  }
  if (d->polls_left == 0) return inline_answer(choose(d->req));
  return {};  // staged: endPoll answers once the last poll has ended
}

bool MetaserverNode::joinPoll(const std::shared_ptr<ServerState>& state,
                              const DecisionPtr& d) {
  const auto link = links_.try_emplace(state->entry.endpoint).first;
  link->second.state = state;
  if (link->second.in_flight) {
    // It started before this decision arrived: wait for the next one.
    link->second.next.push_back(d);
    return true;
  }
  if (!startPoll(link)) return false;
  link->second.riding.push_back(d);
  return true;
}

bool MetaserverNode::startPoll(Links::iterator link) {
  StatusLink& l = link->second;
  const std::string& endpoint = link->first;
  try {
    if (l.conn == 0) l.conn = dialStatus(endpoint);
  } catch (const std::exception& e) {
    NINF_LOG(Debug) << "status poll of " << endpoint << ": " << e.what();
    LocalDirectory::recordUnreachable(*l.state);
    return false;
  }
  reactor_->queueFrame(
      l.conn, protocol::frameFromPayload(protocol::WireMode::V1,
                                         MessageType::ServerStatus, 0, {},
                                         {}));
  l.in_flight = true;
  if (opts_.poll_timeout > 0) {
    l.deadline = reactor_->postAt(
        server::Reactor::Clock::now() +
            std::chrono::duration_cast<server::Reactor::Clock::duration>(
                std::chrono::duration<double>(opts_.poll_timeout)),
        [this, endpoint] { onPollTimeout(endpoint); });
  }
  return true;
}

std::uint64_t MetaserverNode::dialStatus(const std::string& endpoint) {
  const auto colon = endpoint.rfind(':');
  if (colon == std::string::npos) {
    throw TransportError("endpoint '" + endpoint + "' is not host:port");
  }
  const int port = std::stoi(endpoint.substr(colon + 1));
  if (port <= 0 || port > 65535) {
    throw TransportError("endpoint '" + endpoint + "' has no valid port");
  }
  return reactor_->dial(
      transport::tcpConnectNowait(endpoint.substr(0, colon),
                                  static_cast<std::uint16_t>(port)),
      {[this, endpoint](std::uint64_t conn, protocol::Frame frame) {
         onStatusFrame(endpoint, conn, frame);
       },
       [this, endpoint](std::uint64_t conn) {
         onStatusClosed(endpoint, conn);
       }});
}

void MetaserverNode::onStatusFrame(const std::string& endpoint,
                                   std::uint64_t conn,
                                   const protocol::Frame& frame) {
  const auto link = links_.find(endpoint);
  if (link == links_.end() || link->second.conn != conn ||
      !link->second.in_flight) {
    throw ProtocolError("unsolicited frame from " + endpoint);
  }
  if (frame.header.type != MessageType::StatusReply) {
    throw ProtocolError("status poll of " + endpoint + " got message type " +
                        std::to_string(static_cast<std::uint32_t>(
                            frame.header.type)));
  }
  // Throwing (a reply that does not decode) closes the connection, and
  // onStatusClosed ends the poll as failed.
  const auto status = protocol::ServerStatusInfo::fromBytes(frame.body.span());
  endPoll(link, &status);
}

void MetaserverNode::onStatusClosed(const std::string& endpoint,
                                    std::uint64_t conn) {
  const auto link = links_.find(endpoint);
  if (link == links_.end() || link->second.conn != conn) return;  // stale
  link->second.conn = 0;  // dialed again by the next poll
  if (link->second.in_flight) endPoll(link, nullptr);
}

void MetaserverNode::onPollTimeout(const std::string& endpoint) {
  const auto link = links_.find(endpoint);
  if (link == links_.end() || !link->second.in_flight) return;
  static obs::Counter& timeouts =
      obs::counter("metaserver.status_poll_timeouts");
  timeouts.add();
  // A late answer must not be read as the next poll's: drop the
  // connection (its close is now stale) and dial afresh.
  reactor_->close(link->second.conn);
  link->second.conn = 0;
  endPoll(link, nullptr);
}

void MetaserverNode::endPoll(Links::iterator link,
                             const protocol::ServerStatusInfo* status) {
  StatusLink& l = link->second;
  reactor_->cancel(l.deadline);
  l.in_flight = false;
  if (status != nullptr) {
    LocalDirectory::recordStatus(*l.state, *status);
  } else {
    LocalDirectory::recordUnreachable(*l.state);
  }
  std::vector<DecisionPtr> ended;
  ended.swap(l.riding);
  if (!l.next.empty()) {
    if (startPoll(link)) {
      l.riding.swap(l.next);
    } else {
      ended.insert(ended.end(), l.next.begin(), l.next.end());
      l.next.clear();
    }
  }
  // Answering may stage new queries on this thread, which can add or
  // drop links: `link` is not touched past this point.
  for (const DecisionPtr& d : ended) {
    if (--d->polls_left == 0) decide(*d);
  }
}

void MetaserverNode::dropLink(const std::string& endpoint) {
  const auto link = links_.find(endpoint);
  // A link with a poll in flight stays until a re-registration reuses it
  // or its server closes it.
  if (link == links_.end() || link->second.in_flight) return;
  if (link->second.conn != 0) reactor_->close(link->second.conn);
  links_.erase(link);
}

void MetaserverNode::decide(const Decision& d) {
  // Empty = the decision failed: the reactor still frees the admission
  // slot (and a v1 client's hold), and closes the connection.
  common::PooledBuffer wire;
  try {
    const Reply reply = choose(d.req);
    wire = protocol::flattenFramePooled(d.mode, reply.type, d.call_id,
                                        d.trace, reply.body);
  } catch (const std::exception& e) {
    NINF_LOG(Warn) << "node schedule query aborted: " << e.what();
  }
  reactor_->finishStagedCall(d.conn_id, std::move(wire));
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

MetaserverNode::Reply MetaserverNode::choose(
    const protocol::ScheduleRequest& req) {
  protocol::ScheduleChoice choice;
  choice.shard_epoch = epoch_.load(std::memory_order_acquire);
  try {
    const auto candidates = dir_.cachedCandidates(req.entry, req.excluded);
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
    if (op.kind == protocol::RegistryOp::Kind::Deregister &&
        result.status == protocol::RegisterResult::Status::Applied) {
      dropLink(op.desc.endpoint);
    }
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
