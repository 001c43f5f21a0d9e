// Failover suite for the sharded metaserver control plane.
//
// A live cluster per test: N shards, each a primary MetaserverNode and a
// backup joined by log-shipping replication, plus real computing servers
// and a ShardedMetaserver client routing over the consistent-hash ring.
//
// The invariants, asserted under seeded kill schedules:
//  * every dispatch completes correctly or throws a typed ninf::Error
//    within its deadline — killing a shard primary mid-storm never hangs
//    or corrupts a call;
//  * the backup promotes within its heartbeat miss budget and the shard
//    epoch advances, and clients reach it over their one shared
//    connection per node while the fenced primary serves nothing;
//  * a deposed primary fences itself on the first StaleEpoch ack and
//    refuses registrations from then on;
//  * registration is idempotent on (endpoint, reg_epoch) — retries and
//    replayed log entries never double-register a server.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "client/client.h"
#include "common/error.h"
#include "common/rng.h"
#include "metaserver/metaserver.h"
#include "metaserver/node.h"
#include "metaserver/sharded.h"
#include "numlib/ep.h"
#include "obs/metrics.h"
#include "server/server.h"
#include "transport/tcp_transport.h"

namespace ninf {
namespace {

using client::CallOptions;
using client::NinfClient;
using metaserver::MetaserverNode;
using metaserver::NodeOptions;
using metaserver::ShardedMetaserver;
using metaserver::ShardedOptions;
using protocol::ArgValue;

constexpr double kHeartbeat = 0.02;
constexpr std::size_t kMissBudget = 3;
/// Promotion must land within the miss budget; the assertion allows a
/// generous CI-noise multiple of it.
constexpr double kPromotionBound = 1.0;
constexpr double kDeadlineSeconds = 5.0;
constexpr double kHangBound = 30.0;

std::string endpointOf(std::uint16_t port) {
  return "127.0.0.1:" + std::to_string(port);
}

std::unique_ptr<NinfClient> dialEndpoint(const std::string& endpoint) {
  const auto colon = endpoint.rfind(':');
  NINF_REQUIRE(colon != std::string::npos, "endpoint must be host:port");
  return NinfClient::connectTcp(
      endpoint.substr(0, colon),
      static_cast<std::uint16_t>(std::stoi(endpoint.substr(colon + 1))),
      2.0);
}

double secondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Spin until `pred` holds; false when `bound` seconds elapse first.
template <typename Pred>
bool eventually(double bound, Pred&& pred) {
  const auto start = std::chrono::steady_clock::now();
  while (!pred()) {
    if (secondsSince(start) > bound) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// One shard's pair of nodes plus their listeners.
struct ShardNodes {
  std::unique_ptr<MetaserverNode> primary;
  std::unique_ptr<MetaserverNode> backup;
  std::string primary_endpoint;
  std::string backup_endpoint;
};

/// A live N-shard metaserver cluster with real computing servers.
class ShardCluster {
 public:
  explicit ShardCluster(std::size_t shard_count,
                        std::size_t server_count = 2,
                        std::size_t server_workers = 2) {
    // Listeners first: the ring descriptor needs every port up front.
    std::vector<std::shared_ptr<transport::TcpListener>> plisten, blisten;
    protocol::RingDescriptor ring;
    for (std::size_t i = 0; i < shard_count; ++i) {
      plisten.push_back(std::make_shared<transport::TcpListener>(0));
      blisten.push_back(std::make_shared<transport::TcpListener>(0));
      protocol::ShardInfo info;
      info.id = static_cast<std::uint32_t>(i);
      info.epoch = 1;
      info.primary_endpoint = endpointOf(plisten.back()->port());
      info.backup_endpoint = endpointOf(blisten.back()->port());
      ring.shards.push_back(info);
    }
    const metaserver::FactoryResolver resolver =
        [](const std::string& endpoint) {
          return client::ConnectionFactory(
              [endpoint] { return dialEndpoint(endpoint); });
        };
    for (std::size_t i = 0; i < shard_count; ++i) {
      ShardNodes shard;
      shard.primary_endpoint = ring.shards[i].primary_endpoint;
      shard.backup_endpoint = ring.shards[i].backup_endpoint;

      NodeOptions popts;
      popts.shard_id = static_cast<std::uint32_t>(i);
      popts.primary = true;
      popts.status_freshness = 0.05;
      popts.cooldown_seconds = 0.1;
      popts.heartbeat_interval_s = kHeartbeat;
      popts.heartbeat_miss_budget = kMissBudget;
      popts.resolver = resolver;
      const std::string backup_ep = shard.backup_endpoint;
      popts.backup_factory = [backup_ep] { return dialEndpoint(backup_ep); };
      popts.self_endpoint = shard.primary_endpoint;
      popts.ring = ring;
      shard.primary = std::make_unique<MetaserverNode>(std::move(popts));
      shard.primary->serve(plisten[i]);

      NodeOptions bopts;
      bopts.shard_id = static_cast<std::uint32_t>(i);
      bopts.primary = false;
      bopts.status_freshness = 0.05;
      bopts.cooldown_seconds = 0.1;
      bopts.heartbeat_interval_s = kHeartbeat;
      bopts.heartbeat_miss_budget = kMissBudget;
      bopts.resolver = resolver;
      bopts.self_endpoint = shard.backup_endpoint;
      bopts.ring = ring;
      shard.backup = std::make_unique<MetaserverNode>(std::move(bopts));
      shard.backup->serve(blisten[i]);

      shards_.push_back(std::move(shard));
    }

    for (std::size_t i = 0; i < server_count; ++i) {
      auto registry = std::make_unique<server::Registry>();
      server::registerStandardExecutables(*registry);
      auto srv = std::make_unique<server::NinfServer>(
          *registry, server::ServerOptions{.workers = server_workers});
      auto listener = std::make_shared<transport::TcpListener>(0);
      server_endpoints_.push_back(endpointOf(listener->port()));
      srv->start(listener);
      registries_.push_back(std::move(registry));
      servers_.push_back(std::move(srv));
    }
  }

  ~ShardCluster() {
    for (auto& s : shards_) {
      s.primary->stop();
      s.backup->stop();
    }
    for (auto& s : servers_) s->stop();
  }

  ShardedMetaserver makeClient(
      metaserver::EndpointDialer server_dialer = dialEndpoint) {
    ShardedOptions opts;
    for (const auto& s : shards_) {
      opts.seeds.push_back(s.primary_endpoint);
      opts.seeds.push_back(s.backup_endpoint);
    }
    opts.node_dialer = dialEndpoint;
    opts.server_dialer = std::move(server_dialer);
    opts.retry_backoff = 0.005;
    return ShardedMetaserver(std::move(opts));
  }

  /// Register every computing server for `entry` (routes to its owning
  /// shard) and wait for the backup to catch up over replication.
  void registerServersFor(ShardedMetaserver& client, const std::string& entry) {
    for (std::size_t i = 0; i < servers_.size(); ++i) {
      protocol::WireServerDesc desc;
      desc.name = "server-" + std::to_string(i);
      desc.endpoint = server_endpoints_[i];
      desc.entries = {entry};
      const auto results = client.registerServer(desc, 1, kDeadlineSeconds);
      ASSERT_EQ(results.size(), 1u);
      ASSERT_EQ(results[0].status, protocol::RegisterResult::Status::Applied);
    }
    const std::uint32_t owner = client.ownerOf(entry);
    ASSERT_TRUE(eventually(kDeadlineSeconds, [&] {
      return shards_[owner].backup->directory().serverCount() ==
             servers_.size();
    })) << "replication never caught the backup up";
  }

  std::vector<ShardNodes> shards_;
  std::vector<std::unique_ptr<server::Registry>> registries_;
  std::vector<std::unique_ptr<server::NinfServer>> servers_;
  std::vector<std::string> server_endpoints_;
};

std::vector<ArgValue> epArgs(std::vector<double>& sums,
                             std::vector<double>& q,
                             std::int64_t samples) {
  return {ArgValue::inInt(0), ArgValue::inInt(samples),
          ArgValue::outArray(sums), ArgValue::outArray(q)};
}

TEST(ShardedMetaserverTest, RingBootstrapRoutesAndDispatches) {
  ShardCluster cluster(2);
  auto client = cluster.makeClient();
  client.refreshRing();
  EXPECT_EQ(client.ringEpoch(), 2u);  // sum of two shard epochs at 1
  EXPECT_EQ(client.ringDescriptor().shards.size(), 2u);

  cluster.registerServersFor(client, "ep");
  const auto choice = client.route(
      "ep", {}, std::chrono::steady_clock::now() + std::chrono::seconds(5));
  EXPECT_FALSE(choice.server_name.empty());
  EXPECT_FALSE(choice.endpoint.empty());

  constexpr std::int64_t kSamples = 256;
  const auto expected = numlib::runEp(0, kSamples);
  std::vector<double> sums(2, -1.0), q(10);
  auto args = epArgs(sums, q, kSamples);
  CallOptions opts;
  opts.deadline_seconds = kDeadlineSeconds;
  client.dispatch("ep", args, opts);
  EXPECT_NEAR(sums[0], expected.sx, 1e-9);
  EXPECT_NEAR(sums[1], expected.sy, 1e-9);
}

TEST(ShardedMetaserverTest, UnknownEntryYieldsTypedNotFound) {
  ShardCluster cluster(2, /*server_count=*/0);
  auto client = cluster.makeClient();
  // The owning shard is reachable but has no candidates: typed error,
  // not a hang or a transport error.
  EXPECT_THROW(
      client.route("nonexistent", {},
                   std::chrono::steady_clock::now() + std::chrono::seconds(5)),
      NotFoundError);
}

TEST(ShardedMetaserverTest, RegistrationIsIdempotentOnEndpointEpoch) {
  ShardCluster cluster(2, /*server_count=*/1);
  auto client = cluster.makeClient();

  protocol::WireServerDesc desc;
  desc.name = "server-0";
  desc.endpoint = cluster.server_endpoints_[0];
  desc.entries = {"ep"};
  const std::uint32_t owner = client.ownerOf("ep");
  auto& dir = cluster.shards_[owner].primary->directory();

  auto first = client.registerServer(desc, 7, kDeadlineSeconds);
  ASSERT_EQ(first[0].status, protocol::RegisterResult::Status::Applied);
  EXPECT_EQ(dir.serverCount(), 1u);

  // A retried register with the identical key is acknowledged but never
  // applied twice.
  auto retry = client.registerServer(desc, 7, kDeadlineSeconds);
  EXPECT_EQ(retry[0].status, protocol::RegisterResult::Status::Duplicate);
  EXPECT_EQ(dir.serverCount(), 1u);

  // A later epoch re-registers (update in place), still one entry.
  auto update = client.registerServer(desc, 8, kDeadlineSeconds);
  EXPECT_EQ(update[0].status, protocol::RegisterResult::Status::Applied);
  EXPECT_EQ(dir.serverCount(), 1u);

  // Deregister applies once; the straggler retry is a quiet duplicate.
  auto gone = client.deregisterServer(desc.endpoint, desc.name, desc.entries,
                                      9, kDeadlineSeconds);
  EXPECT_EQ(gone[0].status, protocol::RegisterResult::Status::Applied);
  EXPECT_EQ(dir.serverCount(), 0u);
  auto again = client.deregisterServer(desc.endpoint, desc.name, desc.entries,
                                       9, kDeadlineSeconds);
  EXPECT_EQ(again[0].status, protocol::RegisterResult::Status::Duplicate);
  EXPECT_EQ(dir.serverCount(), 0u);
}

TEST(ShardedMetaserverTest, MisroutedQueryDrawsWrongShard) {
  ShardCluster cluster(2, /*server_count=*/0);
  auto client = cluster.makeClient();

  // Find two entries with different owners (the hash spreads names, so
  // a handful of tries suffices).
  std::string here = "ep";
  const std::uint32_t owner = client.ownerOf(here);
  std::optional<std::string> elsewhere;
  for (int i = 0; i < 64 && !elsewhere; ++i) {
    const std::string name = "probe-" + std::to_string(i);
    if (client.ownerOf(name) != owner) elsewhere = name;
  }
  ASSERT_TRUE(elsewhere.has_value());

  auto node = dialEndpoint(cluster.shards_[owner].primary_endpoint);
  try {
    node->scheduleQuery(*elsewhere, {}, 2.0);
    FAIL() << "expected WrongShardError";
  } catch (const WrongShardError& e) {
    EXPECT_NE(e.ownerShard(), owner);
    EXPECT_FALSE(e.notPrimary());
    EXPECT_EQ(e.ringEpoch(), 2u);
  }

  // Right shard, wrong role: the backup bounces with NotPrimary.
  auto backup = dialEndpoint(cluster.shards_[owner].backup_endpoint);
  try {
    backup->scheduleQuery(here, {}, 2.0);
    FAIL() << "expected WrongShardError";
  } catch (const WrongShardError& e) {
    EXPECT_EQ(e.ownerShard(), owner);
    EXPECT_TRUE(e.notPrimary());
  }
}

TEST(ShardedMetaserverTest, PartitionPromotesBackupAndFencesOldPrimary) {
  ShardCluster cluster(1, /*server_count=*/1);
  auto client = cluster.makeClient();
  cluster.registerServersFor(client, "ep");

  auto& shard = cluster.shards_[0];
  ASSERT_NE(shard.primary->replication(), nullptr);
  ASSERT_TRUE(shard.primary->isPrimary());
  ASSERT_FALSE(shard.backup->isPrimary());

  // Cut the (simulated) wire: heartbeats stop, the backup's miss budget
  // runs down, it promotes and bumps the shard epoch.
  const auto cut = std::chrono::steady_clock::now();
  shard.primary->replication()->setPaused(true);
  ASSERT_TRUE(eventually(kPromotionBound,
                         [&] { return shard.backup->isPrimary(); }))
      << "backup never promoted";
  EXPECT_LT(secondsSince(cut), kPromotionBound);
  EXPECT_EQ(shard.backup->shardEpoch(), 2u);

  // Heal the partition: the old primary's next ship draws StaleEpoch
  // and it fences itself.
  const std::uint64_t fenced_before =
      obs::counter("metaserver.replication.fenced_writes").value();
  shard.primary->replication()->setPaused(false);
  ASSERT_TRUE(eventually(kPromotionBound,
                         [&] { return shard.primary->isFenced(); }))
      << "deposed primary never fenced";

  // Writes at the deposed primary are refused with the typed error.
  protocol::WireServerDesc desc;
  desc.name = "late";
  desc.endpoint = cluster.server_endpoints_[0];
  desc.entries = {"ep"};
  auto direct = dialEndpoint(shard.primary_endpoint);
  EXPECT_THROW(direct->registerServer(desc, 99, 2.0), FencedError);
  EXPECT_GT(obs::counter("metaserver.replication.fenced_writes").value(),
            fenced_before);

  // The routed path refreshes onto the promoted backup and succeeds —
  // and the merged ring epoch advanced past the seed view.
  auto results = client.registerServer(desc, 99, kDeadlineSeconds);
  EXPECT_EQ(results[0].status, protocol::RegisterResult::Status::Applied);
  EXPECT_GE(client.ringEpoch(), 2u);
}

TEST(ShardedMetaserverTest, PromotionRoutesToTheBackupOverTheSharedClient) {
  ShardCluster cluster(1, /*server_count=*/1);
  auto client = cluster.makeClient();
  cluster.registerServersFor(client, "ep");
  auto& shard = cluster.shards_[0];
  const auto deadline = [] {
    return std::chrono::steady_clock::now() + std::chrono::seconds(5);
  };
  // The primary serves over the shared node client the registration
  // dialed.
  EXPECT_EQ(client.route("ep", {}, deadline()).shard_epoch, 1u);

  // Partition, promote, heal: the old primary fences itself.
  shard.primary->replication()->setPaused(true);
  ASSERT_TRUE(eventually(kPromotionBound,
                         [&] { return shard.backup->isPrimary(); }));
  shard.primary->replication()->setPaused(false);
  ASSERT_TRUE(eventually(kPromotionBound,
                         [&] { return shard.primary->isFenced(); }));

  // The fenced primary's NotPrimary redirect refreshes the ring, and
  // routing reaches the promoted backup: one dial, then its shared
  // client serves every later query.
  const double misses_before = obs::counter("pool.misses").value();
  for (int i = 0; i < 3; ++i) {
    const auto choice = client.route("ep", {}, deadline());
    EXPECT_FALSE(choice.server_name.empty());
    EXPECT_EQ(choice.shard_epoch, shard.backup->shardEpoch());
  }
  EXPECT_DOUBLE_EQ(obs::counter("pool.misses").value() - misses_before, 1.0);
  EXPECT_GE(client.ringEpoch(), 2u);

  // The fenced primary answers no schedule, only redirects.
  auto direct = dialEndpoint(shard.primary_endpoint);
  try {
    direct->scheduleQuery("ep", {}, 2.0);
    FAIL() << "expected WrongShardError";
  } catch (const WrongShardError& e) {
    EXPECT_TRUE(e.notPrimary());
  }
}

TEST(ShardedMetaserverTest, ConcurrentDispatchesDialEachEndpointOnce) {
  constexpr std::size_t kThreads = 4;
  constexpr int kCallsPerThread = 8;
  ShardCluster cluster(1, /*server_count=*/1, /*server_workers=*/kThreads);
  {
    auto registrar = cluster.makeClient();
    cluster.registerServersFor(registrar, "ep");
  }
  auto client = cluster.makeClient();
  const double misses_before = obs::counter("pool.misses").value();

  constexpr std::int64_t kSamples = 256;
  const auto expected = numlib::runEp(0, kSamples);
  std::atomic<std::size_t> ready{0};
  std::vector<std::future<void>> callers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    callers.push_back(std::async(std::launch::async, [&] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (int c = 0; c < kCallsPerThread; ++c) {
        std::vector<double> sums(2, -1.0), q(10);
        auto args = epArgs(sums, q, kSamples);
        CallOptions opts;
        opts.deadline_seconds = kDeadlineSeconds;
        client.dispatch("ep", args, opts);
        EXPECT_NEAR(sums[0], expected.sx, 1e-9);
      }
    }));
  }
  for (auto& f : callers) f.get();
  // One node endpoint and one server endpoint: one dial each, however
  // many callers overlap.
  EXPECT_DOUBLE_EQ(obs::counter("pool.misses").value() - misses_before, 2.0);
}

/// How the client's data plane fails to reach a computing server.
enum class DeadDataPlane { RefusesDial, DropsAfterAccept };

/// The shard polls both computing servers fine, but the client reaches
/// neither: every candidate fails over, and the error must carry every
/// excluded server and the transport root cause, like the in-process
/// metaserver's (CooldownFixture.ExhaustedFailoverRethrowsTransportRootCause).
class ShardedDataPlaneFailure
    : public ::testing::TestWithParam<DeadDataPlane> {};

TEST_P(ShardedDataPlaneFailure, ExhaustedFailoverRethrowsTransportRootCause) {
  ShardCluster cluster(1);
  {
    auto registrar = cluster.makeClient();
    cluster.registerServersFor(registrar, "ep");
  }
  // Accepts every connection and drops it at once.
  transport::TcpListener dropper(0);
  const std::string drop_endpoint = endpointOf(dropper.port());
  std::thread dropping([&dropper] {
    while (dropper.accept() != nullptr) {
    }
  });

  std::atomic<int> dials{0};
  const bool refuse = GetParam() == DeadDataPlane::RefusesDial;
  auto client = cluster.makeClient(
      [&dials, refuse, drop_endpoint](const std::string& endpoint) {
        dials.fetch_add(1);
        if (refuse) throw TransportError("dial refused: " + endpoint);
        return dialEndpoint(drop_endpoint);
      });
  std::vector<double> sums(2), q(10);
  auto args = epArgs(sums, q, 16);
  CallOptions opts;
  opts.deadline_seconds = kDeadlineSeconds;
  opts.retries = 4;
  opts.backoff_seconds = 0.001;
  std::string what;
  try {
    client.dispatch("ep", args, opts);
    ADD_FAILURE() << "expected TransportError";
  } catch (const TransportError& e) {
    what = e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "root-cause transport error masked: " << e.what();
  }
  dropper.close();
  dropping.join();

  EXPECT_NE(what.find("server-0"), std::string::npos) << what;
  EXPECT_NE(what.find("server-1"), std::string::npos) << what;
  // A dropped connection surfaces as EOF or as a reset, depending on
  // timing; either way the root cause is the transport error.
  EXPECT_NE(what.find(refuse ? "last error: transport: dial refused"
                             : "last error: transport: "),
            std::string::npos)
      << what;
  EXPECT_EQ(dials.load(), 2);  // each server once, then nothing is left
}

INSTANTIATE_TEST_SUITE_P(
    Inputs, ShardedDataPlaneFailure,
    ::testing::Values(DeadDataPlane::RefusesDial,
                      DeadDataPlane::DropsAfterAccept),
    [](const ::testing::TestParamInfo<DeadDataPlane>& info) {
      return std::string(info.param == DeadDataPlane::RefusesDial
                             ? "RefusesDial"
                             : "DropsAfterAccept");
    });

/// Seeded kill schedules: a dispatch storm is in flight when the owning
/// shard's primary dies.  Every call must complete correctly or fail
/// with a typed error within its deadline, and dispatch must succeed
/// again once the backup promotes.
class FailoverChaos : public ::testing::TestWithParam<int> {};

TEST_P(FailoverChaos, KillPrimaryMidDispatchStorm) {
  const std::uint64_t seed = 5000 + static_cast<std::uint64_t>(GetParam());
  SplitMix64 rng(seed);

  ShardCluster cluster(2, /*server_count=*/2);
  auto client = cluster.makeClient();
  cluster.registerServersFor(client, "ep");
  const std::uint32_t owner = client.ownerOf("ep");

  constexpr std::int64_t kSamples = 256;
  const auto expected = numlib::runEp(0, kSamples);
  const std::size_t threads = 2 + rng.nextBelow(2);   // 2..3 clients
  const std::size_t calls_per_thread = 4;
  const double kill_after = 0.002 + 0.03 * rng.nextDouble();

  const std::uint64_t promotions_before =
      obs::counter("metaserver.replication.promotions").value();

  std::vector<std::future<void>> storms;
  for (std::size_t t = 0; t < threads; ++t) {
    storms.push_back(std::async(std::launch::async, [&, t] {
      for (std::size_t c = 0; c < calls_per_thread; ++c) {
        std::vector<double> sums(2, -1.0), q(10);
        auto args = epArgs(sums, q, kSamples);
        CallOptions opts;
        opts.deadline_seconds = kDeadlineSeconds;
        opts.retries = 4;
        opts.backoff_seconds = 0.002;
        const auto start = std::chrono::steady_clock::now();
        try {
          client.dispatch("ep", args, opts);
          ASSERT_NEAR(sums[0], expected.sx, 1e-9)
              << "seed " << seed << " thread " << t << " call " << c;
          ASSERT_NEAR(sums[1], expected.sy, 1e-9)
              << "seed " << seed << " thread " << t << " call " << c;
        } catch (const Error&) {
          // Typed failure is within contract; anything else escapes and
          // fails the test.
        }
        ASSERT_LT(secondsSince(start), kHangBound)
            << "seed " << seed << " thread " << t << " call " << c;
      }
    }));
  }

  // Kill the owning shard's primary mid-storm.
  std::this_thread::sleep_for(
      std::chrono::duration<double>(kill_after));
  const auto killed = std::chrono::steady_clock::now();
  cluster.shards_[owner].primary->stop();

  ASSERT_TRUE(eventually(kPromotionBound, [&] {
    return cluster.shards_[owner].backup->isPrimary();
  })) << "seed " << seed << ": backup never promoted";
  EXPECT_LT(secondsSince(killed), kPromotionBound) << "seed " << seed;

  for (auto& f : storms) f.get();

  EXPECT_GT(obs::counter("metaserver.replication.promotions").value(),
            promotions_before);

  // Post-promotion the cluster serves again, from the replicated table.
  std::vector<double> sums(2, -1.0), q(10);
  auto args = epArgs(sums, q, kSamples);
  CallOptions opts;
  opts.deadline_seconds = kDeadlineSeconds;
  opts.retries = 4;
  client.dispatch("ep", args, opts);
  EXPECT_NEAR(sums[0], expected.sx, 1e-9) << "seed " << seed;
  EXPECT_NEAR(sums[1], expected.sy, 1e-9) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FailoverChaos, ::testing::Range(0, 10));

/// Names of this process's threads, from /proc/self/task/*/comm.
std::multiset<std::string> threadNames() {
  std::multiset<std::string> names;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    std::ifstream comm(task.path() / "comm");
    std::string name;
    if (std::getline(comm, name)) names.insert(name);
  }
  return names;
}

/// Every thread the system starts carries its role in its name, so top
/// -H, a debugger or a per-role CPU table can tell them apart.
TEST(ThreadNames, EveryRoleIsNamed) {
  ShardCluster cluster(1);
  auto client = cluster.makeClient();
  cluster.registerServersFor(client, "ep");
  std::vector<double> sums(2), q(10);
  auto args = epArgs(sums, q, 64);
  CallOptions opts;
  opts.deadline_seconds = kDeadlineSeconds;
  client.dispatch("ep", args, opts);  // dials v2 channels: reader threads
  metaserver::Metaserver monitored;
  metaserver::ServerEntry entry;
  entry.name = "s";
  entry.factory = [&cluster] {
    return dialEndpoint(cluster.server_endpoints_[0]);
  };
  monitored.addServer(std::move(entry));
  monitored.startMonitoring(std::chrono::milliseconds(10));

  const std::vector<std::string> roles = {
      "ninf-srv-rx", "ninf-repl",    "ninf-meta-rx",  "ninf-worker",
      "ninf-chan-rd", "ninf-sweeper", "ninf-watchdog", "ninf-monitor"};
  // A thread names itself as it starts: give the newest a moment.
  std::multiset<std::string> names;
  eventually(kDeadlineSeconds, [&] {
    names = threadNames();
    for (const auto& role : roles) {
      if (names.count(role) == 0) return false;
    }
    return true;
  });
  for (const auto& role : roles) {
    EXPECT_GT(names.count(role), 0u) << "no thread named " << role;
  }
  // Two servers and two nodes, one reactor each.
  EXPECT_EQ(names.count("ninf-srv-rx"), 2u);
  EXPECT_EQ(names.count("ninf-meta-rx"), 2u);
  monitored.stopMonitoring();
}

}  // namespace
}  // namespace ninf
