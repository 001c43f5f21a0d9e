// Session layer: call-ID multiplexing on one shared connection, protocol
// negotiation (v1 interop), failure semantics of in-flight calls, and the
// one-shared-client-per-endpoint connection pool.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "client/client.h"
#include "client/connection_pool.h"
#include "common/error.h"
#include "numlib/ep.h"
#include "obs/metrics.h"
#include "protocol/message.h"
#include "server/server.h"
#include "transport/fault_injection.h"
#include "transport/inproc_transport.h"
#include "transport/tcp_transport.h"
#include "xdr/xdr.h"

namespace ninf {
namespace {

using client::CallOptions;
using client::ConnectionPool;
using client::NinfClient;
using protocol::ArgValue;

double secondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// TCP server with the standard executables plus "nap", which just holds
/// a worker for `ms` milliseconds — the clearest probe of whether calls
/// on one connection actually overlap.
class SessionFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    server::registerStandardExecutables(registry_);
    registry_.add(
        R"IDL(Define nap(mode_in long ms, mode_out double echo[1])
           "hold a worker for ms milliseconds",
           CalcOrder 1,
           Calls "C" nap(ms, echo);)IDL",
        [](server::CallContext& ctx) {
          const auto ms = ctx.intArg("ms");
          std::this_thread::sleep_for(std::chrono::milliseconds(ms));
          ctx.arrayOut("echo")[0] = static_cast<double>(ms);
        });
    server_.emplace(registry_, server::ServerOptions{.workers = 4});
    listener_ = std::make_shared<transport::TcpListener>(0);
    port_ = listener_->port();
    server().start(listener_);
  }

  void TearDown() override { server().stop(); }

  double nap(NinfClient& client, std::int64_t ms,
             const CallOptions& opts = {}) {
    std::vector<double> echo(1);
    std::vector<ArgValue> args = {ArgValue::inInt(ms),
                                  ArgValue::outArray(echo)};
    client.call("nap", args, opts);
    return echo[0];
  }

  server::Registry registry_;
  // Engaged in SetUp() for the whole test lifetime; the accessor
  // keeps the one unchecked dereference in a single audited place.
  // NOLINTNEXTLINE(bugprone-unchecked-optional-access)
  server::NinfServer& server() { return *server_; }
  std::optional<server::NinfServer> server_;
  std::shared_ptr<transport::TcpListener> listener_;
  std::uint16_t port_ = 0;
};

TEST_F(SessionFixture, NegotiatesProtocolV2) {
  auto client = NinfClient::connectTcp("127.0.0.1", port_);
  EXPECT_DOUBLE_EQ(nap(*client, 1), 1.0);
  EXPECT_EQ(client->channel().negotiatedVersion(), protocol::kVersion2);
}

TEST_F(SessionFixture, V1ClientRoundTripsAgainstV2Server) {
  // A pre-negotiation client must keep working against an upgraded
  // server: no Hello, classic lock-step framing.
  auto client = std::make_unique<NinfClient>(
      transport::tcpConnect("127.0.0.1", port_), /*force_v1=*/true);
  EXPECT_DOUBLE_EQ(nap(*client, 1), 1.0);
  EXPECT_EQ(client->channel().negotiatedVersion(), protocol::kVersion);
  EXPECT_EQ(client->listExecutables().size(), registry_.size());
}

TEST_F(SessionFixture, OneConnectionSustainsWorkersConcurrentCalls) {
  // Acceptance: with 4 workers and 4 concurrent 250 ms naps multiplexed
  // on ONE connection, wall time is about one nap — not four.  The old
  // lock-step connection would serialize them (>= 1 s).
  auto client = NinfClient::connectTcp("127.0.0.1", port_);
  constexpr int kCalls = 4;
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int i = 0; i < kCalls; ++i) {
    threads.emplace_back([&] {
      if (nap(*client, 250) == 250.0) ok.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), kCalls);
  EXPECT_LT(secondsSince(start), 0.75);  // serial would take >= 1.0 s
}

TEST_F(SessionFixture, RepliesReturnOutOfOrderWithTimingsIntact) {
  auto client = NinfClient::connectTcp("127.0.0.1", port_);
  std::chrono::steady_clock::time_point slow_done, fast_done;
  std::thread slow([&] {
    EXPECT_DOUBLE_EQ(nap(*client, 400), 400.0);
    slow_done = std::chrono::steady_clock::now();
  });
  // Let the slow call reach the server first.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::vector<double> echo(1);
  std::vector<ArgValue> args = {ArgValue::inInt(10),
                                ArgValue::outArray(echo)};
  const auto fast = client->call("nap", args);
  fast_done = std::chrono::steady_clock::now();
  slow.join();
  EXPECT_DOUBLE_EQ(echo[0], 10.0);
  // The fast reply overtook the slow one on the shared connection.
  EXPECT_LT(fast_done + std::chrono::milliseconds(100), slow_done);
  // Per-call accounting survived the demultiplexing.
  EXPECT_GT(fast.elapsed, 0.0);
  EXPECT_LT(fast.elapsed, 0.3);
  EXPECT_GE(fast.server.waitTime(), 0.0);
  EXPECT_GT(fast.bytes_sent, 0);
  EXPECT_GT(fast.bytes_received, 0);
}

TEST_F(SessionFixture, ServerStopFailsEveryInflightCallTyped) {
  auto client = NinfClient::connectTcp("127.0.0.1", port_);
  EXPECT_DOUBLE_EQ(nap(*client, 1), 1.0);  // negotiate before the cut
  constexpr int kCalls = 4;
  std::atomic<int> typed{0}, wrong{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kCalls; ++i) {
    threads.emplace_back([&] {
      try {
        nap(*client, 2000);
        wrong.fetch_add(1);  // must not outlive the server
      } catch (const TransportError&) {
        typed.fetch_add(1);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  server().stop();
  for (auto& t : threads) t.join();
  EXPECT_EQ(typed.load(), kCalls);
  EXPECT_EQ(wrong.load(), 0);
}

TEST_F(SessionFixture, TimeoutAbandonsOneCallOthersSurvive) {
  auto client = NinfClient::connectTcp("127.0.0.1", port_);
  std::thread slow([&] {
    // Long nap, generous deadline: must complete even while a sibling
    // call on the same connection times out.
    CallOptions opts;
    opts.deadline_seconds = 10.0;
    EXPECT_DOUBLE_EQ(nap(*client, 600, opts), 600.0);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  CallOptions tight;
  tight.deadline_seconds = 0.1;
  EXPECT_THROW(nap(*client, 5000, tight), TimeoutError);
  slow.join();
  // The channel is still healthy after the abandoned call.
  EXPECT_DOUBLE_EQ(nap(*client, 1), 1.0);
}

TEST_F(SessionFixture, FaultPlanResetMidMultiplexNeverMixesReplies) {
  // Chaos: a seeded fault plan resets sends while several threads share
  // one multiplexed connection.  Invariant: every call either returns
  // the result of ITS OWN arguments or throws a typed error — never a
  // reply belonging to another call, never a hang.
  transport::FaultSpec spec;
  spec.reset = 0.15;
  auto plan = std::make_shared<transport::FaultPlan>(42, spec);
  auto client = std::make_unique<NinfClient>(
      transport::wrapFaulty(transport::tcpConnect("127.0.0.1", port_), plan));
  client->setReconnect([this, plan] {
    transport::checkConnectFault(*plan, "127.0.0.1");
    return transport::wrapFaulty(transport::tcpConnect("127.0.0.1", port_),
                                 plan);
  });
  constexpr int kThreads = 4;
  constexpr int kCallsPerThread = 6;
  std::atomic<int> correct{0}, failed{0}, corrupt{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCallsPerThread; ++i) {
        const std::int64_t first = (t * kCallsPerThread + i) * 64;
        const std::int64_t count = 64 + t;  // distinct per thread
        std::vector<double> sums(2), q(10);
        std::vector<ArgValue> args = {ArgValue::inInt(first),
                                      ArgValue::inInt(count),
                                      ArgValue::outArray(sums),
                                      ArgValue::outArray(q)};
        CallOptions opts;
        opts.deadline_seconds = 15.0;
        opts.retries = 6;
        opts.backoff_seconds = 0.001;
        try {
          client->call("ep", args, opts);
          const auto expected = numlib::runEp(first, count);
          if (sums[0] == expected.sx && sums[1] == expected.sy) {
            correct.fetch_add(1);
          } else {
            corrupt.fetch_add(1);
          }
        } catch (const Error&) {
          failed.fetch_add(1);  // typed failure is within the contract
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(corrupt.load(), 0);
  EXPECT_EQ(correct.load() + failed.load(), kThreads * kCallsPerThread);
  EXPECT_GT(correct.load(), 0);  // the plan must not kill everything
}

TEST(ChannelInterop, FallsBackToV1WhenPeerClosesOnHello) {
  // A pre-negotiation server aborts the connection on the unknown Hello
  // frame without replying anything.  The client must read that close as
  // "old peer" and fall back to protocol v1 over one fresh connection,
  // not surface a TransportError.
  auto [c1, s1] = transport::inprocPair();
  auto [c2, s2] = transport::inprocPair();
  auto client = std::make_unique<NinfClient>(std::move(c1));
  auto next =
      std::make_shared<std::unique_ptr<transport::Stream>>(std::move(c2));
  client->setReconnect([next] { return std::move(*next); });

  std::thread old_server([&s1, &s2] {
    // "Old server": consume the Hello frame, then abort the connection.
    (void)protocol::recvMessage(*s1);
    s1->close();
    // The fallback connection speaks plain lock-step v1.
    const auto ping = protocol::recvMessage(*s2);
    EXPECT_EQ(ping.type, protocol::MessageType::Ping);
    protocol::sendMessage(*s2, protocol::MessageType::Pong, ping.payload);
  });
  const double fallbacks_before =
      obs::counter("channel.hello_fallbacks").value();
  EXPECT_GE(client->ping(), 0.0);
  EXPECT_EQ(client->channel().negotiatedVersion(), protocol::kVersion);
  EXPECT_GE(obs::counter("channel.hello_fallbacks").value() - fallbacks_before,
            1.0);
  old_server.join();
}

TEST(ChannelStall, MidReplyStallBoundsDeadlinedCallAndBreaksChannel) {
  // A v2 peer that sends a reply header (so the call enters the
  // Consuming state) but stalls mid-body must not wedge the caller past
  // its deadline plus the grace window: the channel is declared broken,
  // the stream is closed, and the caller gets TimeoutError.
  auto [c_end, s_end] = transport::inprocPair();
  auto client = std::make_unique<NinfClient>(std::move(c_end));
  client->channel().setMidReplyGrace(0.1);

  std::thread stalling_server([&s_end] {
    const auto hello = protocol::recvMessage(*s_end);
    EXPECT_EQ(hello.type, protocol::MessageType::Hello);
    xdr::Encoder ack;
    ack.putU32(protocol::kVersion2);
    protocol::sendMessage(*s_end, protocol::MessageType::HelloAck,
                          ack.bytes());
    const auto request =
        protocol::recvHeader(*s_end, protocol::WireMode::V2);
    protocol::BodyReader body(*s_end, request.length);
    body.drain();
    // Reply header promises 64 body bytes; deliver 8, then go mute.
    xdr::Encoder header;
    header.putU32(protocol::kMagic);
    header.putU32(protocol::kVersion2);
    header.putU32(static_cast<std::uint32_t>(protocol::MessageType::Pong));
    header.putU32(64);
    header.putU32(static_cast<std::uint32_t>(request.call_id >> 32));
    header.putU32(static_cast<std::uint32_t>(request.call_id));
    s_end->sendAll(header.bytes());
    const std::array<std::uint8_t, 8> stub{};
    s_end->sendAll(stub);
    // Hold the connection open until the client abandons the wire.
    try {
      std::uint8_t byte;
      s_end->recvAll(std::span(&byte, 1));
    } catch (const Error&) {
    }
  });

  const auto start = std::chrono::steady_clock::now();
  const double stalls_before =
      obs::counter("channel.mid_reply_stalls").value();
  EXPECT_THROW(client->ping(0, 0.25), TimeoutError);
  EXPECT_LT(secondsSince(start), 2.0);  // deadline + grace, not forever
  EXPECT_TRUE(client->channel().broken());
  EXPECT_GE(obs::counter("channel.mid_reply_stalls").value() - stalls_before,
            1.0);
  // The poisoned channel cannot be reused (no reconnect factory here).
  EXPECT_THROW(client->ping(), TransportError);
  stalling_server.join();
}

/// Pool behavior against one live TCP server.
class PoolFixture : public SessionFixture {
 protected:
  ConnectionPool::Factory countingFactory() {
    return [this] {
      created_.fetch_add(1);
      return NinfClient::connectTcp("127.0.0.1", port_);
    };
  }

  std::atomic<int> created_{0};
};

TEST_F(PoolFixture, ReleaseThenAcquireReusesTheConnection) {
  ConnectionPool pool;
  const double hits_before = obs::counter("pool.hits").value();
  const double misses_before = obs::counter("pool.misses").value();
  NinfClient* first = nullptr;
  {
    auto client = pool.acquire("srv", countingFactory());
    EXPECT_GE(client->ping(), 0.0);  // connection is usable
    first = client.get();
  }
  auto again = pool.acquire("srv", countingFactory());
  EXPECT_EQ(again.get(), first);  // the pool kept it alive
  EXPECT_EQ(created_.load(), 1);  // second acquire reused, not rebuilt
  EXPECT_DOUBLE_EQ(obs::counter("pool.hits").value() - hits_before, 1.0);
  EXPECT_DOUBLE_EQ(obs::counter("pool.misses").value() - misses_before, 1.0);
}

TEST_F(PoolFixture, DistinctEndpointsDoNotShareConnections) {
  ConnectionPool pool;
  auto a = pool.acquire("a", countingFactory());
  auto b = pool.acquire("b", countingFactory());
  EXPECT_EQ(created_.load(), 2);
  EXPECT_NE(a.get(), b.get());
}

TEST_F(PoolFixture, BrokenConnectionIsNeverPooled) {
  ConnectionPool pool;
  auto broken = pool.acquire("srv", countingFactory());
  broken->close();  // marks the channel broken
  auto fresh = pool.acquire("srv", countingFactory());
  EXPECT_NE(fresh.get(), broken.get());  // redialed, not handed out again
  EXPECT_EQ(created_.load(), 2);
  EXPECT_GE(fresh->ping(), 0.0);
}

TEST_F(PoolFixture, DeadPeerRedialSurfacesTransportError) {
  ConnectionPool pool;
  auto client = pool.acquire("srv", countingFactory());
  EXPECT_GE(client->ping(), 0.0);  // negotiated v2: a reader watches EOF
  server().stop();  // the shared connection's peer is now gone
  const auto start = std::chrono::steady_clock::now();
  while (!client->channel().broken() && secondsSince(start) < 5.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(client->channel().broken());
  // The broken client is not handed out; the redial cannot connect.
  EXPECT_THROW((void)pool.acquire("srv", countingFactory()), TransportError);
  EXPECT_EQ(created_.load(), 2);
}

/// A client over one end of an inproc pair whose far end is kept open
/// and mute.
class MutePeers {
 public:
  std::unique_ptr<transport::Stream> nearEnd() {
    auto [near_end, far_end] = transport::inprocPair();
    LockGuard lock(mutex_);
    far_ends_.push_back(std::move(far_end));
    return std::move(near_end);
  }

 private:
  Mutex mutex_{"test.peers"};
  std::vector<std::unique_ptr<transport::Stream>> far_ends_
      NINF_GUARDED_BY(mutex_);
};

TEST(ConnectionPoolHealth, StalledPeerNeverBlocksAcquire) {
  // A shared client whose peer is open but unresponsive: acquire() does
  // no I/O on a hit, so it returns at once, and the caller's own
  // deadline bounds the stalled call.
  ConnectionPool pool;
  MutePeers peers;
  int created = 0;
  ConnectionPool::Factory factory = [&] {
    ++created;
    return std::make_unique<NinfClient>(peers.nearEnd(), /*force_v1=*/true);
  };
  auto first = pool.acquire("stalled", factory);
  const auto start = std::chrono::steady_clock::now();
  auto again = pool.acquire("stalled", factory);
  EXPECT_LT(secondsSince(start), 0.1);
  EXPECT_EQ(again.get(), first.get());
  EXPECT_EQ(created, 1);
  EXPECT_THROW(again->ping(0, 0.1), TimeoutError);
  EXPECT_LT(secondsSince(start), 1.0);  // bounded, not wedged
}

/// Inproc stream that proves it is being destroyed OUTSIDE the pool
/// lock: the destructor runs a probe that acquires a live client from
/// the pool (self-deadlock under a non-recursive mutex if the lock were
/// held —
/// the lock-order checker flags it first) and then dawdles, so a
/// regression also shows up as acquire() latency on unrelated endpoints.
class EvictionCanaryStream : public transport::Stream {
 public:
  EvictionCanaryStream(std::unique_ptr<transport::Stream> inner,
                       std::function<void()> probe, std::atomic<int>* probes)
      : inner_(std::move(inner)), probe_(std::move(probe)), probes_(probes) {}

  ~EvictionCanaryStream() override {
    probe_();  // deadlocks if destroyed under the pool lock
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    probes_->fetch_add(1);
  }

  void sendAll(std::span<const std::uint8_t> data) override {
    inner_->sendAll(data);
  }
  void recvAll(std::span<std::uint8_t> buffer) override {
    inner_->recvAll(buffer);
  }
  void setDeadline(std::chrono::steady_clock::time_point d) override {
    inner_->setDeadline(d);
  }
  void shutdownSend() override { inner_->shutdownSend(); }
  void close() override { inner_->close(); }
  std::string peerName() const override { return inner_->peerName(); }

 private:
  std::unique_ptr<transport::Stream> inner_;
  std::function<void()> probe_;
  std::atomic<int>* probes_;
};

TEST(ConnectionPoolEviction, ReplacedBrokenClientIsDestroyedOutsideTheLock) {
  ConnectionPool pool;
  MutePeers peers;
  std::atomic<int> canary_probes{0};
  ConnectionPool::Factory plain = [&] {
    return std::make_unique<NinfClient>(peers.nearEnd(), /*force_v1=*/true);
  };
  ConnectionPool::Factory canary = [&] {
    return std::make_unique<NinfClient>(
        std::make_unique<EvictionCanaryStream>(
            peers.nearEnd(), [&] { (void)pool.acquire("probe", plain); },
            &canary_probes),
        /*force_v1=*/true);
  };

  (void)pool.acquire("probe", plain);     // the canary's probe is a hit
  pool.acquire("srv", canary)->close();  // broken, still in its slot

  // This acquire replaces the broken client; its canary destructor (a
  // pool acquire + 80 ms) must run with the pool unlocked.
  std::thread replacer([&] { (void)pool.acquire("srv", plain); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));  // mid-destroy

  // Meanwhile the pool stays responsive for everyone else.
  const auto start = std::chrono::steady_clock::now();
  (void)pool.acquire("other", plain);
  EXPECT_LT(secondsSince(start), 0.05)
      << "a slow replaced client must not serialize unrelated acquires";

  replacer.join();
  EXPECT_EQ(canary_probes.load(), 1);  // the broken canary fully destroyed
}

}  // namespace
}  // namespace ninf
