// Event-driven serving core: the epoll reactor and its staged pipeline.
//
// What thread-per-connection could never show: thousands of parked
// connections with a flat thread count, slow-loris peers that dribble a
// frame one byte at a time without stalling anyone, and mid-body
// disconnects that clean up instead of leaking a blocked reader thread.
// Also the lifecycle of streams handed to the reactor with adopt(), its
// timers, and the metaserver node served by the same reactor: its Hello
// profile, reply order across the inline and staged paths, bad frames
// that cost only their own connection, and the status polls it sends
// from the reactor (bounded by a timer, single-flight per server).
#include <gtest/gtest.h>
#include <poll.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "client/client.h"
#include "client/ninf_api.h"
#include "common/error.h"
#include "metaserver/node.h"
#include "numlib/ep.h"
#include "obs/metrics.h"
#include "protocol/call_marshal.h"
#include "protocol/message.h"
#include "server/reactor.h"
#include "server/server.h"
#include "transport/inproc_transport.h"
#include "transport/tcp_transport.h"
#include "xdr/xdr.h"

namespace ninf {
namespace {

using client::NinfClient;
using client::ninfCall;
using protocol::MessageType;
using server::NinfServer;
using server::Registry;

/// Threads of this process, from /proc/self/status (Linux).
int processThreadCount() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::stoi(line.substr(8));
    }
  }
  return -1;
}

/// Spin until `pred` holds or ~2 s elapse.
template <typename Pred>
bool waitFor(Pred pred, double seconds = 2.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

double reactorFds() { return obs::gauge("server.reactor.fds").value(); }

/// Reactor-served TCP server fixture.
class ReactorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server::registerStandardExecutables(registry_, 2);
    server_.emplace(registry_, options_);
    listener_ = std::make_shared<transport::TcpListener>(0);
    port_ = listener_->port();
    server().start(listener_);
    ASSERT_TRUE(waitFor([] { return reactorFds() == 0.0; }));
  }

  void TearDown() override {
    if (server_) server().stop();
  }

  Registry registry_;
  server::ServerOptions options_{.workers = 2};
  // Engaged in SetUp() for the whole test lifetime; the accessor
  // keeps the one unchecked dereference in a single audited place.
  // NOLINTNEXTLINE(bugprone-unchecked-optional-access)
  NinfServer& server() { return *server_; }
  std::optional<NinfServer> server_;
  std::shared_ptr<transport::TcpListener> listener_;
  std::uint16_t port_ = 0;
};

TEST_F(ReactorTest, ServesCallsAndControlMessages) {
  auto client = NinfClient::connectTcp("127.0.0.1", port_);
  EXPECT_GE(client->ping(512), 0.0);
  std::vector<double> sums(2), q(10);
  ninfCall(*client, "ep", std::int64_t{0}, std::int64_t{512}, sums, q);
  EXPECT_DOUBLE_EQ(sums[0], numlib::runEp(0, 512).sx);
  client->close();
}

TEST_F(ReactorTest, IdleConnectionsParkWithoutThreads) {
  constexpr int kIdle = 100;
  // Let one call settle the lazy thread creation (client side included).
  auto client = NinfClient::connectTcp("127.0.0.1", port_);
  client->ping();

  const int before = processThreadCount();
  ASSERT_GT(before, 0);
  std::vector<std::unique_ptr<transport::Stream>> idle;
  idle.reserve(kIdle);
  for (int i = 0; i < kIdle; ++i) {
    idle.push_back(transport::tcpConnect("127.0.0.1", port_));
  }
  ASSERT_TRUE(waitFor([&] { return reactorFds() >= kIdle + 1; }))
      << "fds gauge " << reactorFds();

  // Thread-per-connection would sit at before + kIdle here.  The reactor
  // parks every idle connection in one epoll set.
  const int after = processThreadCount();
  EXPECT_LE(after, before + 2) << "server spawned threads per connection";

  // The server still answers while the herd is parked.
  EXPECT_GE(client->ping(64), 0.0);

  idle.clear();
  EXPECT_TRUE(waitFor([&] { return reactorFds() <= 1.0; }))
      << "fds gauge " << reactorFds();
  client->close();
}

TEST_F(ReactorTest, SlowLorisDoesNotStallOtherClients) {
  // Dribble half a v1 Ping header, one byte at a time, and stop.
  auto loris = transport::tcpConnect("127.0.0.1", port_);
  xdr::Encoder header;
  header.putU32(protocol::kMagic);
  header.putU32(protocol::kVersion);
  header.putU32(static_cast<std::uint32_t>(protocol::MessageType::Ping));
  header.putU32(4);  // body: 4 bytes, never fully sent
  const auto bytes = header.bytes();
  for (std::size_t i = 0; i < protocol::kHeaderBytes / 2; ++i) {
    loris->sendAll(std::span<const std::uint8_t>(&bytes[i], 1));
  }

  // A well-behaved client gets full service meanwhile.
  auto client = NinfClient::connectTcp("127.0.0.1", port_);
  std::vector<double> sums(2), q(10);
  ninfCall(*client, "ep", std::int64_t{0}, std::int64_t{256}, sums, q);
  EXPECT_DOUBLE_EQ(sums[0], numlib::runEp(0, 256).sx);

  // The loris completes its frame eventually and still gets its Pong.
  for (std::size_t i = protocol::kHeaderBytes / 2; i < bytes.size(); ++i) {
    loris->sendAll(std::span<const std::uint8_t>(&bytes[i], 1));
  }
  const std::array<std::uint8_t, 4> body = {1, 2, 3, 4};
  loris->sendAll(body);
  const protocol::Message pong = protocol::recvMessage(*loris);
  EXPECT_EQ(pong.type, protocol::MessageType::Pong);
  ASSERT_EQ(pong.payload.size(), 4u);
  EXPECT_EQ(pong.payload[2], 3);
  client->close();
}

TEST_F(ReactorTest, MidBodyDisconnectCleansUp) {
  const double baseline = reactorFds();
  {
    auto doomed = transport::tcpConnect("127.0.0.1", port_);
    xdr::Encoder header;
    header.putU32(protocol::kMagic);
    header.putU32(protocol::kVersion);
    header.putU32(
        static_cast<std::uint32_t>(protocol::MessageType::CallRequest));
    header.putU32(100000);  // declares a body it will never finish
    doomed->sendAll(header.bytes());
    const std::vector<std::uint8_t> partial(512, 0xAB);
    doomed->sendAll(partial);
    ASSERT_TRUE(waitFor([&] { return reactorFds() > baseline; }));
  }  // disconnect mid-body
  EXPECT_TRUE(waitFor([&] { return reactorFds() <= baseline; }))
      << "fds gauge " << reactorFds();

  // No half-read state leaked into anyone else's service.
  auto client = NinfClient::connectTcp("127.0.0.1", port_);
  EXPECT_GE(client->ping(), 0.0);
  client->close();
}

TEST_F(ReactorTest, V1ClientInterop) {
  // Raw v1 wire, no Hello: lock-step framing against the reactor.
  auto stream = transport::tcpConnect("127.0.0.1", port_);
  const std::vector<std::uint8_t> echo = {9, 8, 7};
  protocol::sendMessage(*stream, protocol::MessageType::Ping, echo);
  protocol::Message pong = protocol::recvMessage(*stream);
  EXPECT_EQ(pong.type, protocol::MessageType::Pong);
  EXPECT_EQ(pong.payload, echo);

  protocol::sendMessage(*stream, protocol::MessageType::ListExecutables,
                        std::span<const std::uint8_t>{});
  const protocol::Message list = protocol::recvMessage(*stream);
  EXPECT_EQ(list.type, protocol::MessageType::ExecutableList);
  xdr::Decoder dec(list.payload);
  EXPECT_GT(dec.getU32(), 0u);
  stream->close();

  // Full client forced to v1: negotiation skipped, staged pipeline
  // still serves the call through the per-connection lock-step hold.
  auto v1 = std::make_unique<NinfClient>(
      transport::tcpConnect("127.0.0.1", port_), /*force_v1=*/true);
  std::vector<double> sums(2), q(10);
  ninfCall(*v1, "ep", std::int64_t{7}, std::int64_t{128}, sums, q);
  EXPECT_DOUBLE_EQ(sums[0], numlib::runEp(7, 128).sx);
  v1->close();
}

TEST(ReactorAdmission, TinyBudgetStillCompletesEveryCall) {
  Registry registry;
  server::registerStandardExecutables(registry, 2);
  NinfServer server(registry, {.workers = 2, .max_inflight_calls = 2});
  auto listener = std::make_shared<transport::TcpListener>(0);
  const auto port = listener->port();
  server.start(listener);

  // 4 clients × 8 pipelined-ish calls against a budget of 2: admission
  // pauses reads under pressure and resumes them as replies drain.
  constexpr int kClients = 4;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      try {
        auto client = NinfClient::connectTcp("127.0.0.1", port);
        for (int i = 0; i < 8; ++i) {
          std::vector<double> sums(2), q(10);
          const std::int64_t first = t * 100 + i;
          ninfCall(*client, "ep", first, std::int64_t{64}, sums, q);
          if (sums[0] != numlib::runEp(first, 64).sx) ++failures;
        }
        client->close();
      } catch (...) {
        ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server.metrics().completed(), kClients * 8u);
  server.stop();
}

TEST(ReactorBacklog, ExplicitBacklogAcceptsConnections) {
  Registry registry;
  server::registerStandardExecutables(registry);
  NinfServer server(registry, {.workers = 1});
  auto listener = std::make_shared<transport::TcpListener>(0, /*backlog=*/8);
  const auto port = listener->port();
  server.start(listener);
  auto client = NinfClient::connectTcp("127.0.0.1", port);
  EXPECT_GE(client->ping(128), 0.0);
  client->close();
  server.stop();
}

/// Open descriptors of this process, from /proc/self/fd (Linux).  The
/// directory handle the walk itself holds is counted every time alike.
int processFdCount() {
  int n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++n;
  }
  return n;
}

TEST(ReactorAdopt, ClosedClientFreesAdoptedStream) {
  Registry registry;
  server::registerStandardExecutables(registry);
  NinfServer server(registry, {.workers = 1});
  ASSERT_TRUE(waitFor([] { return reactorFds() == 0.0; }));
  const int fds_before = processFdCount();
  {
    auto [client_end, server_end] = transport::inprocPair();
    server.adopt(std::move(server_end));
    NinfClient client(std::move(client_end));
    std::vector<double> sums(2), q(10);
    ninfCall(client, "ep", std::int64_t{3}, std::int64_t{256}, sums, q);
    EXPECT_DOUBLE_EQ(sums[0], numlib::runEp(3, 256).sx);
    EXPECT_EQ(reactorFds(), 1.0);
    client.close();
  }
  // socketpair ends are real fds now: both must be gone, not just the
  // reactor's bookkeeping.
  EXPECT_TRUE(waitFor([] { return reactorFds() == 0.0; }))
      << "fds gauge " << reactorFds();
  EXPECT_TRUE(waitFor([&] { return processFdCount() == fds_before; }))
      << processFdCount() << " fds open, " << fds_before << " before";
  server.stop();
}

TEST(ReactorAdopt, StopFailsPendingCallWithTransportError) {
  Registry registry;
  std::atomic<bool> entered{false};
  registry.add(
      R"IDL(Define nap(mode_in long ms, mode_out double echo[1])
         Calls "C" nap(ms, echo);)IDL",
      [&entered](server::CallContext& ctx) {
        entered = true;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(ctx.intArg("ms")));
        ctx.arrayOut("echo")[0] = 1.0;
      });
  NinfServer server(registry, {.workers = 1});
  auto [client_end, server_end] = transport::inprocPair();
  server.adopt(std::move(server_end));
  NinfClient client(std::move(client_end));
  client.queryInterface("nap");

  // The deadline only bounds a broken build: a hang would surface as a
  // TimeoutError after 10 s instead of blocking the suite.
  auto pending = std::async(std::launch::async, [&client] {
    std::vector<double> echo(1);
    std::vector<protocol::ArgValue> args = {protocol::ArgValue::inInt(300),
                                            protocol::ArgValue::outArray(echo)};
    client::CallOptions opts;
    opts.deadline_seconds = 10.0;
    try {
      client.call("nap", args, opts);
      return std::string("returned");
    } catch (const TimeoutError&) {
      return std::string("timeout");
    } catch (const TransportError&) {
      return std::string("transport error");
    }
  });
  ASSERT_TRUE(waitFor([&] { return entered.load(); }));
  const auto start = std::chrono::steady_clock::now();
  server.stop();
  EXPECT_EQ(pending.get(), "transport error");
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count(),
            5.0);
}

// ---- admission on the reactor: decode and inline answers ------------------

/// `nap(ms)` sleeps for `ms` on its worker, or until `cut` is set.
struct Nap {
  std::atomic<bool> entered{false};
  std::atomic<bool> cut{false};
};

void registerNap(Registry& registry, Nap& nap) {
  registry.add(
      R"IDL(Define nap(mode_in long ms, mode_out double echo[1])
         Calls "C" nap(ms, echo);)IDL",
      [&nap](server::CallContext& ctx) {
        nap.entered = true;
        const auto until = std::chrono::steady_clock::now() +
                           std::chrono::milliseconds(ctx.intArg("ms"));
        while (!nap.cut && std::chrono::steady_clock::now() < until) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        ctx.arrayOut("echo")[0] = 1.0;
      });
}

TEST(ReactorInline, LargeFrameSlabsAreReusedOnTheReactor) {
  // Every call body is 600 KB, a 1 MiB-class slab acquired by the
  // reactor for reassembly.  Freed on that same thread after decode, it
  // is back in the thread cache for the next frame.  Freed on a worker,
  // it would park in that worker's cache (up to 8 per thread) while the
  // reactor allocates fresh slabs.
  Registry registry;
  registry.add(
      R"IDL(Define vsum(mode_in long n, mode_in double x[n],
                        mode_out double s[1])
         Calls "C" vsum(n, x, s);)IDL",
      [](server::CallContext& ctx) {
        double sum = 0.0;
        for (const double v : ctx.arrayIn("x")) sum += v;
        ctx.arrayOut("s")[0] = sum;
      });
  NinfServer server(registry, {.workers = 2});
  auto listener = std::make_shared<transport::TcpListener>(0);
  server.start(listener);
  auto client = NinfClient::connectTcp("127.0.0.1", listener->port());

  constexpr std::int64_t kN = 75000;
  const std::vector<double> x(kN, 1.0);
  std::vector<double> s(1);
  const auto call = [&] {
    std::vector<protocol::ArgValue> args = {protocol::ArgValue::inInt(kN),
                                            protocol::ArgValue::inArray(x),
                                            protocol::ArgValue::outArray(s)};
    client->call("vsum", args);
    EXPECT_DOUBLE_EQ(s[0], static_cast<double>(kN));
  };
  call();
  call();
  obs::Counter& misses = obs::counter("pool.buffers.misses");
  const std::uint64_t before = misses.value();
  for (int i = 0; i < 32; ++i) call();
  EXPECT_LE(misses.value() - before, 8u);
  client->close();
  server.stop();
}

TEST(ReactorInline, FcfsSubmitIsAdmittedWhileTheWorkerComputes) {
  // Decode happens on the reactor, not in the FCFS compute queue, so a
  // new call is admitted (and its SubmitAck sent) while the only worker
  // is busy; its T_enqueue is its entry into that queue.
  Registry registry;
  Nap nap;
  registerNap(registry, nap);
  NinfServer server(registry, {.workers = 1});
  auto listener = std::make_shared<transport::TcpListener>(0);
  server.start(listener);
  auto busy = NinfClient::connectTcp("127.0.0.1", listener->port());
  auto submitter = NinfClient::connectTcp("127.0.0.1", listener->port());
  submitter->queryInterface("nap");

  auto held = std::async(std::launch::async, [&busy] {
    std::vector<double> echo(1);
    std::vector<protocol::ArgValue> args = {
        protocol::ArgValue::inInt(300), protocol::ArgValue::outArray(echo)};
    busy->call("nap", args);
    return echo[0];
  });
  ASSERT_TRUE(waitFor([&] { return nap.entered.load(); }));

  std::vector<double> echo(1);
  std::vector<protocol::ArgValue> args = {protocol::ArgValue::inInt(1),
                                          protocol::ArgValue::outArray(echo)};
  const auto start = std::chrono::steady_clock::now();
  const client::JobHandle handle = submitter->submit("nap", args);
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count(),
            0.1);
  EXPECT_DOUBLE_EQ(held.get(), 1.0);
  EXPECT_TRUE(waitFor([&] { return submitter->fetch(handle, args).has_value(); }));
  EXPECT_DOUBLE_EQ(echo[0], 1.0);
  busy->close();
  submitter->close();
  server.stop();
}

TEST(ReactorInline, PipelinedInlineAnswersKeepOrderAndConnections) {
  // Cache hits, decode errors (unknown entry, truncated arguments) and
  // SubmitAcks are answered on the reactor thread.  While the only
  // worker is held, a burst of them written in one send must still be
  // answered in full: in frame order on v1, once per call id on v2, with
  // both connections left open.
  Registry registry;
  Nap nap;
  registerNap(registry, nap);
  registry.add(
      R"IDL(Define idem(mode_in long n, mode_in double A[n],
                        mode_out double B[n])
         Idempotent,
         Calls "C" idem(n, A, B);)IDL",
      [](server::CallContext& ctx) {
        const auto in = ctx.arrayIn("A");
        auto out = ctx.arrayOut("B");
        for (std::size_t i = 0; i < in.size(); ++i) out[i] = 2.0 * in[i];
      });
  NinfServer server(registry, {.workers = 1});
  auto listener = std::make_shared<transport::TcpListener>(0);
  server.start(listener);
  const auto port = listener->port();
  const auto dial = [port] {
    auto stream = transport::tcpConnect("127.0.0.1", port);
    stream->setDeadlineIn(5.0);
    return stream;
  };

  const std::vector<double> in = {1.0, 2.0, 3.0, 4.0};
  std::vector<double> out(in.size());
  const std::vector<protocol::ArgValue> idem_args = {
      protocol::ArgValue::inInt(4), protocol::ArgValue::inArray(in),
      protocol::ArgValue::outArray(out)};
  {
    auto warm = NinfClient::connectTcp("127.0.0.1", port);
    warm->call("idem", idem_args);  // the burst's idem calls now hit
    warm->close();
  }
  auto busy = NinfClient::connectTcp("127.0.0.1", port);
  auto held = std::async(std::launch::async, [&busy] {
    std::vector<double> echo(1);
    std::vector<protocol::ArgValue> args = {
        protocol::ArgValue::inInt(10000), protocol::ArgValue::outArray(echo)};
    busy->call("nap", args);
  });
  ASSERT_TRUE(waitFor([&] { return nap.entered.load(); }));

  // Frame i carries kind i % 4.
  enum Kind { kHit, kUnknown, kSubmit, kTruncated };
  constexpr int kFrames = 12;
  std::vector<double> echo(1);
  const std::vector<protocol::ArgValue> nap_args = {
      protocol::ArgValue::inInt(1), protocol::ArgValue::outArray(echo)};
  const xdr::Encoder hit =
      protocol::buildCallRequest(registry.find("idem").info, idem_args);
  const xdr::Encoder submit =
      protocol::buildCallRequest(registry.find("nap").info, nap_args);
  xdr::Encoder unknown;
  unknown.putString("nosuch");
  xdr::Encoder truncated;  // n, but no array: misses the cache, fails decode
  truncated.putString("idem");
  truncated.putI64(4);
  const auto burst = [&](protocol::WireMode mode) {
    std::vector<std::uint8_t> wire;
    for (int i = 0; i < kFrames; ++i) {
      const Kind kind = static_cast<Kind>(i % 4);
      const xdr::Encoder& body = kind == kHit       ? hit
                                 : kind == kUnknown ? unknown
                                 : kind == kSubmit  ? submit
                                                    : truncated;
      const auto frame = protocol::flattenFramePooled(
          mode,
          kind == kSubmit ? MessageType::SubmitRequest
                          : MessageType::CallRequest,
          static_cast<std::uint64_t>(i + 1), {}, body);
      wire.insert(wire.end(), frame.span().begin(), frame.span().end());
    }
    return wire;
  };
  const auto expectAnswer = [](Kind kind, MessageType type,
                               std::span<const std::uint8_t> payload) {
    if (kind == kSubmit) {
      EXPECT_EQ(type, MessageType::SubmitAck);
      return;
    }
    ASSERT_EQ(type, MessageType::CallReply);
    xdr::Decoder dec(payload);
    EXPECT_EQ(dec.getU32(), kind == kHit ? 0u : 1u) << "status of kind "
                                                     << kind;
  };

  auto v1 = dial();
  auto v2 = dial();
  xdr::Encoder hello;
  hello.putU32(protocol::kVersion2);
  protocol::sendMessage(*v2, MessageType::Hello, hello);
  ASSERT_EQ(protocol::recvMessage(*v2).type, MessageType::HelloAck);
  ASSERT_TRUE(waitFor([] { return reactorFds() == 3.0; }))
      << "fds gauge " << reactorFds();

  v1->sendAll(burst(protocol::WireMode::V1));
  v2->sendAll(burst(protocol::WireMode::V2));
  for (int i = 0; i < kFrames; ++i) {
    const protocol::Message reply = protocol::recvMessage(*v1);
    expectAnswer(static_cast<Kind>(i % 4), reply.type, reply.payload);
  }
  std::set<std::uint64_t> answered;
  for (int i = 0; i < kFrames; ++i) {
    const protocol::FrameHeader header =
        protocol::recvHeader(*v2, protocol::WireMode::V2);
    std::vector<std::uint8_t> body(header.length);
    v2->recvAll(body);
    ASSERT_GE(header.call_id, 1u);
    ASSERT_LE(header.call_id, static_cast<std::uint64_t>(kFrames));
    EXPECT_TRUE(answered.insert(header.call_id).second)
        << "call " << header.call_id << " answered twice";
    expectAnswer(static_cast<Kind>((header.call_id - 1) % 4), header.type,
                 body);
  }
  // No extra reply is queued ahead of the Pongs, and neither connection
  // was closed.
  const std::vector<std::uint8_t> token = {4, 2};
  protocol::sendMessage(*v1, MessageType::Ping, token);
  EXPECT_EQ(protocol::recvMessage(*v1).type, MessageType::Pong);
  protocol::sendMessage(*v2, MessageType::Ping, token, protocol::WireMode::V2,
                        99);
  const protocol::FrameHeader pong =
      protocol::recvHeader(*v2, protocol::WireMode::V2);
  EXPECT_EQ(pong.type, MessageType::Pong);
  EXPECT_EQ(pong.call_id, 99u);
  std::vector<std::uint8_t> pong_body(pong.length);
  v2->recvAll(pong_body);
  EXPECT_EQ(reactorFds(), 3.0);

  // A client that hangs up straight after its burst: the inline answers
  // and the trailing staged call have nowhere to go.
  {
    auto gone = dial();
    std::vector<std::uint8_t> wire = burst(protocol::WireMode::V1);
    const auto staged = protocol::flattenFramePooled(
        protocol::WireMode::V1, MessageType::CallRequest, 0, {}, submit);
    wire.insert(wire.end(), staged.span().begin(), staged.span().end());
    gone->sendAll(wire);
    gone->close();
  }
  nap.cut = true;
  held.get();
  EXPECT_TRUE(waitFor([] { return reactorFds() == 3.0; }))
      << "fds gauge " << reactorFds();
  auto fresh = NinfClient::connectTcp("127.0.0.1", port);
  EXPECT_GE(fresh->ping(16), 0.0);
  fresh->close();
  busy->close();
  server.stop();
}

/// A stream and a listener with no pollable handle: nothing the reactor
/// can serve.
class UnpollableStream : public transport::Stream {
 public:
  void sendAll(std::span<const std::uint8_t>) override {}
  void recvAll(std::span<std::uint8_t>) override {
    throw TransportError("unpollable stream has no data");
  }
  void setDeadline(std::chrono::steady_clock::time_point) override {}
  void shutdownSend() override {}
  void close() override {}
  std::string peerName() const override { return "unpollable"; }
};

class UnpollableListener : public transport::Listener {
 public:
  std::unique_ptr<transport::Stream> accept() override { return nullptr; }
  void close() override {}
};

TEST(ReactorAdopt, RejectsStreamsAndListenersWithoutNativeHandle) {
  Registry registry;
  NinfServer server(registry, {.workers = 1});
  EXPECT_THROW(server.adopt(std::make_unique<UnpollableStream>()),
               TransportError);
  EXPECT_THROW(server.start(std::make_shared<UnpollableListener>()),
               TransportError);
  // The rejected listener did not count as started.
  auto listener = std::make_shared<transport::TcpListener>(0);
  server.start(listener);
  auto client = NinfClient::connectTcp("127.0.0.1", listener->port());
  EXPECT_GE(client->ping(), 0.0);
  client->close();
  server.stop();
}

/// A service with nothing to serve: its reactor only runs timers.
class IdleService final : public server::ReactorService {
 public:
  bool staged(MessageType) const override { return false; }
  common::PooledBuffer stageFrame(std::uint64_t, protocol::WireMode,
                                  protocol::Frame) override {
    return {};
  }
  Reply controlReply(MessageType, std::span<const std::uint8_t>) override {
    throw ProtocolError("idle service answers nothing");
  }
};

TEST(ReactorTimers, RunOnTheReactorThreadInDeadlineOrderAndDropAfterStop) {
  IdleService service;
  server::Reactor reactor(service, {0, "timer_test", "ninf-test-rx"}, {});
  using Clock = server::Reactor::Clock;
  using std::chrono::milliseconds;
  // Touched only by the reactor thread until `done` is set.
  std::vector<int> order;
  std::set<std::thread::id> threads;
  std::promise<void> done;
  const auto now = Clock::now();
  const auto record = [&](int n) {
    order.push_back(n);
    threads.insert(std::this_thread::get_id());
  };
  reactor.postAt(now + milliseconds(60), [&] {
    record(3);
    done.set_value();
  });
  const auto cancelled =
      reactor.postAt(now + milliseconds(40), [&] { record(-1); });
  reactor.postAt(now + milliseconds(20), [&] { record(1); });
  reactor.postAt(now + milliseconds(30), [&] {
    record(2);
    reactor.cancel(cancelled);  // has not run yet: never runs
  });
  ASSERT_EQ(done.get_future().wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  ASSERT_EQ(threads.size(), 1u);
  EXPECT_NE(*threads.begin(), std::this_thread::get_id());

  std::atomic<bool> ran_after_stop{false};
  reactor.postAt(Clock::now() + milliseconds(300),
                 [&] { ran_after_stop = true; });
  reactor.stop();
  reactor.postAt(Clock::now(), [&] { ran_after_stop = true; });
  std::this_thread::sleep_for(milliseconds(400));
  EXPECT_FALSE(ran_after_stop.load());
}

// ------------------------------------------------- metaserver node

double nodeFds() { return obs::gauge("metaserver.reactor.fds").value(); }

/// One unreplicated single-shard primary node, spoken to over raw v1
/// sockets.
class NodeReactorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    listener_ = std::make_shared<transport::TcpListener>(0);
    port_ = listener_->port();
    protocol::ShardInfo shard;
    shard.id = 0;
    shard.epoch = 1;
    shard.primary_endpoint = "127.0.0.1:" + std::to_string(port_);
    metaserver::NodeOptions opts;
    opts.self_endpoint = shard.primary_endpoint;
    opts.ring.shards.push_back(shard);
    node_ = std::make_unique<metaserver::MetaserverNode>(std::move(opts));
    node_->serve(listener_);
  }

  void TearDown() override { node_->stop(); }

  /// A raw connection; every send and receive gets a 5 s deadline, so a
  /// reply that never comes fails the test instead of hanging it.
  std::unique_ptr<transport::Stream> dial() const {
    auto stream = transport::tcpConnect("127.0.0.1", port_);
    stream->setDeadlineIn(5.0);
    return stream;
  }

  static void sendRingQuery(transport::Stream& stream) {
    xdr::Encoder enc;
    enc.putU64(0);  // known ring epoch
    protocol::sendMessage(stream, MessageType::RingQuery, enc);
  }

  /// Round-trip one RingQuery: the node is serving this connection.
  static void expectRingInfo(transport::Stream& stream) {
    sendRingQuery(stream);
    const protocol::Message reply = protocol::recvMessage(stream);
    ASSERT_EQ(reply.type, MessageType::RingInfo);
    xdr::Decoder dec(reply.payload);
    EXPECT_EQ(protocol::RingDescriptor::decode(dec).shards.size(), 1u);
  }

  /// True when the node closed `stream` (EOF), false when a reply came
  /// or the deadline ran out.
  static bool closedByNode(transport::Stream& stream) {
    try {
      protocol::recvMessage(stream);
      return false;
    } catch (const TimeoutError&) {
      return false;
    } catch (const TransportError&) {
      return true;
    }
  }

  std::shared_ptr<transport::TcpListener> listener_;
  std::uint16_t port_ = 0;
  std::unique_ptr<metaserver::MetaserverNode> node_;
};

TEST_F(NodeReactorTest, IdleConnectionsParkWithoutThreads) {
  constexpr int kIdle = 64;
  auto probe = dial();
  expectRingInfo(*probe);

  const int before = processThreadCount();
  ASSERT_GT(before, 0);
  std::vector<std::unique_ptr<transport::Stream>> idle;
  idle.reserve(kIdle);
  for (int i = 0; i < kIdle; ++i) {
    idle.push_back(transport::tcpConnect("127.0.0.1", port_));
  }
  EXPECT_TRUE(waitFor([&] { return nodeFds() >= kIdle + 1; }))
      << "fds gauge " << nodeFds();
  // A thread per connection would sit at before + kIdle here.
  EXPECT_LE(processThreadCount(), before)
      << "node spawned threads per connection";
  expectRingInfo(*probe);
}

TEST_F(NodeReactorTest, CountsUnderItsOwnMetricRoot) {
  // ninf-bench derives the compute server's writev figures from
  // server.reactor.*; control-plane traffic must not leak into them.
  const std::uint64_t server_flushes =
      obs::counter("server.reactor.batch.flushes").value();
  const std::uint64_t node_flushes =
      obs::counter("metaserver.reactor.batch.flushes").value();
  auto stream = dial();
  expectRingInfo(*stream);
  // The reactor bumps the flush counter after sendvNowait returns, so the
  // reply can reach us before the count moves.
  EXPECT_TRUE(waitFor([&] {
    return obs::counter("metaserver.reactor.batch.flushes").value() >
           node_flushes;
  }));
  EXPECT_EQ(obs::counter("server.reactor.batch.flushes").value(),
            server_flushes);
}

TEST_F(NodeReactorTest, HelloAgreesOnV2AndEchoesOnlySharding) {
  auto stream = dial();
  xdr::Encoder hello;
  hello.putU32(protocol::kVersion2);
  hello.putU32(protocol::kFeatureTraceContext | protocol::kFeatureSharding);
  protocol::sendMessage(*stream, MessageType::Hello, hello);
  const protocol::Message ack = protocol::recvMessage(*stream);
  ASSERT_EQ(ack.type, MessageType::HelloAck);
  xdr::Decoder dec(ack.payload);
  EXPECT_EQ(dec.getU32(), protocol::kVersion2);
  EXPECT_EQ(dec.getU32(), protocol::kFeatureSharding);
  // The connection switches to untraced v2 framing: the reply echoes
  // the request's call id.
  xdr::Encoder query;
  query.putU64(0);  // known ring epoch
  protocol::sendMessage(*stream, MessageType::RingQuery, query,
                        protocol::WireMode::V2, 7);
  const protocol::FrameHeader header =
      protocol::recvHeader(*stream, protocol::WireMode::V2);
  ASSERT_EQ(header.type, MessageType::RingInfo);
  EXPECT_EQ(header.call_id, 7u);
  std::vector<std::uint8_t> body(header.length);
  stream->recvAll(body);
  xdr::Decoder info(body);
  EXPECT_EQ(protocol::RingDescriptor::decode(info).shards.size(), 1u);
}

TEST_F(NodeReactorTest, PipelinedRepliesKeepRequestOrder) {
  // RingQuery and Ping are answered inline; ScheduleQuery takes the
  // worker hop, and the v1 hold keeps the Ping behind it waiting.
  auto stream = dial();
  const std::vector<std::uint8_t> first = {1, 2, 3, 4};
  const std::vector<std::uint8_t> second = {5, 6, 7, 8};
  sendRingQuery(*stream);
  protocol::sendMessage(*stream, MessageType::Ping, first);
  xdr::Encoder query;
  protocol::ScheduleRequest{.entry = "ep", .excluded = {}}.encode(query);
  protocol::sendMessage(*stream, MessageType::ScheduleQuery, query);
  protocol::sendMessage(*stream, MessageType::Ping, second);

  EXPECT_EQ(protocol::recvMessage(*stream).type, MessageType::RingInfo);
  const protocol::Message pong1 = protocol::recvMessage(*stream);
  EXPECT_EQ(pong1.type, MessageType::Pong);
  EXPECT_EQ(pong1.payload, first);
  const protocol::Message choice = protocol::recvMessage(*stream);
  ASSERT_EQ(choice.type, MessageType::ScheduleReply);
  xdr::Decoder dec(choice.payload);
  EXPECT_TRUE(protocol::ScheduleChoice::decode(dec).server_name.empty())
      << "no server is registered";
  const protocol::Message pong2 = protocol::recvMessage(*stream);
  EXPECT_EQ(pong2.type, MessageType::Pong);
  EXPECT_EQ(pong2.payload, second);
}

TEST_F(NodeReactorTest, UnknownMessageTypeClosesOnlyThatConnection) {
  auto bystander = dial();
  expectRingInfo(*bystander);
  auto bad = dial();
  // A compute-server request the control plane does not implement.
  protocol::sendMessage(*bad, MessageType::ListExecutables,
                        std::span<const std::uint8_t>{});
  EXPECT_TRUE(closedByNode(*bad));
  expectRingInfo(*bystander);
  auto fresh = dial();
  expectRingInfo(*fresh);
}

TEST_F(NodeReactorTest, RegistrationWithoutEndpointClosesOnlyThatConnection) {
  // The directory rejects the op with a failed precondition
  // (std::logic_error, not a ninf::Error); it must not escape the
  // reactor thread.
  auto bad = dial();
  protocol::RegistryOp op;
  op.desc.name = "nameless";
  op.reg_epoch = 1;
  xdr::Encoder enc;
  op.encode(enc);
  protocol::sendMessage(*bad, MessageType::RegisterServer, enc);
  EXPECT_TRUE(closedByNode(*bad));
  auto second = dial();
  expectRingInfo(*second);
  EXPECT_EQ(node_->directory().serverCount(), 0u);
}

TEST_F(NodeReactorTest, FailedScheduleQueryClosesOnlyThatConnection) {
  // An undecodable ScheduleQuery throws on a pool worker: the reactor
  // still gets the slot and the v1 hold back, and closes the connection
  // instead of leaving its peer waiting.
  auto bad = dial();
  protocol::sendMessage(*bad, MessageType::ScheduleQuery,
                        std::span<const std::uint8_t>{});
  EXPECT_TRUE(closedByNode(*bad));

  auto good = dial();
  xdr::Encoder query;
  protocol::ScheduleRequest{.entry = "ep", .excluded = {}}.encode(query);
  protocol::sendMessage(*good, MessageType::ScheduleQuery, query);
  EXPECT_EQ(protocol::recvMessage(*good).type, MessageType::ScheduleReply);
}

/// A computing server's status port under the test's control: it
/// accepts the node's status connection and answers each ServerStatus
/// only when told to.
class ScriptedStatusServer {
 public:
  std::uint16_t port() const { return listener_.port(); }

  /// Take the node's next ServerStatus; false when none arrives within
  /// `seconds`.
  bool nextRequest(double seconds) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(seconds);
    while (!conn_) {
      transport::AcceptStatus status{};
      conn_ = listener_.tryAccept(status);
      if (conn_) {
        EXPECT_TRUE(conn_->setNonBlocking(false));
        conn_->setDeadlineIn(5.0);
      } else if (std::chrono::steady_clock::now() > deadline) {
        return false;
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    const auto left = deadline - std::chrono::steady_clock::now();
    const int ms = static_cast<int>(std::max<std::int64_t>(
        0, std::chrono::duration_cast<std::chrono::milliseconds>(left)
               .count()));
    if (!readable(*conn_, ms)) return false;
    EXPECT_EQ(protocol::recvMessage(*conn_).type, MessageType::ServerStatus);
    return true;
  }

  void answer() {
    protocol::ServerStatusInfo info;
    protocol::sendMessage(*conn_, MessageType::StatusReply, info.toBytes());
  }

  /// True when the node closes its status connection within `seconds`.
  bool closedByNode(double seconds) {
    if (!readable(*conn_, static_cast<int>(seconds * 1000))) return false;
    try {
      protocol::recvMessage(*conn_);
      return false;
    } catch (const TransportError&) {
      return true;
    }
  }

  static bool readable(const transport::Stream& stream, int ms) {
    pollfd pfd{stream.nativeHandle(), POLLIN, 0};
    return ::poll(&pfd, 1, ms) == 1;
  }

 private:
  transport::TcpListener listener_{0};
  std::unique_ptr<transport::Stream> conn_;
};

/// A single-shard primary node polling servers the test registers,
/// asked for decisions over raw v1 sockets (one per decision: v1 holds
/// a connection while its query waits).
class NodePollerTest : public ::testing::Test {
 protected:
  void startNode(double poll_timeout) {
    listener_ = std::make_shared<transport::TcpListener>(0);
    port_ = listener_->port();
    protocol::ShardInfo shard;
    shard.id = 0;
    shard.epoch = 1;
    shard.primary_endpoint = "127.0.0.1:" + std::to_string(port_);
    metaserver::NodeOptions opts;
    opts.status_freshness = 0.0;  // every decision needs a fresh poll
    opts.poll_timeout = poll_timeout;
    opts.resolver = [](const std::string&) {
      return client::ConnectionFactory([]() -> std::unique_ptr<NinfClient> {
        throw TransportError("the node polls over its own connections");
      });
    };
    opts.self_endpoint = shard.primary_endpoint;
    opts.ring.shards.push_back(shard);
    node_ = std::make_unique<metaserver::MetaserverNode>(std::move(opts));
    node_->serve(listener_);
  }

  void TearDown() override {
    if (node_) node_->stop();
  }

  void registerServer(const std::string& name, std::uint16_t port) {
    protocol::RegistryOp op;
    op.desc.name = name;
    op.desc.endpoint = "127.0.0.1:" + std::to_string(port);
    op.desc.entries = {"ep"};
    op.reg_epoch = 1;
    ASSERT_EQ(node_->directory().apply(op),
              protocol::RegisterResult::Status::Applied);
  }

  /// Send one ScheduleQuery for "ep" on a fresh connection.
  std::unique_ptr<transport::Stream> query() const {
    auto stream = transport::tcpConnect("127.0.0.1", port_);
    stream->setDeadlineIn(10.0);
    xdr::Encoder enc;
    protocol::ScheduleRequest{.entry = "ep", .excluded = {}}.encode(enc);
    protocol::sendMessage(*stream, MessageType::ScheduleQuery, enc);
    return stream;
  }

  /// The server a decision named.
  static std::string chosen(transport::Stream& stream) {
    const protocol::Message reply = protocol::recvMessage(stream);
    EXPECT_EQ(reply.type, MessageType::ScheduleReply);
    xdr::Decoder dec(reply.payload);
    return protocol::ScheduleChoice::decode(dec).server_name;
  }

  /// Wait until the node has decoded `count` more queries than `base`.
  static bool decoded(std::uint64_t base, std::uint64_t count) {
    return waitFor([&] {
      return obs::counter("metaserver.shard.queries").value() >= base + count;
    }, 10.0);
  }

  std::shared_ptr<transport::TcpListener> listener_;
  std::uint16_t port_ = 0;
  std::unique_ptr<metaserver::MetaserverNode> node_;
};

TEST_F(NodePollerTest, MuteServerDelaysADecisionByAtMostThePollTimeout) {
  constexpr double kPollTimeout = 0.2;
  startNode(kPollTimeout);
  Registry registry;
  server::registerStandardExecutables(registry);
  NinfServer healthy(registry, {.workers = 1});
  auto healthy_listener = std::make_shared<transport::TcpListener>(0);
  healthy.start(healthy_listener);
  registerServer("healthy", healthy_listener->port());
  // Its kernel completes the node's connect, and nobody ever reads.
  transport::TcpListener mute(0);
  registerServer("mute", mute.port());

  const std::uint64_t timeouts_before =
      obs::counter("metaserver.status_poll_timeouts").value();
  for (int round = 0; round < 2; ++round) {
    const auto start = std::chrono::steady_clock::now();
    auto stream = query();
    EXPECT_EQ(chosen(*stream), "healthy");
    const double waited = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
    EXPECT_LT(waited, kPollTimeout + 1.0) << "round " << round;
  }
  EXPECT_GE(obs::counter("metaserver.status_poll_timeouts").value() -
                timeouts_before,
            2u);
  healthy.stop();
}

TEST_F(NodePollerTest, DecisionArrivingDuringAPollWaitsForTheNextOne) {
  startNode(10.0);
  ScriptedStatusServer status;
  registerServer("scripted", status.port());
  const std::uint64_t base = obs::counter("metaserver.shard.queries").value();

  auto first = query();
  ASSERT_TRUE(status.nextRequest(10.0)) << "no poll for the first decision";
  auto second = query();
  ASSERT_TRUE(decoded(base, 2));
  // The poll in flight started before the second decision arrived, so
  // its answer settles only the first.
  status.answer();
  EXPECT_EQ(chosen(*first), "scripted");
  ASSERT_TRUE(status.nextRequest(10.0)) << "no poll for the second decision";
  EXPECT_FALSE(ScriptedStatusServer::readable(*second, 100))
      << "the second decision was answered from the earlier poll";
  status.answer();
  EXPECT_EQ(chosen(*second), "scripted");
}

TEST_F(NodePollerTest, DecisionsArrivingBeforeAPollStartsShareIt) {
  startNode(10.0);
  ScriptedStatusServer status;
  registerServer("scripted", status.port());
  const std::uint64_t base = obs::counter("metaserver.shard.queries").value();

  auto first = query();
  ASSERT_TRUE(status.nextRequest(10.0));
  // Both arrive while the first poll is in flight: the next poll, which
  // starts when it ends, is theirs to share.
  auto second = query();
  auto third = query();
  ASSERT_TRUE(decoded(base, 3));
  status.answer();
  EXPECT_EQ(chosen(*first), "scripted");
  ASSERT_TRUE(status.nextRequest(10.0));
  status.answer();
  EXPECT_EQ(chosen(*second), "scripted");
  EXPECT_EQ(chosen(*third), "scripted");
  EXPECT_FALSE(status.nextRequest(0.2))
      << "the second and third decisions did not share one poll";
}

TEST_F(NodePollerTest, DeregisterClosesTheIdleStatusConnection) {
  startNode(10.0);
  ScriptedStatusServer status;
  registerServer("scripted", status.port());
  auto first = query();
  ASSERT_TRUE(status.nextRequest(10.0));
  status.answer();
  EXPECT_EQ(chosen(*first), "scripted");

  auto registrar = transport::tcpConnect("127.0.0.1", port_);
  registrar->setDeadlineIn(10.0);
  protocol::RegistryOp op;
  op.kind = protocol::RegistryOp::Kind::Deregister;
  op.desc.name = "scripted";
  op.desc.endpoint = "127.0.0.1:" + std::to_string(status.port());
  op.reg_epoch = 2;
  xdr::Encoder enc;
  op.encode(enc);
  protocol::sendMessage(*registrar, MessageType::DeregisterServer, enc);
  EXPECT_EQ(protocol::recvMessage(*registrar).type, MessageType::RegisterAck);
  EXPECT_TRUE(status.closedByNode(10.0))
      << "the node kept polling a deregistered server's connection open";
}

}  // namespace
}  // namespace ninf
