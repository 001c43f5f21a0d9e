// Ninf_call_async: futures over concurrent calls.
#include <gtest/gtest.h>

#include <atomic>

#include "client/async.h"
#include "client/dispatcher.h"
#include "common/error.h"
#include "numlib/ep.h"
#include "server/server.h"
#include "transport/tcp_transport.h"

namespace ninf::client {
namespace {

using protocol::ArgValue;

class AsyncFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    server::registerStandardExecutables(registry_);
    server_.emplace(registry_, server::ServerOptions{.workers = 4});
    auto listener = std::make_shared<transport::TcpListener>(0);
    port_ = listener->port();
    server().start(listener);
    dispatcher_.emplace(
        [this] { return NinfClient::connectTcp("127.0.0.1", port_); });
  }

  void TearDown() override { server().stop(); }

  server::Registry registry_;
  // Engaged in SetUp() for the whole test lifetime; the accessor
  // keeps the one unchecked dereference in a single audited place.
  // NOLINTNEXTLINE(bugprone-unchecked-optional-access)
  server::NinfServer& server() { return *server_; }
  std::optional<server::NinfServer> server_;
  std::uint16_t port_ = 0;
  // Engaged in SetUp() for the whole test lifetime; the accessor
  // keeps the one unchecked dereference in a single audited place.
  // NOLINTNEXTLINE(bugprone-unchecked-optional-access)
  DirectDispatcher& dispatcher() { return *dispatcher_; }
  std::optional<DirectDispatcher> dispatcher_;
};

TEST_F(AsyncFixture, SingleAsyncCallDeliversResult) {
  AsyncCaller async(dispatcher());
  std::vector<double> sums(2), q(10);
  auto fut = async.callAsync(
      "ep", {ArgValue::inInt(0), ArgValue::inInt(512),
             ArgValue::outArray(sums), ArgValue::outArray(q)});
  const CallResult r = fut.get();
  EXPECT_GT(r.elapsed, 0.0);
  EXPECT_DOUBLE_EQ(sums[0], numlib::runEp(0, 512).sx);
}

TEST_F(AsyncFixture, ManyInFlightCallsAllComplete) {
  AsyncCaller async(dispatcher());
  constexpr int kCalls = 12;
  std::vector<std::vector<double>> sums(kCalls, std::vector<double>(2));
  std::vector<std::vector<double>> qs(kCalls, std::vector<double>(10));
  std::vector<std::future<CallResult>> futures;
  for (int i = 0; i < kCalls; ++i) {
    futures.push_back(async.callAsync(
        "ep", {ArgValue::inInt(i * 256), ArgValue::inInt(256),
               ArgValue::outArray(sums[i]), ArgValue::outArray(qs[i])}));
  }
  for (auto& f : futures) f.get();
  double total = 0;
  for (const auto& s : sums) total += s[0];
  EXPECT_NEAR(total, numlib::runEp(0, kCalls * 256).sx, 1e-8);
}

TEST_F(AsyncFixture, DirectDispatcherDialsOnceForManyInFlightCalls) {
  std::atomic<int> dials{0};
  DirectDispatcher direct([this, &dials] {
    dials.fetch_add(1);
    return NinfClient::connectTcp("127.0.0.1", port_);
  });
  AsyncCaller async(direct);
  constexpr int kCalls = 12;
  std::vector<std::vector<double>> sums(kCalls, std::vector<double>(2));
  std::vector<std::vector<double>> qs(kCalls, std::vector<double>(10));
  std::vector<std::future<CallResult>> futures;
  for (int i = 0; i < kCalls; ++i) {
    futures.push_back(async.callAsync(
        "ep", {ArgValue::inInt(i * 256), ArgValue::inInt(256),
               ArgValue::outArray(sums[i]), ArgValue::outArray(qs[i])}));
  }
  for (auto& f : futures) f.get();
  // Every call multiplexed over the one shared connection.
  EXPECT_EQ(dials.load(), 1);
  double total = 0;
  for (const auto& s : sums) total += s[0];
  EXPECT_NEAR(total, numlib::runEp(0, kCalls * 256).sx, 1e-8);
}

TEST_F(AsyncFixture, WaitAllBlocksUntilDone) {
  AsyncCaller async(dispatcher());
  std::vector<double> sums(2), q(10);
  auto fut = async.callAsync(
      "ep", {ArgValue::inInt(0), ArgValue::inInt(4096),
             ArgValue::outArray(sums), ArgValue::outArray(q)});
  async.waitAll();
  // After waitAll the future must be immediately ready.
  EXPECT_EQ(fut.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
}

TEST_F(AsyncFixture, ErrorsSurfaceThroughFuture) {
  AsyncCaller async(dispatcher());
  std::vector<double> a(4, 0.0), b(2, 1.0), x(2);  // singular system
  auto fut = async.callAsync(
      "linpack", {ArgValue::inInt(2), ArgValue::inInt(0),
                  ArgValue::inArray(a), ArgValue::inArray(b),
                  ArgValue::outArray(x)});
  EXPECT_THROW(fut.get(), RemoteError);
}

TEST_F(AsyncFixture, DestructorJoinsOutstandingCalls) {
  std::vector<double> sums(2), q(10);
  {
    AsyncCaller async(dispatcher());
    async.callAsync("ep", {ArgValue::inInt(0), ArgValue::inInt(2048),
                           ArgValue::outArray(sums), ArgValue::outArray(q)});
    // Let ~AsyncCaller wait; sums must be fully written afterwards.
  }
  EXPECT_DOUBLE_EQ(sums[0], numlib::runEp(0, 2048).sx);
}

}  // namespace
}  // namespace ninf::client
