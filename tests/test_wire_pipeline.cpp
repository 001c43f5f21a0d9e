// Streaming wire pipeline acceptance: large-array calls must flow
// end-to-end without the client's peak contiguous wire buffer ever
// approaching the array payload size — the scatter-gather path
// byteswaps through a bounded scratch and receives OUT array bytes
// straight into their final destination.  The server's reactor holds
// each request frame whole, once, and reports it in a gauge of its own.
#include <gtest/gtest.h>

#include <thread>

#include "client/client.h"
#include "common/error.h"
#include "numlib/matrix.h"
#include "numlib/mmul.h"
#include "obs/metrics.h"
#include "protocol/call_marshal.h"
#include "server/server.h"
#include "transport/inproc_transport.h"
#include "xdr/xdr.h"

namespace ninf {
namespace {

using client::NinfClient;
using protocol::ArgValue;
using server::NinfServer;
using server::Registry;

class WirePipeline : public ::testing::Test {
 protected:
  void SetUp() override {
    server::registerStandardExecutables(registry_, 2);
    server_.emplace(registry_, server::ServerOptions{.workers = 2});
    auto [client_end, server_end] = transport::inprocPair();
    client_.emplace(std::move(client_end));
    server().adopt(std::move(server_end));
  }

  void TearDown() override {
    client().close();
    server().stop();
  }

  Registry registry_;
  // Engaged in SetUp() for the whole test lifetime; the accessor
  // keeps the one unchecked dereference in a single audited place.
  // NOLINTNEXTLINE(bugprone-unchecked-optional-access)
  NinfServer& server() { return *server_; }
  std::optional<NinfServer> server_;
  // Engaged in SetUp() for the whole test lifetime; the accessor
  // keeps the one unchecked dereference in a single audited place.
  // NOLINTNEXTLINE(bugprone-unchecked-optional-access)
  NinfClient& client() { return *client_; }
  std::optional<NinfClient> client_;
};

/// Upper bound for the peak gauge: the 64 KiB byteswap scratch plus the
/// scalar sections, headers, and the body reader's 4 KiB buffer, with
/// generous slack.  Any full-message materialization of the arrays in
/// this test would overshoot it by an order of magnitude.
constexpr double kPeakBudget = 256.0 * 1024.0;

/// The server side is measured apart from the streamed codec: the
/// reactor reassembles each request frame whole into one slab, so its
/// frame gauge must cover the request body once — one copy per admitted
/// call — and never reach two.
void expectOneServerFrameCopy(NinfClient& client,
                              const std::vector<ArgValue>& args) {
  const double body = static_cast<double>(
      protocol::buildCallRequest(client.queryInterface("dmmul"), args)
          .size());
  const double frame_peak =
      obs::gauge("server.reactor.peak_frame_bytes").value();
  EXPECT_GE(frame_peak, body);
  EXPECT_LT(frame_peak, 2.0 * body);
}

TEST_F(WirePipeline, LargeCallNeverMaterializesArrayPayload) {
  const std::size_t n = 384;  // three n*n arrays of 1.125 MiB each
  const numlib::Matrix a = numlib::randomMatrix(n, 11);
  const numlib::Matrix b = numlib::randomMatrix(n, 12);
  std::vector<double> c(n * n);
  std::vector<ArgValue> args = {
      ArgValue::inInt(static_cast<std::int64_t>(n)),
      ArgValue::inArray(a.flat()), ArgValue::inArray(b.flat()),
      ArgValue::outArray(c)};
  // Warm the interface cache, then measure only the data path.
  client().queryInterface("dmmul");
  obs::MetricsRegistry::instance().reset();

  const auto result = client().call("dmmul", args);

  const double array_bytes = static_cast<double>(n * n * sizeof(double));
  const double peak = obs::gauge("wire.peak_buffer_bytes").value();
  EXPECT_GT(peak, 0.0);
  EXPECT_LE(peak, kPeakBudget);
  EXPECT_LT(peak * 4.0, array_bytes)
      << "peak wire buffer is within 4x of one array: the pipeline is "
         "materializing payloads";
  EXPECT_GT(result.bytes_sent,
            static_cast<std::int64_t>(2 * n * n * sizeof(double)));
  expectOneServerFrameCopy(client(), args);

  // And the math still has to be right.
  const numlib::Matrix expected = numlib::dmmul(a, b);
  for (std::size_t i = 0; i < c.size(); i += 997) {
    EXPECT_NEAR(c[i], expected.flat()[i], 1e-9);
  }
}

TEST_F(WirePipeline, TwoPhaseLargeArraysStayStreamed) {
  const std::size_t n = 384;
  const numlib::Matrix a = numlib::randomMatrix(n, 21);
  const numlib::Matrix b = numlib::randomMatrix(n, 22);
  std::vector<double> c(n * n);
  std::vector<ArgValue> args = {
      ArgValue::inInt(static_cast<std::int64_t>(n)),
      ArgValue::inArray(a.flat()), ArgValue::inArray(b.flat()),
      ArgValue::outArray(c)};
  client().queryInterface("dmmul");
  obs::MetricsRegistry::instance().reset();

  const auto handle = client().submit("dmmul", args);
  std::optional<client::CallResult> result;
  for (int attempt = 0; attempt < 2000 && !result; ++attempt) {
    result = client().fetch(handle, args);
    if (!result) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(result.has_value());

  const double peak = obs::gauge("wire.peak_buffer_bytes").value();
  EXPECT_GT(peak, 0.0);
  EXPECT_LE(peak, kPeakBudget);
  expectOneServerFrameCopy(client(), args);

  const numlib::Matrix expected = numlib::dmmul(a, b);
  for (std::size_t i = 0; i < c.size(); i += 997) {
    EXPECT_NEAR(c[i], expected.flat()[i], 1e-9);
  }
}

TEST_F(WirePipeline, SmallCallsStillInlineBelowThreshold) {
  // Arrays below kArrayRefThresholdElems ship inline: the call works and
  // the peak buffer stays tiny (single contiguous frame).
  const std::size_t n = 8;
  const numlib::Matrix a = numlib::randomMatrix(n, 5);
  const numlib::Matrix b = numlib::randomMatrix(n, 6);
  std::vector<double> c(n * n);
  std::vector<ArgValue> args = {
      ArgValue::inInt(static_cast<std::int64_t>(n)),
      ArgValue::inArray(a.flat()), ArgValue::inArray(b.flat()),
      ArgValue::outArray(c)};
  client().call("dmmul", args);
  const numlib::Matrix expected = numlib::dmmul(a, b);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c[i], expected.flat()[i], 1e-12);
  }
}

TEST(ClientConnect, FailureNamesHostAndPort) {
  try {
    NinfClient::connectTcp("127.0.0.1", 1, 2.0);
    FAIL() << "expected TransportError";
  } catch (const TransportError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("127.0.0.1:1"), std::string::npos) << what;
    EXPECT_NE(what.find("unreachable"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace ninf
