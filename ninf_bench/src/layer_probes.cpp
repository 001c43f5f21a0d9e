#include "layer_probes.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "numlib/ep.h"
#include "numlib/lu.h"
#include "protocol/call_marshal.h"
#include "server/result_cache.h"
#include "xdr/xdr.h"

namespace ninf_bench {

using ninf::protocol::ArgValue;
namespace numlib = ninf::numlib;
namespace protocol = ninf::protocol;

namespace {

/// Keeps probe results observable so the timed work is not elided.
volatile std::uint64_t g_sink = 0;

/// Median microseconds of one `op(i)`, over `batches` batches each long
/// enough (>= ~0.2 ms) for the clock to resolve it; `i` cycles the
/// sample inputs.
template <typename Op>
double medianMicros(std::size_t batches, Op&& op) {
  auto seconds = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  };
  std::size_t i = 0;
  const auto c0 = Clock::now();
  op(i++);
  const double once = std::max(seconds(c0, Clock::now()), 1e-8);
  const auto reps =
      static_cast<std::size_t>(std::clamp(2e-4 / once, 1.0, 1e5));
  std::vector<double> per_op;
  for (std::size_t b = 0; b < batches; ++b) {
    const auto t0 = Clock::now();
    for (std::size_t r = 0; r < reps; ++r) op(i++);
    per_op.push_back(seconds(t0, Clock::now()) / static_cast<double>(reps) *
                     1e6);
  }
  std::nth_element(per_op.begin(), per_op.begin() + per_op.size() / 2,
                   per_op.end());
  return per_op[per_op.size() / 2];
}

/// One sample call: its arguments (over storage owned here) and the wire
/// bodies the probes decode.
struct Sample {
  std::int64_t first = 0;
  numlib::Matrix a;
  std::vector<double> b;
  std::vector<double> out0;  // sums / x
  std::vector<double> out1;  // q
  std::vector<ArgValue> args;
  std::vector<std::uint8_t> request;
  protocol::ServerCallData data;
  std::vector<std::uint8_t> reply;
};

}  // namespace

double ProbeResults::blockingPathUs(bool hits) const {
  double sum = encode_call_us + cache_digest_us + decode_reply_us +
               ping_rtt_us + route_us;
  if (!hits) sum += decode_args_us + encode_reply_us;
  return sum;
}

ProbeResults runLayerProbes(Environment& env, const Inputs& inputs,
                            Lane lane) {
  const bool heavy = lane == Lane::Heavy;
  const std::string entry = heavy ? "linpack" : "ep";
  auto probe_client =
      ninf::client::NinfClient::connectTcp("127.0.0.1", env.serverPort(0), 5.0);
  const ninf::idl::InterfaceInfo& info = probe_client->queryInterface(entry, 5.0);

  // A sample of the inputs the workload generated.
  const std::size_t n_samples = heavy ? 4 : 16;
  std::vector<Sample> samples(n_samples);
  for (std::size_t s = 0; s < n_samples; ++s) {
    Sample& sm = samples[s];
    if (heavy) {
      sm.a = numlib::Matrix(kLinpackN, kLinpackN);
      inputs.linpackSystem(0, s, sm.a, sm.b);
      sm.out0.resize(kLinpackN);
      sm.args = {ArgValue::inInt(static_cast<std::int64_t>(kLinpackN)),
                 ArgValue::inInt(kLinpackOpt), ArgValue::inArray(sm.a.flat()),
                 ArgValue::inArray(sm.b), ArgValue::outArray(sm.out0)};
    } else {
      sm.first = lane == Lane::Meta ? inputs.epPool()[s % kEpPoolSize]
                                    : inputs.epFirst(0, s);
      sm.out0.resize(2);
      sm.out1.resize(10);
      sm.args = {ArgValue::inInt(sm.first), ArgValue::inInt(kEpCount),
                 ArgValue::outArray(sm.out0), ArgValue::outArray(sm.out1)};
    }
    sm.request = protocol::encodeCallRequest(info, sm.args);
    ninf::xdr::Decoder dec(sm.request);
    dec.getString();
    sm.data = protocol::decodeCallArgs(info, dec);
    sm.reply = protocol::encodeCallReply(info, sm.data, {});
  }
  auto sample = [&](std::size_t i) -> Sample& { return samples[i % n_samples]; };

  constexpr std::size_t kBatches = 15;
  ProbeResults r;
  r.request_bytes = samples[0].request.size();
  r.reply_bytes = samples[0].reply.size();
  r.encode_call_us = medianMicros(kBatches, [&](std::size_t i) {
    Sample& sm = sample(i);
    const ninf::xdr::Encoder enc = protocol::buildCallRequest(info, sm.args);
    g_sink = g_sink + enc.size();
  });
  r.decode_args_us = medianMicros(kBatches, [&](std::size_t i) {
    Sample& sm = sample(i);
    ninf::xdr::Decoder dec(sm.request);
    dec.getString();
    const protocol::ServerCallData data = protocol::decodeCallArgs(info, dec);
    g_sink = g_sink + data.arrays.size();
  });
  r.encode_reply_us = medianMicros(kBatches, [&](std::size_t i) {
    Sample& sm = sample(i);
    const ninf::xdr::Encoder enc =
        protocol::buildCallReply(info, sm.data, protocol::CallTimings{});
    g_sink = g_sink + enc.size();
  });
  r.decode_reply_us = medianMicros(kBatches, [&](std::size_t i) {
    Sample& sm = sample(i);
    const protocol::CallTimings t =
        protocol::decodeCallReply(info, std::span<const std::uint8_t>(sm.reply),
                                  sm.args);
    g_sink = g_sink + static_cast<std::uint64_t>(t.complete >= 0);
  });
  r.cache_digest_us = medianMicros(kBatches, [&](std::size_t i) {
    const auto d = ninf::server::ResultCache::digestOf(sample(i).request);
    g_sink = g_sink + d.a;
  });
  if (heavy) {
    numlib::Matrix work(kLinpackN, kLinpackN);
    std::vector<double> x(kLinpackN);
    r.kernel_us = medianMicros(5, [&](std::size_t i) {
      // What the linpack handler runs: copy A and b, then factor + solve.
      Sample& sm = sample(i);
      std::copy(sm.a.flat().begin(), sm.a.flat().end(), work.flat().begin());
      std::copy(sm.b.begin(), sm.b.end(), x.begin());
      numlib::luSolve(work, x, numlib::LuVariant::Blocked, 1);
      g_sink = g_sink + static_cast<std::uint64_t>(x[0] > 0);
    });
  } else {
    r.kernel_us = medianMicros(kBatches, [&](std::size_t i) {
      const numlib::EpResult e = numlib::runEp(sample(i).first, kEpCount);
      g_sink = g_sink + static_cast<std::uint64_t>(e.accepted);
    });
  }
  // The same number of bytes a call moves, split evenly both ways.
  const std::size_t ping_bytes = (r.request_bytes + r.reply_bytes + 1) / 2;
  r.ping_rtt_us = medianMicros(
      kBatches, [&](std::size_t) { (void)probe_client->ping(ping_bytes, 5.0); });
  if (lane == Lane::Meta) {
    r.route_us = medianMicros(kBatches, [&](std::size_t) {
      const auto choice = env.meta()->route(
          "ep", {}, Clock::now() + std::chrono::seconds(5));
      g_sink = g_sink + choice.server_name.size();
    });
  }
  probe_client->close();
  return r;
}

}  // namespace ninf_bench
