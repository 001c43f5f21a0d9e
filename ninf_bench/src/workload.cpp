#include "workload.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <thread>

#include "common/error.h"
#include "numlib/ep.h"
#include "numlib/linpack_driver.h"

namespace ninf_bench {

using ninf::protocol::ArgValue;
namespace client = ninf::client;
namespace metaserver = ninf::metaserver;
namespace numlib = ninf::numlib;
namespace server = ninf::server;

const char* laneName(Lane lane) {
  switch (lane) {
    case Lane::Light: return "light";
    case Lane::Heavy: return "heavy";
    case Lane::Meta: return "meta";
  }
  return "?";
}

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = {
      {.name = "small_calls",
       .servers = 1,
       .workers = 1,
       .connections = 1,
       .callers = {{Lane::Light, 0}, {Lane::Light, 0}},
       .counted = Lane::Light},
      {.name = "linpack_lan",
       .servers = 1,
       .workers = 2,
       .connections = 2,
       .callers = {{Lane::Heavy, 0}, {Lane::Heavy, 1}},
       .counted = Lane::Heavy},
      {.name = "mixed_hol",
       .servers = 1,
       .workers = 2,
       .connections = 2,
       .callers = {{Lane::Heavy, 0}, {Lane::Light, 1}},
       .counted = Lane::Light},
      {.name = "meta_dispatch",
       .servers = 2,
       .workers = 1,
       .metaserver = true,
       .callers = {{Lane::Meta, 0}, {Lane::Meta, 0}},
       .counted = Lane::Meta},
  };
  return specs;
}

const WorkloadSpec* findWorkload(std::string_view name) {
  for (const auto& spec : workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

// ---- inputs ----------------------------------------------------------------

namespace {

/// Independent stream for (seed, caller, seq).
ninf::SplitMix64 callStream(std::uint64_t seed, std::size_t caller,
                            std::uint64_t seq) {
  ninf::SplitMix64 mix(seed ^ 0x6e696e662d62656eULL);
  const std::uint64_t a = mix.next() ^ (static_cast<std::uint64_t>(caller) << 56);
  return ninf::SplitMix64(a + seq * 0x9e3779b97f4a7c15ULL);
}

}  // namespace

Inputs::Inputs(std::uint64_t seed, const WorkloadSpec& spec) : seed_(seed) {
  ninf::SplitMix64 rng(seed);
  // Any start below 2^40 pairs; the per-call offsets stay far below the
  // int64 range for any run length.
  ep_base_ = static_cast<std::int64_t>(rng.next() >> 24);
  for (std::size_t i = 0; i < kEpPoolSize; ++i) {
    ep_pool_.push_back(static_cast<std::int64_t>(rng.next() >> 24));
  }
  bool heavy = false;
  for (const auto& c : spec.callers) heavy = heavy || c.lane == Lane::Heavy;
  if (heavy) {
    for (std::size_t i = 0; i < 2; ++i) {
      bases_.push_back(numlib::randomMatrix(kLinpackN, rng.next()));
    }
  }
}

std::int64_t Inputs::epFirst(std::size_t caller, std::uint64_t seq) const {
  return ep_base_ +
         static_cast<std::int64_t>((seq * kMaxCallers + caller) *
                                   static_cast<std::uint64_t>(kEpCount));
}

void Inputs::linpackSystem(std::size_t caller, std::uint64_t seq,
                           numlib::Matrix& a, std::vector<double>& b) const {
  const numlib::Matrix& base = bases_.at((caller + seq) % bases_.size());
  std::memcpy(a.data(), base.data(), kLinpackN * kLinpackN * sizeof(double));
  ninf::SplitMix64 rng = callStream(seed_, caller, seq);
  auto column = a.col(static_cast<std::size_t>(seq % kLinpackN));
  for (double& v : column) v = rng.nextDouble() - 0.5;
  b.resize(kLinpackN);
  for (double& v : b) v = rng.nextDouble() - 0.5;
}

std::uint64_t epReplyDigest(const double* sums, const double* q) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    h = (h ^ bits) * 0x100000001b3ULL;
  };
  mix(sums[0]);
  mix(sums[1]);
  for (int i = 0; i < 10; ++i) mix(q[i]);
  return h;
}

std::uint64_t epExpectedDigest(std::int64_t first) {
  const numlib::EpResult r = numlib::runEp(first, kEpCount);
  const double sums[2] = {r.sx, r.sy};
  double q[10];
  for (int i = 0; i < 10; ++i) q[i] = static_cast<double>(r.q[i]);
  return epReplyDigest(sums, q);
}

// ---- callers ---------------------------------------------------------------

Caller::Caller(Lane lane, std::size_t index, const Inputs& inputs,
               client::NinfClient* client,
               metaserver::ShardedMetaserver* meta)
    : lane_(lane),
      index_(index),
      inputs_(inputs),
      client_(client),
      meta_(meta),
      rng_(inputs.seed() * 31 + index + 1) {
  if (lane_ == Lane::Heavy) {
    a_ = numlib::Matrix(kLinpackN, kLinpackN);
    b_.resize(kLinpackN);
    x_.resize(kLinpackN);
  }
}

void Caller::beginPhase(std::size_t expected_calls) {
  latencies.clear();
  records.clear();
  latencies.reserve(expected_calls);
  if (lane_ == Lane::Heavy) {
    linpack_seqs_.reserve(linpack_seqs_.size() + expected_calls);
    linpack_x_.reserve(linpack_x_.size() + expected_calls * kLinpackN);
  } else {
    ep_checks_.reserve(ep_checks_.size() + expected_calls);
  }
}

void Caller::callOnce(bool traced, Clock::time_point phase_start) {
  const std::uint64_t seq = seq_++;
  attempted.fetch_add(1, std::memory_order_relaxed);
  try {
    switch (lane_) {
      case Lane::Light:
      case Lane::Meta: {
        const std::int64_t first =
            lane_ == Lane::Light
                ? inputs_.epFirst(index_, seq)
                : inputs_.epPool()[rng_.nextBelow(kEpPoolSize)];
        const ArgValue args[] = {ArgValue::inInt(first),
                                 ArgValue::inInt(kEpCount),
                                 ArgValue::outArray(sums_),
                                 ArgValue::outArray(q_)};
        const auto t0 = Clock::now();
        const client::CallResult r = lane_ == Lane::Light
                                         ? client_->call("ep", args)
                                         : meta_->dispatch("ep", args);
        const auto t1 = Clock::now();
        ep_checks_.push_back({first, epReplyDigest(sums_, q_)});
        finish(t0, t1, r, traced, phase_start);
        break;
      }
      case Lane::Heavy: {
        inputs_.linpackSystem(index_, seq, a_, b_);
        const ArgValue args[] = {
            ArgValue::inInt(static_cast<std::int64_t>(kLinpackN)),
            ArgValue::inInt(kLinpackOpt), ArgValue::inArray(a_.flat()),
            ArgValue::inArray(b_), ArgValue::outArray(x_)};
        const auto t0 = Clock::now();
        const client::CallResult r = client_->call("linpack", args);
        const auto t1 = Clock::now();
        linpack_seqs_.push_back(seq);
        linpack_x_.insert(linpack_x_.end(), x_.begin(), x_.end());
        finish(t0, t1, r, traced, phase_start);
        break;
      }
    }
  } catch (const std::exception& e) {
    if (failed.fetch_add(1, std::memory_order_relaxed) < 3) {
      std::fprintf(stderr, "ninf_bench: %s call failed: %s\n",
                   laneName(lane_), e.what());
    }
  }
}

void Caller::finish(Clock::time_point t0, Clock::time_point t1,
                    const client::CallResult& r, bool traced,
                    Clock::time_point phase_start) {
  const double latency = std::chrono::duration<double>(t1 - t0).count();
  latencies.push_back(latency);
  if (traced) {
    records.push_back(
        {std::chrono::duration<double>(t0 - phase_start).count(), latency,
         r.elapsed, r.server});
  }
  payload_bytes.fetch_add(
      static_cast<std::uint64_t>(r.bytes_sent + r.bytes_received),
      std::memory_order_relaxed);
  completed.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t Caller::verifiedReplies() const {
  return lane_ == Lane::Heavy ? linpack_seqs_.size() : ep_checks_.size();
}

std::uint64_t Caller::verify() const {
  std::uint64_t wrong = 0;
  if (lane_ == Lane::Heavy) {
    numlib::Matrix a(kLinpackN, kLinpackN);
    std::vector<double> b;
    for (std::size_t i = 0; i < linpack_seqs_.size(); ++i) {
      inputs_.linpackSystem(index_, linpack_seqs_[i], a, b);
      const std::span<const double> x(linpack_x_.data() + i * kLinpackN,
                                      kLinpackN);
      const double residual = numlib::linpackResidual(a, x, b);
      if (!(residual < numlib::kResidualThreshold)) ++wrong;
    }
    return wrong;
  }
  // Meta-lane arguments repeat, so check each distinct `first` once.
  std::vector<std::pair<std::int64_t, std::uint64_t>> known;
  for (const EpCheck& c : ep_checks_) {
    std::uint64_t expected = 0;
    if (lane_ == Lane::Meta) {
      bool found = false;
      for (const auto& [first, digest] : known) {
        if (first == c.first) {
          expected = digest;
          found = true;
          break;
        }
      }
      if (!found) {
        expected = epExpectedDigest(c.first);
        known.emplace_back(c.first, expected);
      }
    } else {
      expected = epExpectedDigest(c.first);
    }
    if (c.digest != expected) ++wrong;
  }
  return wrong;
}

// ---- environment -----------------------------------------------------------

namespace {

std::string endpointOf(std::uint16_t port) {
  return "127.0.0.1:" + std::to_string(port);
}

std::unique_ptr<client::NinfClient> dialEndpoint(const std::string& endpoint) {
  const auto colon = endpoint.rfind(':');
  if (colon == std::string::npos) {
    throw ninf::TransportError("bad endpoint '" + endpoint + "'");
  }
  return client::NinfClient::connectTcp(
      endpoint.substr(0, colon),
      static_cast<std::uint16_t>(std::stoi(endpoint.substr(colon + 1))), 5.0);
}

}  // namespace

Environment::Environment(const WorkloadSpec& spec, const Inputs& inputs)
    : spec_(spec) {
  for (std::size_t i = 0; i < spec.servers; ++i) {
    registries_.push_back(std::make_unique<server::Registry>());
    server::registerStandardExecutables(*registries_.back(), spec.workers);
    servers_.push_back(std::make_unique<server::NinfServer>(
        *registries_.back(),
        server::ServerOptions{.workers = spec.workers,
                              .name = "bench" + std::to_string(i)}));
    auto listener = std::make_shared<ninf::transport::TcpListener>(0);
    ports_.push_back(listener->port());
    servers_.back()->start(listener);
  }

  if (spec.metaserver) {
    auto listener = std::make_shared<ninf::transport::TcpListener>(0);
    const std::string node_ep = endpointOf(listener->port());
    ninf::protocol::ShardInfo shard;
    shard.id = 0;
    shard.epoch = 1;
    shard.primary_endpoint = node_ep;
    metaserver::NodeOptions nopts;
    nopts.shard_id = 0;
    nopts.primary = true;
    nopts.status_freshness = 0.0;  // poll every decision (paper's model)
    nopts.resolver = [](const std::string& endpoint) {
      return client::ConnectionFactory(
          [endpoint] { return dialEndpoint(endpoint); });
    };
    nopts.self_endpoint = node_ep;
    nopts.ring.shards.push_back(shard);
    node_ = std::make_unique<metaserver::MetaserverNode>(std::move(nopts));
    node_->serve(listener);

    metaserver::ShardedOptions sopts;
    sopts.seeds = {node_ep};
    sopts.node_dialer = dialEndpoint;
    sopts.server_dialer = dialEndpoint;
    meta_ = std::make_unique<metaserver::ShardedMetaserver>(std::move(sopts));
    for (std::size_t i = 0; i < spec.servers; ++i) {
      ninf::protocol::WireServerDesc desc;
      desc.name = "server-" + std::to_string(i);
      desc.endpoint = endpointOf(ports_[i]);
      desc.entries = {"ep"};
      meta_->registerServer(desc, 1, 10.0);
    }
  }

  for (std::size_t c = 0; c < spec.connections; ++c) {
    clients_.push_back(client::NinfClient::connectTcp("127.0.0.1", ports_[0], 5.0));
  }
  for (const CallerSpec& c : spec.callers) {
    client::NinfClient* cl = nullptr;
    if (c.lane != Lane::Meta) {
      cl = clients_.at(c.connection).get();
      cl->queryInterface(c.lane == Lane::Heavy ? "linpack" : "ep", 5.0);
    }
    callers_.push_back(std::make_unique<Caller>(
        c.lane, callers_.size(), inputs, cl, meta_.get()));
  }
}

Environment::~Environment() {
  callers_.clear();
  meta_.reset();
  if (node_) node_->stop();
  for (auto& c : clients_) c->close();
  clients_.clear();
  for (auto& s : servers_) s->stop();
}

// ---- phases ----------------------------------------------------------------

namespace {

/// Start one thread per caller running `body(caller)`, join them, and
/// end the process if any is still stuck `grace` seconds after `deadline`.
template <typename Body>
void runCallers(Environment& env, Clock::time_point deadline, double grace,
                Body&& body) {
  std::atomic<std::size_t> done{0};
  std::vector<std::thread> threads;
  for (auto& caller : env.callers()) {
    threads.emplace_back([&body, &done, c = caller.get()] {
      body(*c);
      done.fetch_add(1, std::memory_order_release);
    });
  }
  const auto limit =
      deadline + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(grace));
  while (done.load(std::memory_order_acquire) < threads.size()) {
    if (Clock::now() > limit) {
      std::fprintf(stderr, "ninf_bench: a caller is stuck; giving up\n");
      std::fflush(stderr);
      std::_Exit(3);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  for (auto& t : threads) t.join();
}

Boundary sampleBoundary(Environment& env, Clock::time_point start) {
  Boundary b;
  b.t = std::chrono::duration<double>(Clock::now() - start).count();
  for (auto& c : env.callers()) {
    const std::uint64_t n = c->completed.load(std::memory_order_relaxed);
    if (c->lane() == env.spec().counted) b.counted += n;
    if (c->lane() == Lane::Heavy) b.heavy += n;
    b.all += n;
    b.bytes += c->payload_bytes.load(std::memory_order_relaxed);
  }
  b.process = sampleProcess();
  return b;
}

}  // namespace

void runCalls(Environment& env, std::size_t light, std::size_t heavy,
              std::size_t meta) {
  const auto start = Clock::now();
  runCallers(env, start, 120.0, [&](Caller& c) {
    const std::size_t n = c.lane() == Lane::Light   ? light
                          : c.lane() == Lane::Heavy ? heavy
                                                    : meta;
    c.beginPhase(n);
    for (std::size_t i = 0; i < n; ++i) c.callOnce(false, start);
  });
}

PhaseResult runTimed(Environment& env, double seconds, int windows,
                     bool traced) {
  PhaseResult result;
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  Clock::time_point start{};
  std::thread sampler;
  // Expected calls per caller: generous, so the logs never reallocate
  // while calls are being timed.
  const auto per_second = [](Lane lane) -> std::size_t {
    return lane == Lane::Heavy ? 1000 : 40000;
  };
  for (auto& c : env.callers()) {
    c->beginPhase(static_cast<std::size_t>(
        static_cast<double>(per_second(c->lane())) * seconds));
    if (traced) c->records.reserve(c->latencies.capacity());
  }
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds + 1.0));
  sampler = std::thread([&] {
    start = Clock::now();
    result.boundaries.push_back(sampleBoundary(env, start));
    go.store(true, std::memory_order_release);
    for (int w = 1; w <= windows; ++w) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(seconds * w / windows)));
      result.boundaries.push_back(sampleBoundary(env, start));
      if (w == (windows + 1) / 2) result.threads = processThreads();
    }
    stop.store(true, std::memory_order_release);
  });
  runCallers(env, deadline, 30.0, [&](Caller& c) {
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    while (!stop.load(std::memory_order_relaxed)) c.callOnce(traced, start);
  });
  sampler.join();
  return result;
}

}  // namespace ninf_bench
