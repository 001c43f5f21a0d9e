// Session-layer throughput: the same ping workload pushed through
// (a) one fresh TCP connection per call — the historical client, and
// (b) one shared call-ID multiplexed connection.
//
// Reports aggregate MB/s over the echoed payload; the multiplexed mode
// should beat connection-per-call by roughly the connect + negotiation
// cost amortized across calls, most visibly at small payloads and high
// thread counts.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "client/client.h"
#include "common/batch.h"
#include "common/error.h"
#include "common/table.h"
#include "obs/metrics.h"
#include "obs/trace_session.h"
#include "server/registry.h"
#include "server/server.h"
#include "transport/tcp_transport.h"

using namespace ninf;

namespace {

struct Config {
  std::size_t calls = 64;         // total calls per mode
  std::size_t threads = 4;        // concurrent callers
  std::size_t payload = 1 << 20;  // ping payload bytes per call
  std::size_t workers = 4;        // server execution threads
  bool compare_batching = false;  // hot-path mode (see below)
  std::string json_path;          // --json output (empty = none)
};

struct RunResult {
  double wall_s = 0.0;
  std::vector<double> latencies_ms;  // one sample per call, unsorted
};

bench::LatencyStats latencyStats(std::vector<double> samples) {
  bench::LatencyStats out;
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  auto pct = [&](double p) {
    const double rank = p / 100.0 * static_cast<double>(samples.size());
    std::size_t idx =
        rank <= 1.0 ? 0 : static_cast<std::size_t>(std::ceil(rank)) - 1;
    return samples[std::min(idx, samples.size() - 1)];
  };
  out.mean_ms = std::accumulate(samples.begin(), samples.end(), 0.0) /
                static_cast<double>(samples.size());
  out.p50_ms = pct(50);
  out.p95_ms = pct(95);
  out.p99_ms = pct(99);
  out.max_ms = samples.back();
  return out;
}

double secondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Run `cfg.calls` pings across `cfg.threads` threads; `perCall` maps a
/// call index to the client to use.  Returns wall seconds plus the
/// per-call latency samples.
template <typename PerCall>
RunResult timedRun(const Config& cfg, PerCall perCall) {
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::vector<double> latencies(cfg.calls, 0.0);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < cfg.threads; ++t) {
    threads.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= cfg.calls) return;
        try {
          const auto t0 = std::chrono::steady_clock::now();
          perCall(i);
          latencies[i] = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
        } catch (const Error& e) {
          std::fprintf(stderr, "call %zu failed: %s\n", i, e.what());
          failed.store(true);
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  if (failed.load()) std::exit(1);
  return RunResult{secondsSince(start), std::move(latencies)};
}

}  // namespace

int main(int argc, char** argv) {
  obs::TraceSession trace(obs::TraceSession::flagFromArgs(argc, argv));
  Config cfg;
  bool payload_set = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::size_t {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    };
    if (arg == "--calls") cfg.calls = value();
    else if (arg == "--threads") cfg.threads = value();
    else if (arg == "--payload") { cfg.payload = value(); payload_set = true; }
    else if (arg == "--workers") cfg.workers = value();
    else if (arg == "--compare-batching") cfg.compare_batching = true;
    else if (arg == "--json") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--json needs a value\n");
        return 2;
      }
      cfg.json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--calls N] [--threads T] [--payload BYTES] "
                   "[--workers W] [--compare-batching] "
                   "[--json PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  // The batching comparison is about SMALL calls (large frames bypass
  // the group-commit path by design); default to a 512-byte ping there.
  if (cfg.compare_batching && !payload_set) cfg.payload = 512;

  server::Registry registry;
  server::registerStandardExecutables(registry);
  server::NinfServer server(
      registry, server::ServerOptions{.workers = cfg.workers});
  auto listener = std::make_shared<transport::TcpListener>(0);
  const auto port = listener->port();
  server.start(listener);
  auto factory = [port] {
    return client::NinfClient::connectTcp("127.0.0.1", port);
  };

  std::printf(
      "Session-layer ping throughput: %zu calls x %zu bytes, %zu threads, "
      "%zu server workers\n\n",
      cfg.calls, cfg.payload, cfg.threads, cfg.workers);
  // Echoed both ways, so each call moves 2x the payload.
  const double mb_total = 2.0 * static_cast<double>(cfg.payload) *
                          static_cast<double>(cfg.calls) / 1e6;
  TextTable table({"mode", "wall [s]", "calls/s", "MB/s"});
  bench::BenchReport json_report;
  json_report.bench = "multiplex";
  json_report.config = {
      {"calls", static_cast<double>(cfg.calls)},
      {"threads", static_cast<double>(cfg.threads)},
      {"payload", static_cast<double>(cfg.payload)},
      {"server_workers", static_cast<double>(cfg.workers)},
  };
  auto report = [&](const char* mode, RunResult run) {
    const double wall = run.wall_s;
    auto& row = table.row();
    row.cell(mode);
    row.cell(wall, 3);
    row.cell(static_cast<double>(cfg.calls) / wall, 1);
    row.cell(mb_total / wall, 2);

    bench::BenchStep step;
    step.label = mode;
    step.values = {{"mb_per_s", mb_total / wall}};
    step.duration_s = wall;
    step.calls = cfg.calls;
    step.errors = 0;  // any failed call aborts the run above
    step.throughput_cps = static_cast<double>(cfg.calls) / wall;
    step.latency = latencyStats(std::move(run.latencies_ms));
    json_report.steps.push_back(std::move(step));
  };

  if (cfg.compare_batching) {
    // Hot-path report ("hotpath" bench): small-call throughput with the
    // group-commit coalescing disabled (max_iov = 1: one syscall per
    // frame, the pre-batching behaviour) vs enabled, then a step of
    // byte-identical Idempotent dmmul calls exercising the server's
    // result cache.  Every step shares ONE multiplexed channel, so
    // --threads is the in-flight call depth.  setBatchLimits is
    // process-wide: off/on applies to the client flusher AND the
    // server's reactor write queue together.
    bench::BenchReport hot;
    hot.bench = "hotpath";
    hot.config = {
        {"calls", static_cast<double>(cfg.calls)},
        {"inflight", static_cast<double>(cfg.threads)},
        {"payload", static_cast<double>(cfg.payload)},
        {"server_workers", static_cast<double>(cfg.workers)},
        // Coalescing wins depend on real caller concurrency; record the
        // host so a 1-core container's numbers aren't read as a WAN box.
        {"host_cpus",
         static_cast<double>(std::thread::hardware_concurrency())},
    };
    auto counter = [](const char* name) {
      return obs::counter(name).value();
    };
    auto shared = factory();
    shared->ping(cfg.payload);  // negotiate v2 before any clock runs

    TextTable hot_table({"step", "wall [s]", "calls/s", "frames/writev",
                         "note"});
    auto runMode = [&](const char* label, common::BatchLimits limits) {
      common::setBatchLimits(limits);
      const double cf0 = counter("channel.batch.frames");
      const double cl0 = counter("channel.batch.flushes");
      const double sf0 = counter("server.reactor.batch.frames");
      const double sl0 = counter("server.reactor.batch.flushes");
      RunResult run =
          timedRun(cfg, [&](std::size_t) { shared->ping(cfg.payload); });
      const double cflushes = counter("channel.batch.flushes") - cl0;
      const double sflushes = counter("server.reactor.batch.flushes") - sl0;
      const double client_fpw =
          cflushes > 0 ? (counter("channel.batch.frames") - cf0) / cflushes
                       : 0.0;
      const double server_fpw =
          sflushes > 0
              ? (counter("server.reactor.batch.frames") - sf0) / sflushes
              : 0.0;
      hot_table.row()
          .cell(label)
          .cell(run.wall_s, 3)
          .cell(static_cast<double>(cfg.calls) / run.wall_s, 1)
          .cell(client_fpw, 2)
          .cell(limits.max_iov == 1 ? "coalescing off" : "coalescing on");
      bench::BenchStep step;
      step.label = label;
      step.values = {
          {"max_iov", static_cast<double>(limits.max_iov)},
          {"client_frames_per_writev", client_fpw},
          {"server_frames_per_writev", server_fpw},
      };
      step.duration_s = run.wall_s;
      step.calls = cfg.calls;
      step.errors = 0;
      step.throughput_cps = static_cast<double>(cfg.calls) / run.wall_s;
      step.latency = latencyStats(std::move(run.latencies_ms));
      hot.steps.push_back(std::move(step));
      return run.wall_s;
    };
    const double wall_off = runMode("batch-off", {.max_iov = 1});
    const double wall_on = runMode("batch-on", common::BatchLimits{});
    hot.steps.back().values["batch_speedup"] = wall_off / wall_on;
    common::setBatchLimits(common::BatchLimits{});

    {
      // Memoization leg: byte-identical small `ep` calls (~100-byte
      // request, CalcOrder 2*count compute).  "cache-off" runs them
      // against a second in-process server with the cache disabled —
      // every call recomputes, the PR 7 behaviour — and "cache-on"
      // against the cached server, where one owner computes and the
      // rest are answered inline on the reactor thread.
      server::NinfServer nocache(
          registry, server::ServerOptions{.workers = cfg.workers,
                                          .cache_max_bytes = 0});
      auto nocache_listener = std::make_shared<transport::TcpListener>(0);
      const auto nocache_port = nocache_listener->port();
      nocache.start(nocache_listener);
      auto uncached_client =
          client::NinfClient::connectTcp("127.0.0.1", nocache_port);
      uncached_client->ping(16);

      const std::int64_t ep_count = 1 << 16;  // ~2*count flops per call
      auto epCall = [&](client::NinfClient& cl) {
        std::vector<double> sums(2);
        std::vector<double> q(10);
        std::vector<protocol::ArgValue> args = {
            protocol::ArgValue::inInt(1), protocol::ArgValue::inInt(ep_count),
            protocol::ArgValue::outArray(sums),
            protocol::ArgValue::outArray(q)};
        cl.call("ep", args);
      };
      auto runCacheStep = [&](const char* label, client::NinfClient& cl,
                              const char* note) {
        const double h0 = counter("server.cache.hits");
        const double m0 = counter("server.cache.misses");
        const double g0 = counter("server.cache.inflight_merges");
        RunResult run = timedRun(cfg, [&](std::size_t) { epCall(cl); });
        const double hits = counter("server.cache.hits") - h0;
        const double misses = counter("server.cache.misses") - m0;
        const double merges = counter("server.cache.inflight_merges") - g0;
        const double served = hits + misses + merges;
        const double hit_rate = served > 0 ? (hits + merges) / served : 0.0;
        hot_table.row()
            .cell(label)
            .cell(run.wall_s, 3)
            .cell(static_cast<double>(cfg.calls) / run.wall_s, 1)
            .cell("-")
            .cell(note);
        bench::BenchStep step;
        step.label = label;
        step.values = {
            {"ep_count", static_cast<double>(ep_count)},
            {"cache_hits", hits},
            {"cache_misses", misses},
            {"inflight_merges", merges},
            {"cache_hit_rate", hit_rate},
        };
        step.duration_s = run.wall_s;
        step.calls = cfg.calls;
        step.errors = 0;
        step.throughput_cps = static_cast<double>(cfg.calls) / run.wall_s;
        step.latency = latencyStats(std::move(run.latencies_ms));
        hot.steps.push_back(std::move(step));
        return run.wall_s;
      };
      const double wall_uncached =
          runCacheStep("cache-off", *uncached_client, "recompute each call");
      const double wall_cached =
          runCacheStep("cache-on", *shared, "idempotent cache");
      hot.steps.back().values["cache_speedup"] = wall_uncached / wall_cached;
      std::printf("cache speedup (off -> on): %.2fx, hit rate %.3f\n",
                  wall_uncached / wall_cached,
                  hot.steps.back().values["cache_hit_rate"]);
      uncached_client->close();
      nocache.stop();
    }
    shared->close();

    std::printf("%s\nbatch speedup (off -> on): %.2fx at %zu in flight\n",
                hot_table.str().c_str(), wall_off / wall_on, cfg.threads);
    if (!cfg.json_path.empty()) {
      if (!bench::writeBenchJson(hot, cfg.json_path)) {
        std::fprintf(stderr, "cannot write %s\n", cfg.json_path.c_str());
        return 1;
      }
      std::printf("wrote %s (%s)\n", cfg.json_path.c_str(),
                  bench::kBenchSchema);
    }
    server.stop();
    return 0;
  }

  {  // Warm the kernel's loopback path once so mode order doesn't matter.
    auto client = factory();
    client->ping(cfg.payload);
  }

  report("conn-per-call", timedRun(cfg, [&](std::size_t) {
           auto client = factory();
           client->ping(cfg.payload);
         }));

  {
    auto shared = factory();
    report("multiplexed", timedRun(cfg, [&](std::size_t) {
             shared->ping(cfg.payload);
           }));
  }

  std::printf("%s\n", table.str().c_str());
  std::printf(
      "Expected shape: multiplexed beats conn-per-call by the\n"
      "amortized connect+negotiation cost; the gap widens with --threads\n"
      "and shrinks as --payload grows (wire time dominates).\n");
  if (!cfg.json_path.empty()) {
    if (!bench::writeBenchJson(json_report, cfg.json_path)) {
      std::fprintf(stderr, "cannot write %s\n", cfg.json_path.c_str());
      return 1;
    }
    std::printf("wrote %s (%s)\n", cfg.json_path.c_str(),
                bench::kBenchSchema);
  }
  server.stop();
  return 0;
}
