// ninf_bench: closed-loop Ninf_call workloads with the paper's per-call
// decomposition (section 4.1) and outside-in layer probes.
//
//   ninf_bench --workload small_calls --seed 1 --seconds 10 --trace 0
//   ninf_bench --workload meta_dispatch --seed 7 --seconds 10 --trace 1
//              --spans spans.trace.json
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs an untraced and
// a traced half, then the layer probes, and prints the per-layer metrics.
// The last line of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// Exit status 1 means a wrong reply, 2 bad usage, 3 a stuck caller.
// README.md explains the workloads and every metric.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/log.h"
#include "layer_probes.h"
#include "obs/metrics.h"
#include "process_probe.h"
#include "workload.h"

namespace ninf_bench {
namespace {

/// Fresh deployments per run; each is set up, warmed and measured for
/// an equal share of --seconds.  setup_s is the median CPU time of
/// their set-up.
constexpr std::size_t kSlices = 5;
/// Windows per slice; rates are medians over all windows of a run.
constexpr int kWindowsPerSlice = 4;
/// Warm-up calls per caller, part of set-up.
constexpr std::size_t kWarmLight = 300, kWarmHeavy = 4, kWarmMeta = 300;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "ninf_bench: %s\nusage: ninf_bench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--spans PATH]\nworkloads:",
               why);
  for (const auto& w : workloads()) std::fprintf(stderr, " %s", w.name.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = value;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--trace") {
        a.trace = value == "1";
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      } else if (flag == "--spans") {
        a.spans_path = value;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (!findWorkload(a.workload)) usage("unknown or missing --workload");
  if (!(a.seconds > 0.0 && a.seconds <= 120.0)) usage("--seconds out of range");
  return a;
}

// ---- statistics ------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

/// Nearest-rank percentile of a sorted sample, p in (0, 1].
double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

/// The highest percentile up to p99 with at least ten samples beyond it.
double tailPercentile(std::size_t n) {
  if (n >= 1000) return 0.99;
  if (n > 10) return static_cast<double>(n - 10) / static_cast<double>(n);
  return 1.0;
}

struct Distribution {
  double mean = 0.0, p10 = 0.0, p50 = 0.0, tail = 0.0;
};

Distribution distribution(std::vector<double> v, double scale) {
  for (double& x : v) x *= scale;
  std::sort(v.begin(), v.end());
  return {mean(v), percentile(v, 0.1), percentile(v, 0.5),
          percentile(v, tailPercentile(v.size()))};
}

// ---- metric output ---------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void printResult(const std::vector<Metric>& metrics, bool correct,
                 std::uint64_t attempted, std::uint64_t failed) {
  for (const Metric& m : metrics) {
    std::printf("  %-40s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            jsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// ---- counters --------------------------------------------------------------

/// Public obs counters the traced slices read as deltas.
constexpr const char* kCounters[] = {
    "transport.tcp.bytes_sent",     "channel.batch.frames",
    "channel.batch.flushes",        "server.reactor.batch.frames",
    "server.reactor.batch.flushes", "server.reactor.wakeups",
    "server.cache.hits",            "server.cache.misses",
    "server.cache.inflight_merges", "pool.buffers.hits",
    "pool.buffers.misses",          "pool.hits",
    "pool.misses",                  "metaserver.shard.queries",
    "server.call_failures",         "channel.call_timeouts",
    "client.call_retries",          "client.reconnects",
};
constexpr std::size_t kCounterCount = std::size(kCounters);

struct Snapshot {
  Clock::time_point at;
  std::uint64_t counters[kCounterCount] = {};
  ProcessSample process;
  std::uint64_t calls = 0;
};

Snapshot snapshot(Environment& env) {
  Snapshot s;
  s.at = Clock::now();
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    s.counters[i] = ninf::obs::counter(kCounters[i]).value();
  }
  s.process = sampleProcess();
  for (auto& c : env.callers()) {
    s.calls += c->completed.load(std::memory_order_relaxed);
  }
  return s;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Counter and process deltas summed over every traced slice of a run.
struct TracedCounts {
  double counters[kCounterCount] = {};
  double calls = 0, wall = 0, cpu = 0, allocs = 0, voluntary = 0,
         involuntary = 0;

  void add(const Snapshot& a, const Snapshot& b) {
    for (std::size_t i = 0; i < kCounterCount; ++i) {
      counters[i] += static_cast<double>(b.counters[i] - a.counters[i]);
    }
    calls += static_cast<double>(b.calls - a.calls);
    wall += std::chrono::duration<double>(b.at - a.at).count();
    cpu += b.process.cpu_seconds - a.process.cpu_seconds;
    allocs += static_cast<double>(b.process.allocations - a.process.allocations);
    voluntary += static_cast<double>(b.process.voluntary_switches -
                                     a.process.voluntary_switches);
    involuntary += static_cast<double>(b.process.involuntary_switches -
                                       a.process.involuntary_switches);
  }

  double operator()(std::string_view name) const {
    for (std::size_t i = 0; i < kCounterCount; ++i) {
      if (name == kCounters[i]) return counters[i];
    }
    std::fprintf(stderr, "ninf_bench: unknown counter %.*s\n",
                 static_cast<int>(name.size()), name.data());
    std::abort();
  }
  double perCall(double total) const { return ratio(total, calls); }
};

// ---- one run ---------------------------------------------------------------

/// Per-window rates of the timed slices of a run.
struct Windows {
  std::vector<double> counted, heavy, mb, cpu_ms;

  void add(const PhaseResult& phase) {
    for (std::size_t w = 1; w < phase.boundaries.size(); ++w) {
      const Boundary& a = phase.boundaries[w - 1];
      const Boundary& b = phase.boundaries[w];
      const double dt = b.t - a.t;
      if (dt <= 0) continue;
      counted.push_back(static_cast<double>(b.counted - a.counted) / dt);
      heavy.push_back(static_cast<double>(b.heavy - a.heavy) / dt);
      mb.push_back(static_cast<double>(b.bytes - a.bytes) / dt / 1e6);
      cpu_ms.push_back(ratio(b.process.cpu_seconds - a.process.cpu_seconds,
                             static_cast<double>(b.all - a.all)) *
                       1e3);
    }
  }
};

/// A traced call with the caller that made it (for the span file).
struct TracedCall {
  std::size_t caller;
  Lane lane;
  CallRecord record;
};

/// Everything a run keeps from its environments.
struct RunData {
  std::vector<double> setup_cpu, setup_wall;  // per deployment, seconds
  Windows measured;  // the untraced slices
  Windows traced;
  std::vector<double> latencies;  // counted lane, last phase of each slice
  double setup_rss_mb = 0;  // VmHWM once the first deployment is warm
  std::vector<TracedCall> calls;  // traced slices
  TracedCounts counts;
  int threads = 0;
  double connections = 0;
  ProbeResults probes;
  std::uint64_t attempted = 0, failed = 0, wrong = 0, verified = 0;

  /// Verify every reply the environment's callers logged, then keep
  /// what the metrics need before it is torn down.
  void absorb(Environment& env, std::size_t slice) {
    for (std::size_t i = 0; i < env.callers().size(); ++i) {
      Caller& c = *env.callers()[i];
      attempted += c.attempted.load();
      failed += c.failed.load();
      wrong += c.verify();
      verified += c.verifiedReplies();
      if (c.lane() == env.spec().counted) {
        latencies.insert(latencies.end(), c.latencies.begin(),
                         c.latencies.end());
      }
      for (const CallRecord& r : c.records) {
        calls.push_back({slice * env.callers().size() + i, c.lane(), r});
      }
    }
  }
};

/// The section 4.1 split of a lane's traced calls, seconds.
struct Split {
  std::vector<double> call, wait, compute, outside, before_call;
};

Split splitOf(const std::vector<TracedCall>& calls, Lane lane) {
  Split s;
  for (const TracedCall& c : calls) {
    if (c.lane != lane) continue;
    const CallRecord& r = c.record;
    s.call.push_back(r.latency);
    s.wait.push_back(r.server.dequeue - r.server.enqueue);
    s.compute.push_back(r.server.complete - r.server.dequeue);
    s.outside.push_back(r.latency - (r.server.complete - r.server.enqueue));
    s.before_call.push_back(r.latency - r.call_elapsed);
  }
  return s;
}

/// Write traced calls as Chrome trace events (bench-side spans, one track
/// per caller).  The server's enqueue..complete interval is placed in the
/// middle of the server-bound part of the call: the two clocks differ, so
/// only durations are known, not the offset.
void writeSpans(const std::string& path, const std::vector<TracedCall>& calls,
                std::size_t cap) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "ninf_bench: cannot write %s\n", path.c_str());
    return;
  }
  out << "{\"traceEvents\": [\n";
  bool first = true;
  std::size_t id = 0;
  auto span = [&](const char* name, std::size_t tid, double start_s,
                  double dur_s) {
    out << (first ? "" : ",\n") << "{\"name\": \"" << name
        << "\", \"ph\": \"X\", \"pid\": 3, \"tid\": " << tid
        << ", \"ts\": " << jsonNumber(start_s * 1e6)
        << ", \"dur\": " << jsonNumber(std::max(dur_s, 0.0) * 1e6)
        << ", \"args\": {\"call\": " << id << "}}";
    first = false;
  };
  const std::size_t stride = std::max<std::size_t>(1, calls.size() / cap);
  for (std::size_t i = 0; i < calls.size(); i += stride, ++id) {
    const TracedCall& c = calls[i];
    const CallRecord& r = c.record;
    const double call_start = r.start + (r.latency - r.call_elapsed);
    const double in_server = r.server.complete - r.server.enqueue;
    const double enqueue = call_start + 0.5 * (r.call_elapsed - in_server);
    const double wait = r.server.dequeue - r.server.enqueue;
    span(c.lane == Lane::Meta ? "dispatch" : laneName(c.lane), c.caller,
         r.start, r.latency);
    if (c.lane == Lane::Meta) {
      span("route", c.caller, r.start, r.latency - r.call_elapsed);
      span("server_call", c.caller, call_start, r.call_elapsed);
    }
    span("server.queue_wait", c.caller, enqueue, wait);
    span("server.compute", c.caller, enqueue + wait,
         r.server.complete - r.server.dequeue);
  }
  out << "\n], \"displayTimeUnit\": \"ms\"}\n";
}

bool hasLane(const WorkloadSpec& spec, Lane lane) {
  return std::any_of(spec.callers.begin(), spec.callers.end(),
                     [lane](const CallerSpec& c) { return c.lane == lane; });
}

/// Build, warm and measure kSlices environments in turn.  Each slice
/// gets a fresh deployment (fresh threads, fresh placement on the CPUs),
/// so one unlucky placement moves one slice, not the run.
RunData measure(const WorkloadSpec& spec, const Inputs& inputs,
                const Args& args) {
  RunData data;
  const double slice = args.seconds / kSlices;
  for (std::size_t k = 0; k < kSlices; ++k) {
    const std::uint64_t connects0 =
        ninf::obs::counter("client.connects").value();
    const auto t0 = Clock::now();
    const double cpu0 = sampleProcess().cpu_seconds;
    Environment env(spec, inputs);
    runCalls(env, kWarmLight, kWarmHeavy, kWarmMeta);
    data.setup_cpu.push_back(sampleProcess().cpu_seconds - cpu0);
    data.setup_wall.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
    if (k == 0) data.setup_rss_mb = peakRssMb();

    if (!args.trace) {
      data.measured.add(runTimed(env, slice, kWindowsPerSlice, false));
    } else {
      data.measured.add(runTimed(env, slice / 2, kWindowsPerSlice, false));
      const Snapshot before = snapshot(env);
      setAllocationCounting(true);
      const PhaseResult traced = runTimed(env, slice / 2, kWindowsPerSlice, true);
      setAllocationCounting(false);
      data.counts.add(before, snapshot(env));
      data.traced.add(traced);
      data.threads = std::max(data.threads, traced.threads);
      if (k + 1 == kSlices) data.probes = runLayerProbes(env, inputs, spec.counted);
    }
    data.connections = std::max(
        data.connections,
        static_cast<double>(ninf::obs::counter("client.connects").value() -
                            connects0));
    data.absorb(env, k);
  }
  return data;
}

std::vector<Metric> endToEndMetrics(const WorkloadSpec& spec,
                                    const RunData& data) {
  const std::vector<double>& lat = data.latencies;
  // Wall-clock rates and latencies swing with the host's CPU steal
  // beyond any usable bound (README), so they are printed for reading
  // but are not the bounded metrics.
  const Distribution d = distribution(lat, 1e3);
  std::printf("  wall clock, not bounded:\n");
  std::printf("    calls_per_s %.1f 1/s, payload_mb_per_s %.3f MB/s\n",
              median(data.measured.counted), median(data.measured.mb));
  if (spec.counted != Lane::Heavy && hasLane(spec, Lane::Heavy)) {
    std::printf("    heavy_calls_per_s %.2f 1/s (linpack lane)\n",
                median(data.measured.heavy));
  }
  std::printf("    %zu latency samples: p10 %.4f ms, p50 %.4f ms, p%g %.4f ms\n",
              lat.size(), d.p10, d.p50, tailPercentile(lat.size()) * 100,
              d.tail);
  std::printf("    set-up wall time %.4f s, peak RSS %.1f MB\n",
              median(data.setup_wall), peakRssMb());
  return {
      {"cpu_ms_per_call", median(data.measured.cpu_ms), "ms"},
      {"setup_rss_mb", data.setup_rss_mb, "MB"},
      {"setup_s", median(data.setup_cpu), "s"},
  };
}

std::vector<Metric> perLayerMetrics(const WorkloadSpec& spec,
                                    const RunData& data) {
  const Split split = splitOf(data.calls, spec.counted);
  const Distribution call = distribution(split.call, 1e6);
  const Distribution wait = distribution(split.wait, 1e6);
  const Distribution compute = distribution(split.compute, 1e6);
  const Distribution outside = distribution(split.outside, 1e6);
  const Split heavy = splitOf(data.calls, Lane::Heavy);
  const bool hits = spec.counted == Lane::Meta;
  std::printf("  split samples %zu, tail percentile p%g\n", split.call.size(),
              tailPercentile(split.call.size()) * 100);

  const TracedCounts& n = data.counts;
  const ProbeResults& p = data.probes;
  const double untraced_cps = median(data.measured.counted);
  const double traced_cps = median(data.traced.counted);
  const double cache_lookups = n("server.cache.hits") +
                               n("server.cache.misses") +
                               n("server.cache.inflight_merges");
  const double buffer_acquires = n("pool.buffers.hits") + n("pool.buffers.misses");
  const double conn_acquires = n("pool.hits") + n("pool.misses");
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  return {
      {"calls_per_s", untraced_cps, "1/s"},
      {"payload_mb_per_s", median(data.measured.mb), "MB/s"},
      {"setup.wall_s", median(data.setup_wall), "s"},
      {"call_us.mean", call.mean, "us"},
      {"call_us.p10", call.p10, "us"},
      {"call_us.p50", call.p50, "us"},
      {"call_us.p99", call.tail, "us"},
      {"server.queue_wait_us.mean", wait.mean, "us"},
      {"server.queue_wait_us.p50", wait.p50, "us"},
      {"server.queue_wait_us.p99", wait.tail, "us"},
      {"server.compute_us.mean", compute.mean, "us"},
      {"server.compute_us.p50", compute.p50, "us"},
      {"server.compute_us.p99", compute.tail, "us"},
      {"outside_server_us.mean", outside.mean, "us"},
      {"outside_server_us.p50", outside.p50, "us"},
      {"outside_server_us.p99", outside.tail, "us"},
      {"dispatch.before_call_us.mean", mean(split.before_call) * 1e6, "us"},
      {"heavy.call_us.mean", mean(heavy.call) * 1e6, "us"},
      {"heavy.server.queue_wait_us.mean", mean(heavy.wait) * 1e6, "us"},
      {"heavy.server.compute_us.mean", mean(heavy.compute) * 1e6, "us"},
      {"heavy.outside_server_us.mean", mean(heavy.outside) * 1e6, "us"},
      {"protocol.encode_call_us", p.encode_call_us, "us"},
      {"protocol.decode_args_us", p.decode_args_us, "us"},
      {"protocol.encode_reply_us", p.encode_reply_us, "us"},
      {"protocol.decode_reply_us", p.decode_reply_us, "us"},
      {"server.cache_digest_us", p.cache_digest_us, "us"},
      {"numlib.kernel_us", p.kernel_us, "us"},
      {"transport.ping_rtt_us", p.ping_rtt_us, "us"},
      {"metaserver.route_us", p.route_us, "us"},
      {"residual_us", outside.mean - p.blockingPathUs(hits), "us"},
      {"protocol.request_bytes", static_cast<double>(p.request_bytes), "B"},
      {"protocol.reply_bytes", static_cast<double>(p.reply_bytes), "B"},
      {"traced.calls", n.calls, "count"},
      {"traced.calls_per_s", traced_cps, "1/s"},
      {"trace_overhead_ratio", ratio(untraced_cps, traced_cps) - 1.0, "ratio"},
      {"heavy_calls_per_s", median(data.traced.heavy), "1/s"},
      {"call.samples", static_cast<double>(split.call.size()), "count"},
      {"error_rate",
       ratio(static_cast<double>(data.failed + data.wrong),
             static_cast<double>(data.attempted)),
       "ratio"},
      {"process.allocs_per_call", n.perCall(n.allocs), "count/call"},
      {"process.voluntary_switches_per_call", n.perCall(n.voluntary),
       "count/call"},
      {"process.involuntary_switches_per_call", n.perCall(n.involuntary),
       "count/call"},
      {"process.cpu_ms_per_call", n.perCall(n.cpu) * 1e3, "ms"},
      {"process.cpu_busy_ratio", ratio(n.cpu, n.wall * cpus), "ratio"},
      {"process.threads", static_cast<double>(data.threads), "count"},
      {"process.peak_rss_mb", peakRssMb(), "MB"},
      {"transport.tcp_bytes_per_call", n.perCall(n("transport.tcp.bytes_sent")),
       "B/call"},
      {"channel.frames_per_writev",
       ratio(n("channel.batch.frames"), n("channel.batch.flushes")), "count"},
      {"channel.writevs", n("channel.batch.flushes"), "count"},
      {"server.frames_per_writev",
       ratio(n("server.reactor.batch.frames"), n("server.reactor.batch.flushes")),
       "count"},
      {"server.writevs", n("server.reactor.batch.flushes"), "count"},
      {"server.reactor_wakeups_per_call", n.perCall(n("server.reactor.wakeups")),
       "count/call"},
      {"server.cache_hit_ratio", ratio(n("server.cache.hits"), cache_lookups),
       "ratio"},
      {"server.cache_lookups", cache_lookups, "count"},
      {"pool.buffers_hit_ratio", ratio(n("pool.buffers.hits"), buffer_acquires),
       "ratio"},
      {"pool.buffers_acquires", buffer_acquires, "count"},
      {"pool.conn_hit_ratio", ratio(n("pool.hits"), conn_acquires), "ratio"},
      {"pool.conn_acquires", conn_acquires, "count"},
      {"metaserver.shard_queries_per_dispatch",
       hits ? n.perCall(n("metaserver.shard.queries")) : 0.0, "count/call"},
      {"server.call_failures", n("server.call_failures"), "count"},
      {"channel.call_timeouts", n("channel.call_timeouts"), "count"},
      {"client.call_retries", n("client.call_retries"), "count"},
      {"client.reconnects", n("client.reconnects"), "count"},
      {"client.connections", data.connections, "count"},
  };
}

int run(const Args& args) {
  ninf::setLogLevel(ninf::LogLevel::Error);
  const WorkloadSpec& spec = *findWorkload(args.workload);
  const Inputs inputs(args.seed, spec);
  std::printf("workload %s  seed %llu  seconds %g  trace %d\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);

  const RunData data = measure(spec, inputs, args);
  const std::vector<Metric> metrics =
      args.trace ? perLayerMetrics(spec, data) : endToEndMetrics(spec, data);
  if (args.trace && !args.spans_path.empty()) {
    writeSpans(args.spans_path, data.calls, 5000);
  }
  std::printf("  verified replies %llu, wrong %llu, failed calls %llu\n",
              static_cast<unsigned long long>(data.verified),
              static_cast<unsigned long long>(data.wrong),
              static_cast<unsigned long long>(data.failed));
  printResult(metrics, data.wrong == 0,
              std::max<std::uint64_t>(1, data.attempted),
              data.failed + data.wrong);
  return data.wrong == 0 ? 0 : 1;
}

}  // namespace
}  // namespace ninf_bench

int main(int argc, char** argv) {
  const ninf_bench::Args args = ninf_bench::parseArgs(argc, argv);
  try {
    return ninf_bench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ninf_bench: %s\n", e.what());
    return 4;
  }
}
