// Workloads, their generated inputs, the in-process deployment they run
// against, and the closed-loop callers that drive it.
//
// Every caller is closed-loop (the paper's client model): it sends its
// next Ninf_call only after the reply to the previous one arrived.  The
// servers and the metaserver node run in this process on loopback TCP and
// see nothing but the generated call arguments.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "client/client.h"
#include "common/rng.h"
#include "metaserver/node.h"
#include "metaserver/sharded.h"
#include "numlib/matrix.h"
#include "process_probe.h"
#include "server/registry.h"
#include "server/server.h"
#include "transport/tcp_transport.h"

namespace ninf_bench {

using Clock = std::chrono::steady_clock;

/// Pairs per `ep` call: small enough that compute is negligible and the
/// per-call fixed cost dominates.
inline constexpr std::int64_t kEpCount = 64;
/// Matrix order of every `linpack` call (a 512 KiB A; opt 1 = blocked LU).
inline constexpr std::size_t kLinpackN = 256;
inline constexpr std::int64_t kLinpackOpt = 1;
/// Distinct `ep` argument sets of the cache-hit workload.
inline constexpr std::size_t kEpPoolSize = 16;
/// Upper bound on callers of any workload (keeps generated ep ranges of
/// different callers disjoint).
inline constexpr std::uint64_t kMaxCallers = 4;

/// What one caller sends.
enum class Lane {
  Light,  ///< `ep` with a unique `first` over a direct connection
  Heavy,  ///< `linpack` on a fresh system over a direct connection
  Meta,   ///< `ep` from the seeded pool through ShardedMetaserver::dispatch
};

const char* laneName(Lane lane);

struct CallerSpec {
  Lane lane = Lane::Light;
  /// Index of the direct connection this caller uses (unused for Meta).
  std::size_t connection = 0;
};

/// Shape of one workload.  Sizing rule: callers + server workers (all
/// servers) <= 4, and at most 4 direct client connections — see README.
struct WorkloadSpec {
  std::string name;
  std::size_t servers = 1;
  std::size_t workers = 1;  ///< per server
  std::size_t connections = 0;  ///< direct connections, all to server 0
  bool metaserver = false;
  std::vector<CallerSpec> callers;
  /// Lane whose calls `calls_per_s` and the latency percentiles count.
  Lane counted = Lane::Light;
};

const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec* findWorkload(std::string_view name);

/// Everything generated from --seed.  Per-call inputs are pure functions
/// of (seed, caller, sequence number), so verification regenerates them
/// instead of keeping copies.
class Inputs {
 public:
  Inputs(std::uint64_t seed, const WorkloadSpec& spec);

  std::uint64_t seed() const { return seed_; }
  /// Unique `first` of a Light call: no two calls of a run share one.
  std::int64_t epFirst(std::size_t caller, std::uint64_t seq) const;
  /// The seeded `first` values of the Meta lane's pool.
  const std::vector<std::int64_t>& epPool() const { return ep_pool_; }
  /// The linpack system of a Heavy call: a seeded base matrix with one
  /// column and the right-hand side drawn fresh, so every request body
  /// differs (no cache repeats).  `a` must be kLinpackN square.
  void linpackSystem(std::size_t caller, std::uint64_t seq, ninf::numlib::Matrix& a,
                     std::vector<double>& b) const;

 private:
  std::uint64_t seed_;
  std::int64_t ep_base_ = 0;
  std::vector<std::int64_t> ep_pool_;
  std::vector<ninf::numlib::Matrix> bases_;
};

/// Order-sensitive digest of an `ep` reply (bit patterns of its doubles).
std::uint64_t epReplyDigest(const double* sums, const double* q);
/// Digest of the correct reply, computed locally with numlib::runEp.
std::uint64_t epExpectedDigest(std::int64_t first);

/// One completed call as the traced phase records it (seconds).
struct CallRecord {
  double start = 0.0;    ///< since phase start, bench clock
  double latency = 0.0;  ///< bench-observed wall time of the operation
  double call_elapsed = 0.0;  ///< CallResult::elapsed (server call only)
  ninf::protocol::CallTimings server;
};

/// A closed-loop caller: the state one thread owns while it runs.
class Caller {
 public:
  Caller(Lane lane, std::size_t index, const Inputs& inputs,
         ninf::client::NinfClient* client,
         ninf::metaserver::ShardedMetaserver* meta);

  Caller(const Caller&) = delete;
  Caller& operator=(const Caller&) = delete;

  Lane lane() const { return lane_; }

  /// One Ninf_call; failures are counted, never thrown.
  void callOnce(bool traced, Clock::time_point phase_start);
  /// Begin a phase: drop the previous phase's timings, keep the
  /// verification log, and reserve room for `expected_calls`.
  void beginPhase(std::size_t expected_calls);

  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> payload_bytes{0};
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> failed{0};

  /// Latency of every call of the current phase (seconds).
  std::vector<double> latencies;
  /// Traced phase only.
  std::vector<CallRecord> records;

  /// Checks the replies logged so far; returns the number of wrong ones.
  std::uint64_t verify() const;
  std::uint64_t verifiedReplies() const;

 private:
  void finish(Clock::time_point t0, Clock::time_point t1,
              const ninf::client::CallResult& r, bool traced,
              Clock::time_point phase_start);

  Lane lane_;
  std::size_t index_;
  const Inputs& inputs_;
  ninf::client::NinfClient* client_;
  ninf::metaserver::ShardedMetaserver* meta_;
  ninf::SplitMix64 rng_;
  std::uint64_t seq_ = 0;

  // Working arguments, reused across calls.
  double sums_[2] = {};
  double q_[10] = {};
  ninf::numlib::Matrix a_;
  std::vector<double> b_;
  std::vector<double> x_;

  // Verification log: what was asked and a digest (or copy) of the reply.
  struct EpCheck {
    std::int64_t first;
    std::uint64_t digest;
  };
  std::vector<EpCheck> ep_checks_;
  std::vector<std::uint64_t> linpack_seqs_;
  std::vector<double> linpack_x_;
};

/// One deployment of a workload: servers, optional metaserver node, the
/// client connections and the callers.  Construction is the set-up the
/// `setup_s` metric times (warm-up is run separately by the caller).
class Environment {
 public:
  Environment(const WorkloadSpec& spec, const Inputs& inputs);
  ~Environment();

  Environment(const Environment&) = delete;
  Environment& operator=(const Environment&) = delete;

  const WorkloadSpec& spec() const { return spec_; }
  std::vector<std::unique_ptr<Caller>>& callers() { return callers_; }
  std::uint16_t serverPort(std::size_t i) const { return ports_.at(i); }
  ninf::metaserver::ShardedMetaserver* meta() { return meta_.get(); }

 private:
  const WorkloadSpec& spec_;
  std::vector<std::unique_ptr<ninf::server::Registry>> registries_;
  std::vector<std::unique_ptr<ninf::server::NinfServer>> servers_;
  std::vector<std::uint16_t> ports_;
  std::unique_ptr<ninf::metaserver::MetaserverNode> node_;
  std::unique_ptr<ninf::metaserver::ShardedMetaserver> meta_;
  std::vector<std::unique_ptr<ninf::client::NinfClient>> clients_;
  std::vector<std::unique_ptr<Caller>> callers_;
};

/// Counters of one lane group at a window boundary.
struct Boundary {
  double t = 0.0;  ///< seconds since phase start
  std::uint64_t counted = 0;  ///< completed calls of the counted lane
  std::uint64_t heavy = 0;    ///< completed Heavy calls
  std::uint64_t all = 0;      ///< completed calls of every lane
  std::uint64_t bytes = 0;    ///< payload bytes of every lane
  ProcessSample process;
};

struct PhaseResult {
  std::vector<Boundary> boundaries;  ///< windows + 1 entries
  int threads = 0;  ///< process threads sampled mid-phase
};

/// Run every caller for `calls_per_caller[lane]` calls (warm-up).
void runCalls(Environment& env, std::size_t light, std::size_t heavy,
              std::size_t meta);

/// Run every caller for `seconds`, sampling counters at `windows` evenly
/// spaced boundaries.  A caller stuck past the phase ends the process.
PhaseResult runTimed(Environment& env, double seconds, int windows,
                     bool traced);

}  // namespace ninf_bench
