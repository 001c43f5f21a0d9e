#include "metaserver/metaserver.h"

#include <algorithm>

#include "common/error.h"
#include "common/log.h"
#include "common/thread_name.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ninf::metaserver {

client::CallResult dispatchWithFailover(const Router& router,
                                        client::ConnectionPool& pool,
                                        const FailoverPolicy& policy,
                                        const std::string& name,
                                        std::span<const protocol::ArgValue> args,
                                        const client::CallOptions& opts) {
  // One span for the whole dispatch (scheduling + failover + the call):
  // it nests under any caller span and is the parent the scheduling and
  // session-layer spans — and, via wire propagation, the server's
  // queue-wait/compute spans — hang from.
  obs::Span dispatch_span("dispatch");
  if (dispatch_span.active()) dispatch_span.setDetail(name);
  using Clock = std::chrono::steady_clock;
  const bool bounded = opts.deadline_seconds > 0;
  const Clock::time_point deadline =
      transport::Stream::deadlineIn(opts.deadline_seconds);
  auto remaining = [&deadline] {
    return std::chrono::duration<double>(deadline - Clock::now()).count();
  };
  const std::size_t budget =
      opts.retries > 0 ? opts.retries : policy.max_failovers;
  double backoff = policy.first_backoff;

  std::vector<std::string> excluded;  // servers this call failed on
  std::string last_error;
  for (std::size_t attempt = 0;; ++attempt) {
    Target target;
    try {
      obs::Span schedule("schedule");
      target = router.route(name, args, excluded, deadline);
      if (schedule.active()) {
        schedule.setDetail(std::string(policy.label) + " -> " + target.name);
      }
    } catch (const NotFoundError&) {
      // Candidates ran out mid-failover.  The root cause is the transport
      // failures that excluded them — rethrow that, not a masking "not
      // found" (which callers read as "entry does not exist").
      if (excluded.empty()) throw;
      std::string who;
      for (const auto& n : excluded) {
        if (!who.empty()) who += ", ";
        who += n;
      }
      throw TransportError("every candidate server failed for '" + name +
                           "' (excluded: " + who + "); last error: " +
                           last_error);
    }
    client::CallOptions attempt_opts;  // one attempt; we do the retrying
    if (bounded) {
      attempt_opts.deadline_seconds = remaining();
      if (attempt_opts.deadline_seconds <= 0) {
        throw TimeoutError("dispatch of '" + name + "': deadline exceeded");
      }
    }
    static obs::Counter& dispatched = obs::counter("metaserver.dispatched");
    dispatched.add();
    NINF_LOG(Debug) << "dispatching " << name << " to " << target.name;
    try {
      // Acquiring inside the try makes a refused dial fail over like a
      // failed call.  Concurrent dispatches to one server multiplex on
      // its shared client, which breaks only when the wire itself failed.
      return pool.acquire(target.*policy.pool_key, target.factory)
          ->call(name, args, attempt_opts);
    } catch (const TransportError& e) {
      static obs::Counter& failovers = obs::counter("metaserver.failovers");
      failovers.add();
      if (router.noteFailure) router.noteFailure(target);
      if (attempt >= budget) throw;
      last_error = e.what();
      excluded.push_back(target.name);
      NINF_LOG(Warn) << "failover from " << target.name << ": " << e.what();
      if (backoff > 0) {
        const double sleep_s = std::min(backoff, 1.0);
        if (bounded && remaining() <= sleep_s) throw;
        std::this_thread::sleep_for(std::chrono::duration<double>(sleep_s));
        backoff *= 2;
      }
    }
  }
}

std::string Metaserver::chooseServer(
    const std::string& entry_name,
    std::span<const protocol::ArgValue> args) {
  const auto candidates = dir_.snapshot(entry_name, args, {});
  return dir_.pick(entry_name, candidates, {})->entry.name;
}

client::CallResult Metaserver::dispatch(
    const std::string& name, std::span<const protocol::ArgValue> args) {
  return dispatch(name, args, client::CallOptions{});
}

client::CallResult Metaserver::dispatch(const std::string& name,
                                        std::span<const protocol::ArgValue> args,
                                        const client::CallOptions& opts) {
  Router router;
  router.route = [this](const std::string& entry,
                        std::span<const protocol::ArgValue> call_args,
                        const std::vector<std::string>& excluded,
                        std::chrono::steady_clock::time_point) {
    NINF_REQUIRE(dir_.serverCount() > 0, "metaserver has no servers");
    // The decision itself is the interesting latency: least-load and
    // bandwidth-aware policies poll candidate servers (outside the
    // table lock, cached within the freshness window).
    const auto candidates = dir_.snapshot(entry, call_args, excluded);
    Target target = dir_.acquireTarget(dir_.pick(entry, candidates, excluded));
    static obs::Histogram& observed_load =
        obs::histogram("metaserver.observed_load");
    observed_load.observe(target.observed_load);
    return target;
  };
  // A failed server cools down, so the next call does not re-pick it.
  router.noteFailure = [this](const Target& target) {
    dir_.noteFailure(target.name, cooldown_seconds_);
  };
  // Keyed by name: addServer() entries carry no endpoint.
  return dispatchWithFailover(
      router, pool_,
      {schedulingPolicyName(dir_.policy()), max_failovers_, failover_backoff_,
       &Target::name},
      name, args, opts);
}

void Metaserver::startMonitoring(std::chrono::milliseconds interval) {
  NINF_REQUIRE(interval.count() > 0, "monitoring interval must be positive");
  stopMonitoring();
  {
    LockGuard lock(monitor_mutex_);
    monitor_stop_ = false;
  }
  monitor_thread_ = std::thread([this, interval] {
    nameThisThread("ninf-monitor");
    for (;;) {
      // Poll every known server, tolerating failures.
      for (const auto& name : dir_.serverNames()) {
        try {
          dir_.poll(name);
        } catch (const Error& e) {
          NINF_LOG(Debug) << "monitor: " << name << ": " << e.what();
        }
      }
      UniqueLock lock(monitor_mutex_);
      if (monitor_cv_.wait_for(lock, interval,
                               [this] { return monitor_stop_; })) {
        return;
      }
    }
  });
}

void Metaserver::stopMonitoring() {
  {
    LockGuard lock(monitor_mutex_);
    monitor_stop_ = true;
  }
  monitor_cv_.notify_all();
  if (monitor_thread_.joinable()) monitor_thread_.join();
}

std::vector<client::CallResult> Metaserver::runTransaction(
    client::Transaction& transaction, std::size_t max_parallel) {
  return transaction.run(*this, max_parallel);
}

}  // namespace ninf::metaserver
