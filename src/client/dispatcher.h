// Dispatch abstraction: where does a Ninf_call actually go?
//
// DirectDispatcher sends every call to one server over one shared,
// multiplexed connection (connection_pool.h); the metaserver module
// provides a load-balancing implementation of the same interface
// (section 2.4).  Transactions and async calls are written against the
// interface so they work identically in both worlds.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>

#include "client/client.h"
#include "client/connection_pool.h"

namespace ninf::client {

/// Creates a fresh connection to some server.  Must be thread-safe:
/// dispatchers dial from whichever caller first needs a connection.
using ConnectionFactory = std::function<std::unique_ptr<NinfClient>()>;

class CallDispatcher {
 public:
  virtual ~CallDispatcher() = default;

  /// Perform one synchronous call somewhere.  Thread-safe.
  virtual CallResult dispatch(const std::string& name,
                              std::span<const protocol::ArgValue> args) = 0;

  /// Same, bounded by a deadline/retry envelope.  The default forwards
  /// and ignores the options; dispatchers that own connections (direct,
  /// metaserver) honor them.
  virtual CallResult dispatch(const std::string& name,
                              std::span<const protocol::ArgValue> args,
                              const CallOptions& opts) {
    (void)opts;
    return dispatch(name, args);
  }
};

/// Sends every call to the single server produced by the factory, over
/// one shared connection: dialed on the first call, redialed when its
/// channel breaks, and multiplexed across concurrent callers on v2.
class DirectDispatcher : public CallDispatcher {
 public:
  explicit DirectDispatcher(ConnectionFactory factory)
      : factory_(std::move(factory)) {}

  CallResult dispatch(const std::string& name,
                      std::span<const protocol::ArgValue> args) override {
    return client()->call(name, args);
  }

  CallResult dispatch(const std::string& name,
                      std::span<const protocol::ArgValue> args,
                      const CallOptions& opts) override {
    return client()->call(name, args, opts);
  }

 private:
  std::shared_ptr<NinfClient> client() { return pool_.acquire("", factory_); }

  ConnectionFactory factory_;
  ConnectionPool pool_;
};

}  // namespace ninf::client
