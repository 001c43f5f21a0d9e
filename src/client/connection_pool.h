// One shared, multiplexed NinfClient per endpoint.
//
// A v2 NinfClient carries concurrent calls by call id (channel.h), so
// every caller to an endpoint shares one connection.  acquire() returns
// the endpoint's live client and dials through the caller's factory only
// on first use or after the client's channel broke.  A hit does no I/O;
// per-call deadlines bound a stalled peer.
//
// Concurrent misses on one endpoint dial once: the first caller dials
// while the others wait on that endpoint's dial lock and then share its
// client.  The dial, and the destruction of the broken client it
// replaces, both run outside the pool lock.
//
// Observability: pool.hits / pool.misses counters (process-wide).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "client/client.h"
#include "common/sync.h"

namespace ninf::client {

class ConnectionPool {
 public:
  using Factory = std::function<std::unique_ptr<NinfClient>()>;

  ConnectionPool() = default;
  ConnectionPool(const ConnectionPool&) = delete;
  ConnectionPool& operator=(const ConnectionPool&) = delete;

  /// The shared client for `endpoint`, dialed through `factory` when
  /// there is none yet or its channel is broken.  Throws whatever the
  /// factory throws.  Thread-safe.
  std::shared_ptr<NinfClient> acquire(const std::string& endpoint,
                                      const Factory& factory);

 private:
  struct Slot {
    /// Serializes dials to this endpoint; taken before mutex_.
    Mutex dial{"pool.dial"};
    /// Guarded by the owning pool's mutex_ (inexpressible as an
    /// annotation from a nested struct).
    std::shared_ptr<NinfClient> client;
  };

  /// The slot's client when its channel is healthy, else null.
  std::shared_ptr<NinfClient> live(const Slot& slot);

  Mutex mutex_{"pool.mutex"};
  /// Slots are never erased, so their addresses stay stable.
  std::map<std::string, Slot> slots_ NINF_GUARDED_BY(mutex_);
};

}  // namespace ninf::client
