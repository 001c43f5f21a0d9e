#include "client/connection_pool.h"

#include <utility>

#include "common/error.h"
#include "obs/metrics.h"

namespace ninf::client {

std::shared_ptr<NinfClient> ConnectionPool::live(const Slot& slot) {
  LockGuard lock(mutex_);
  if (slot.client && !slot.client->channel().broken()) return slot.client;
  return nullptr;
}

std::shared_ptr<NinfClient> ConnectionPool::acquire(const std::string& endpoint,
                                                    const Factory& factory) {
  static obs::Counter& hits = obs::counter("pool.hits");
  static obs::Counter& misses = obs::counter("pool.misses");

  Slot* slot = nullptr;
  {
    LockGuard lock(mutex_);
    slot = &slots_[endpoint];
  }
  // Declared before the dial lock so the broken client it replaces is
  // destroyed with no pool lock held (closing joins its reader thread).
  std::shared_ptr<NinfClient> replaced;
  std::shared_ptr<NinfClient> client = live(*slot);
  bool dialed = false;
  if (!client) {
    LockGuard dial(slot->dial);
    client = live(*slot);  // a concurrent miss may have dialed meanwhile
    if (!client) {
      client = factory();  // network I/O: outside the pool lock
      NINF_REQUIRE(client != nullptr, "pool factory returned no client");
      dialed = true;
      LockGuard lock(mutex_);
      replaced = std::exchange(slot->client, client);
    }
  }
  (dialed ? misses : hits).add();
  return client;
}

}  // namespace ninf::client
