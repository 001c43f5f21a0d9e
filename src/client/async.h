// Ninf_call_async (paper, section 2.2): fire a call and collect the
// result later through a std::future.  Each in-flight call runs on its
// own thread; the dispatcher decides the wire — DirectDispatcher and the
// metaservers multiplex concurrent calls over one shared v2 connection
// per server.
#pragma once

#include <future>
#include <string>
#include <vector>

#include "client/dispatcher.h"
#include "common/sync.h"

namespace ninf::client {

class AsyncCaller {
 public:
  /// The dispatcher must outlive the AsyncCaller and all futures.
  explicit AsyncCaller(CallDispatcher& dispatcher)
      : dispatcher_(dispatcher) {}

  ~AsyncCaller() { waitAll(); }

  /// Launch a call; the caller must keep all argument memory (including
  /// output arrays) alive until the future resolves.
  std::future<CallResult> callAsync(std::string name,
                                    std::vector<protocol::ArgValue> args);

  /// Block until every call launched so far has finished (Ninf_wait_all).
  void waitAll();

 private:
  CallDispatcher& dispatcher_;
  Mutex mutex_{"async.inflight"};
  std::vector<std::shared_future<void>> inflight_ NINF_GUARDED_BY(mutex_);
};

}  // namespace ninf::client
