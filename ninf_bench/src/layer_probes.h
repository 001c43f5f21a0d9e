// Layer probes: each module's public entry point timed in isolation, from
// outside, on a sample of the same generated inputs the workload sends.
//
// They run after the timed phases, against the still-running deployment,
// and report the median time of one operation in microseconds.  Together
// with the per-call split they locate a call's time outside the server:
// what the probes on the blocking path do not cover is the residual —
// reactor hops, stage hand-offs and the waits between them.
#pragma once

#include <cstddef>

#include "workload.h"

namespace ninf_bench {

struct ProbeResults {
  double encode_call_us = 0.0;   ///< protocol::buildCallRequest
  double decode_args_us = 0.0;   ///< protocol::decodeCallArgs
  double encode_reply_us = 0.0;  ///< protocol::buildCallReply
  double decode_reply_us = 0.0;  ///< protocol::decodeCallReply
  double cache_digest_us = 0.0;  ///< server::ResultCache::digestOf
  double kernel_us = 0.0;        ///< the numlib routine the entry runs
  double ping_rtt_us = 0.0;      ///< NinfClient::ping, same bytes as a call
  double route_us = 0.0;         ///< ShardedMetaserver::route (Meta only)
  std::size_t request_bytes = 0;  ///< CallRequest body
  std::size_t reply_bytes = 0;    ///< CallReply body

  /// Sum of the probes on a call's blocking path outside the server's
  /// enqueue..complete interval.  A cache hit (`hits`) skips argument
  /// decoding and reply encoding: the server replays the stored reply.
  double blockingPathUs(bool hits) const;
};

/// Probe the entry that `lane` calls.
ProbeResults runLayerProbes(Environment& env, const Inputs& inputs, Lane lane);

}  // namespace ninf_bench
