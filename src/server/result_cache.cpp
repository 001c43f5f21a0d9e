#include "server/result_cache.h"

#include <bit>
#include <cstring>
#include <initializer_list>
#include <utility>

#include "common/error.h"
#include "obs/metrics.h"

namespace ninf::server {

namespace {

struct Metrics {
  obs::Counter& hits = obs::counter("server.cache.hits");
  obs::Counter& misses = obs::counter("server.cache.misses");
  obs::Counter& merges = obs::counter("server.cache.inflight_merges");
  obs::Gauge& bytes = obs::gauge("server.cache.bytes");
};

Metrics& metrics() {
  static Metrics m;
  return m;
}

// Odd 64-bit multipliers for the digest lanes (the xxHash64 primes).
constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ull;
constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ull;

/// The native-order 8-byte word at `p`, at any alignment.
std::uint64_t load64(const std::uint8_t* p) {
  std::uint64_t word = 0;
  std::memcpy(&word, p, 8);
  return word;
}

/// One lane step: add the word times an odd constant, rotate, multiply by
/// another odd constant.  For a fixed word it is a bijection of `acc`.
std::uint64_t laneRound(std::uint64_t acc, std::uint64_t word) {
  acc += word * kPrime2;
  return std::rotl(acc, 31) * kPrime1;
}

/// MurmurHash3's 64-bit finalizer: a full-avalanche bijection.
std::uint64_t fmix64(std::uint64_t k) {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdull;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ull;
  k ^= k >> 33;
  return k;
}

}  // namespace

ResultCache::ResultCache(Options options) : options_(options) {}

ResultCache::~ResultCache() {
  // Collect parked waiters under the lock, fail them outside it.
  std::vector<ReadyFn> orphans;
  {
    LockGuard lock(mutex_);
    for (auto& [digest, entry] : map_) {
      for (auto& w : entry.waiters) {
        if (w) orphans.push_back(std::move(w));
      }
      entry.waiters.clear();
    }
    map_.clear();
    lru_.clear();
    bytes_ = 0;
  }
  for (auto& w : orphans) w(nullptr);
}

ResultCache::Digest ResultCache::digestOf(std::span<const std::uint8_t> body) {
  // Four independent multiply-rotate lanes over 32-byte stripes, one
  // 8-byte word per lane per stripe; the last stripe is zero-padded.
  // Every round is a bijection of its lane for a fixed word, so a change
  // to any single word always changes that lane's final state.
  constexpr std::size_t kStripe = 4 * 8;
  std::uint64_t v0 = kPrime1 + kPrime2;
  std::uint64_t v1 = kPrime2;
  std::uint64_t v2 = 0;
  std::uint64_t v3 = 0 - kPrime1;
  const auto stripe = [&](const std::uint8_t* p) {
    v0 = laneRound(v0, load64(p));
    v1 = laneRound(v1, load64(p + 8));
    v2 = laneRound(v2, load64(p + 16));
    v3 = laneRound(v3, load64(p + 24));
  };
  const std::size_t whole = body.size() / kStripe * kStripe;
  for (std::size_t off = 0; off < whole; off += kStripe) {
    stripe(body.data() + off);
  }
  if (whole < body.size()) {
    std::uint8_t tail[kStripe] = {};
    std::memcpy(tail, body.data() + whole, body.size() - whole);
    stripe(tail);
  }
  // Half a sums differently rotated lanes, so one changed lane always
  // moves it; the length is xored in, so a zero-padded extension moves it
  // too.  Half b is an order-dependent chain over the lanes.
  const std::uint64_t n = body.size();
  const std::uint64_t a = std::rotl(v0, 1) + std::rotl(v1, 7) +
                          std::rotl(v2, 12) + std::rotl(v3, 18);
  std::uint64_t b = n * kPrime3;
  for (const std::uint64_t v : {v0, v1, v2, v3}) {
    b = (b ^ laneRound(0, v)) * kPrime1 + kPrime4;
  }
  return Digest{fmix64(a ^ n), fmix64(b)};
}

ResultCache::Payload ResultCache::eraseCompletedLocked(Map::iterator it) {
  Payload doomed = std::move(it->second.payload);
  if (doomed) bytes_ -= doomed->size();
  lru_.erase(it->second.lru_it);
  map_.erase(it);
  return doomed;
}

ResultCache::Lookup ResultCache::lookupOrJoin(const Digest& digest,
                                              ReadyFn on_ready) {
  auto& m = metrics();
  const auto now = std::chrono::steady_clock::now();
  Payload expired;  // destroyed outside the lock
  Lookup result;
  bool merged = false;
  {
    LockGuard lock(mutex_);
    auto it = map_.find(digest);
    if (it != map_.end() && !it->second.inflight && options_.ttl_seconds > 0) {
      const std::chrono::duration<double> age = now - it->second.ready_at;
      if (age.count() > options_.ttl_seconds) {
        expired = eraseCompletedLocked(it);
        it = map_.end();
      }
    }
    if (it == map_.end()) {
      Entry entry;
      entry.inflight = true;
      map_.emplace(digest, std::move(entry));
      result.role = Role::Owner;
    } else if (it->second.inflight) {
      NINF_REQUIRE(on_ready != nullptr, "inflight join needs a callback");
      it->second.waiters.push_back(std::move(on_ready));
      result.role = Role::Waiter;
      merged = true;
    } else {
      // Completed entry: refresh LRU position and serve.
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      result.role = Role::Hit;
      result.payload = it->second.payload;
    }
  }
  if (result.role == Role::Hit) {
    m.hits.add();
  } else if (merged) {
    m.merges.add();
  } else {
    m.misses.add();
  }
  return result;
}

void ResultCache::fulfill(const Digest& digest, Payload payload,
                          bool cacheable) {
  std::vector<ReadyFn> waiters;
  std::vector<Payload> evicted;  // destroyed outside the lock
  std::size_t resident = 0;
  {
    LockGuard lock(mutex_);
    auto it = map_.find(digest);
    if (it == map_.end()) return;  // entry raced away (shutdown)
    waiters = std::move(it->second.waiters);
    it->second.waiters.clear();
    const bool retain = cacheable && payload && options_.max_bytes > 0 &&
                        payload->size() <= options_.max_bytes;
    if (!retain) {
      map_.erase(it);
    } else {
      it->second.inflight = false;
      it->second.payload = payload;
      it->second.ready_at = std::chrono::steady_clock::now();
      lru_.push_front(digest);
      it->second.lru_it = lru_.begin();
      bytes_ += payload->size();
      while (bytes_ > options_.max_bytes && !lru_.empty()) {
        auto victim = map_.find(lru_.back());
        if (victim == map_.end()) {  // defensive; lru_ and map_ move together
          lru_.pop_back();
          continue;
        }
        if (victim == it) break;  // never evict the entry just inserted
        evicted.push_back(eraseCompletedLocked(victim));
      }
    }
    resident = bytes_;
  }
  metrics().bytes.set(static_cast<double>(resident));
  for (auto& w : waiters) {
    if (w) w(payload);
  }
}

void ResultCache::sweep() {
  if (options_.ttl_seconds <= 0) return;
  const auto now = std::chrono::steady_clock::now();
  std::vector<Payload> expired;
  std::size_t resident = 0;
  {
    LockGuard lock(mutex_);
    // Oldest completions cluster at the LRU tail only if access order
    // tracks completion order, which it need not -- walk the whole map.
    for (auto it = map_.begin(); it != map_.end();) {
      auto cur = it++;
      if (cur->second.inflight) continue;
      const std::chrono::duration<double> age = now - cur->second.ready_at;
      if (age.count() > options_.ttl_seconds) {
        expired.push_back(eraseCompletedLocked(cur));
      }
    }
    resident = bytes_;
  }
  metrics().bytes.set(static_cast<double>(resident));
}

std::size_t ResultCache::bytes() const {
  LockGuard lock(mutex_);
  return bytes_;
}

std::size_t ResultCache::entries() const {
  LockGuard lock(mutex_);
  return lru_.size();
}

}  // namespace ninf::server
