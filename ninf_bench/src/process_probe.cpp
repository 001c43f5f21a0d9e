#include "process_probe.h"

#include <sys/resource.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <new>
#include <string>

namespace ninf_bench {
namespace {

std::atomic<bool> g_counting{false};

// One counter per cache line, picked per thread, so that counting does not
// turn every allocation into a contended read-modify-write.
constexpr unsigned kSlots = 64;
struct alignas(64) Slot {
  std::atomic<std::uint64_t> count{0};
};
Slot g_slots[kSlots];
std::atomic<unsigned> g_next_slot{0};
thread_local unsigned t_slot = kSlots;

void countOne() {
  if (!g_counting.load(std::memory_order_relaxed)) return;
  if (t_slot == kSlots) {
    t_slot = g_next_slot.fetch_add(1, std::memory_order_relaxed) % kSlots;
  }
  g_slots[t_slot].count.fetch_add(1, std::memory_order_relaxed);
}

void* allocate(std::size_t size) {
  countOne();
  return std::malloc(size == 0 ? 1 : size);
}

void* allocateAligned(std::size_t size, std::align_val_t align) {
  countOne();
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  return std::aligned_alloc(a, rounded == 0 ? a : rounded);
}

/// Value of a "Key:   <number> ..." line of /proc/self/status.
long statusField(const char* key) {
  std::ifstream status("/proc/self/status");
  const std::string prefix = std::string(key) + ":";
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(prefix, 0) == 0) return std::stol(line.substr(prefix.size()));
  }
  return 0;
}

}  // namespace

void setAllocationCounting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

std::uint64_t allocationCount() {
  std::uint64_t total = 0;
  for (const Slot& s : g_slots) total += s.count.load(std::memory_order_relaxed);
  return total;
}

ProcessSample sampleProcess() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  ProcessSample s;
  s.cpu_seconds = seconds(ru.ru_utime) + seconds(ru.ru_stime);
  s.voluntary_switches = static_cast<std::uint64_t>(ru.ru_nvcsw);
  s.involuntary_switches = static_cast<std::uint64_t>(ru.ru_nivcsw);
  s.allocations = allocationCount();
  return s;
}

double peakRssMb() { return static_cast<double>(statusField("VmHWM")) / 1024.0; }

int processThreads() { return static_cast<int>(statusField("Threads")); }

}  // namespace ninf_bench

// ---- the counting global allocator ----------------------------------------

void* operator new(std::size_t size) {
  if (void* p = ninf_bench::allocate(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = ninf_bench::allocate(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return ninf_bench::allocate(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return ninf_bench::allocate(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = ninf_bench::allocateAligned(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  if (void* p = ninf_bench::allocateAligned(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return ninf_bench::allocateAligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return ninf_bench::allocateAligned(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
