// Process-level probe: what the whole benchmark process spent, read from
// outside the program.
//
//  * a counting global operator new (process_probe.cpp), switched on only
//    for the traced phase so untraced runs pay a single relaxed load;
//  * getrusage(RUSAGE_SELF) for CPU time and context switches, summed
//    over every thread the process ever ran;
//  * /proc/self/status for the high-water resident set and thread count.
//
// Counts are reported per call by the caller, never as speed-ups.
#pragma once

#include <cstdint>

namespace ninf_bench {

/// Turn allocation counting on or off (process-wide, any thread).
void setAllocationCounting(bool on);

/// Heap allocations counted since the process started (only while
/// counting was on).
std::uint64_t allocationCount();

/// One reading of the process's cumulative resource use.
struct ProcessSample {
  double cpu_seconds = 0.0;  ///< user + system, every thread
  std::uint64_t voluntary_switches = 0;
  std::uint64_t involuntary_switches = 0;
  std::uint64_t allocations = 0;
};

ProcessSample sampleProcess();

/// VmHWM from /proc/self/status in MiB (0 where unavailable).
double peakRssMb();

/// Threads of this process from /proc/self/status (0 where unavailable).
int processThreads();

}  // namespace ninf_bench
