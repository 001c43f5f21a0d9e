// Thread names by role (`ninf-worker`, `ninf-srv-rx`, ...), so top -H,
// debuggers and /proc/self/task/*/comm tell the threads apart.
#pragma once

#if defined(__linux__)
#include <pthread.h>
#endif

namespace ninf {

/// Name the calling thread.  Linux keeps at most 15 characters; other
/// platforms ignore the name.
inline void nameThisThread(const char* name) {
#if defined(__linux__)
  pthread_setname_np(pthread_self(), name);
#else
  (void)name;
#endif
}

}  // namespace ninf
