// The four ninf-tidy checks.
//
//  reactor-blocking   functions reachable from NINF_REACTOR_CONTEXT
//                     entry points (or lambdas passed to postSolo or
//                     postAt) must not call NINF_BLOCKING APIs, blocking
//                     std primitives, CondVar waits, future gets, or
//                     acquire a non-leaf lock class.
//  codec-symmetry     every encode/decode (toBytes/fromBytes) pair in
//                     src/protocol must put and get the same ordered
//                     sequence of wire primitives.
//  pool-lifetime      PooledBuffer / Frame values are moved, never
//                     copied; .data()/.span() must not outlive the
//                     buffer; no static storage of pooled buffers.
//  metrics-under-lock no obs:: counter/gauge/histogram touch inside a
//                     mutex critical section (the obs registry has its
//                     own lock; nesting it under hot-path locks is a
//                     latency and lock-order hazard).
//
// A diagnostic can be silenced with
//   NINF_TIDY_SUPPRESS("check-name", "why this audited exception is ok");
// placed on the flagged line or up to two lines above it.  Suppressions
// require a real justification; `validateSuppressions` enforces that.
#pragma once

#include <string>
#include <vector>

#include "model.h"

namespace ninf_tidy {

struct Diagnostic {
  std::string check;
  std::string file;
  int line = 0;
  std::string message;
};

struct CheckOptions {
  /// Empty = run every check; otherwise names from allCheckNames().
  std::vector<std::string> checks;
};

const std::vector<std::string>& allCheckNames();

/// Run the selected checks; returns unsuppressed diagnostics sorted by
/// file and line.
std::vector<Diagnostic> runChecks(const Project& project,
                                  const CheckOptions& options);

/// Audit every NINF_TIDY_SUPPRESS in the project: the check name must
/// exist and the justification must be a real sentence.  Returns one
/// diagnostic per bad suppression.
std::vector<Diagnostic> validateSuppressions(const Project& project);

}  // namespace ninf_tidy
