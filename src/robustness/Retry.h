//===- robustness/Retry.h - Bounded retry with exponential backoff --------===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One rung of the degradation ladder (docs/ROBUSTNESS.md): transient I/O
/// errors get a small, bounded number of retries with exponential backoff
/// before the operation fails for real. Header-only and dependency-free so
/// any layer can use it; callers report retries to their own counters via
/// the NotifyRetry callback (the trace loader counts `robust.io_retry`).
///
//===----------------------------------------------------------------------===//

#ifndef RPRISM_ROBUSTNESS_RETRY_H
#define RPRISM_ROBUSTNESS_RETRY_H

#include <chrono>
#include <thread>

namespace rprism {

struct RetryPolicy {
  unsigned MaxAttempts = 3;     ///< Total attempts (first try included).
  unsigned BackoffMicros = 100; ///< Sleep before attempt 2; doubles after.
};

/// Runs \p Operation (returning true on success) up to
/// \p Policy.MaxAttempts times, sleeping an exponentially growing backoff
/// between attempts. \p NotifyRetry(AttemptJustFailed) is called before
/// each retry sleep. Returns the final attempt's outcome.
template <typename Op, typename OnRetry>
bool retryWithBackoff(const RetryPolicy &Policy, Op &&Operation,
                      OnRetry &&NotifyRetry) {
  unsigned Backoff = Policy.BackoffMicros;
  for (unsigned Attempt = 1;; ++Attempt) {
    if (Operation())
      return true;
    if (Attempt >= Policy.MaxAttempts)
      return false;
    NotifyRetry(Attempt);
    std::this_thread::sleep_for(std::chrono::microseconds(Backoff));
    Backoff *= 2;
  }
}

} // namespace rprism

#endif // RPRISM_ROBUSTNESS_RETRY_H
