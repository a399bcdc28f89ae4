//===- support/LaneScan.h - Lock-step scans over fingerprint lanes --------===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The lock-step core of the views-based differencing spends its time
/// scanning pairs of dense uint64_t fingerprint lanes. Three kernels:
///
///   laneMatchRun     — length of the equal prefix of A[0..Max)/B[0..Max)
///                      (the STEP-VIEW-MATCH run-skip scan);
///   laneMismatchRun  — length of the *unequal* prefix (divergence-run
///                      scan, used by the N-way variational clustering);
///   lanesEqual       — whole-block equality (run-boundary verify: an
///                      entire view lane against a baseline lane).
///
/// Plain scalar loops: the lanes are contiguous (gathered per view pair),
/// so the scans stream at memory bandwidth, and SSE2/AVX2 variants
/// measured at parity end to end (docs/PERFORMANCE.md, "Lane kernels").
///
//===----------------------------------------------------------------------===//

#ifndef RPRISM_SUPPORT_LANESCAN_H
#define RPRISM_SUPPORT_LANESCAN_H

#include <cstddef>
#include <cstdint>

namespace rprism {

/// Length of the equal prefix of A[0..Max) and B[0..Max). Eight 64-bit
/// XORs are OR-folded per iteration, so a long equal run costs one branch
/// per 64 bytes; the tail loop pins the exact boundary.
inline size_t laneMatchRun(const uint64_t *A, const uint64_t *B, size_t Max) {
  size_t K = 0;
  while (K + 8 <= Max) {
    uint64_t Diff = (A[K] ^ B[K]) | (A[K + 1] ^ B[K + 1]) |
                    (A[K + 2] ^ B[K + 2]) | (A[K + 3] ^ B[K + 3]) |
                    (A[K + 4] ^ B[K + 4]) | (A[K + 5] ^ B[K + 5]) |
                    (A[K + 6] ^ B[K + 6]) | (A[K + 7] ^ B[K + 7]);
    if (Diff)
      break;
    K += 8;
  }
  while (K < Max && A[K] == B[K])
    ++K;
  return K;
}

/// Length of the unequal prefix: the first index K with A[K] == B[K], or
/// Max when every position differs.
inline size_t laneMismatchRun(const uint64_t *A, const uint64_t *B,
                              size_t Max) {
  size_t K = 0;
  while (K < Max && A[K] != B[K])
    ++K;
  return K;
}

/// True when A[0..Len) == B[0..Len) elementwise.
inline bool lanesEqual(const uint64_t *A, const uint64_t *B, size_t Len) {
  return laneMatchRun(A, B, Len) == Len;
}

} // namespace rprism

#endif // RPRISM_SUPPORT_LANESCAN_H
