//===- support/Histogram.h - Bucketed histograms for Fig. 14 -------------===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Explicit-bucket histograms matching the paper's Fig. 14 presentation:
/// each bucket is labeled with its upper bound ("99%", "100%", ... for
/// accuracy; "0.5x", "1x", ..., "5000x" for speedup) and a value falls into
/// the first bucket whose bound is >= the value.
///
//===----------------------------------------------------------------------===//

#ifndef RPRISM_SUPPORT_HISTOGRAM_H
#define RPRISM_SUPPORT_HISTOGRAM_H

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace rprism {

/// Histogram over explicit ascending bucket bounds.
class Histogram {
public:
  /// \p Bounds must be ascending; \p Labels must parallel \p Bounds.
  Histogram(std::vector<double> Bounds, std::vector<std::string> Labels);

  /// Adds \p Value to the first bucket whose bound is >= it (last bucket
  /// catches everything above the final bound).
  void add(double Value);

  /// Count in bucket \p I.
  unsigned count(size_t I) const { return Counts[I]; }
  size_t numBuckets() const { return Counts.size(); }

  /// Label of bucket \p I.
  const std::string &label(size_t I) const { return Labels[I]; }

  /// Sum of all bucket counts.
  uint64_t total() const;

  /// Bucket-bound quantile estimate: the upper bound of the first bucket
  /// whose cumulative count reaches \p Q (in [0, 1]) of total(). A
  /// deterministic summary of bucketed data — exact values inside a
  /// bucket are not retained, so this is an upper bound, stable across
  /// runs and merge order. Returns 0 on an empty histogram.
  double quantile(double Q) const;

  /// Adds \p Other's bucket counts into this histogram. The two must have
  /// the same bucket shape (asserted); returns false on shape mismatch so
  /// release builds skip the merge instead of corrupting counts.
  bool merge(const Histogram &Other);

  /// Widest bar print() draws, in '#' characters.
  static constexpr unsigned MaxBarWidth = 60;

  /// Prints "label | count ###" ASCII-bar rows. Bars are one '#' per count
  /// while every count fits in MaxBarWidth; otherwise they are scaled so
  /// the largest bucket is MaxBarWidth wide (a non-empty bucket keeps at
  /// least one '#'). The exact count is always printed.
  void print(std::ostream &OS, const std::string &Title) const;

private:
  std::vector<double> Bounds;
  std::vector<std::string> Labels;
  std::vector<unsigned> Counts;
};

/// The accuracy buckets of Fig. 14(a): 99%..200%.
Histogram makeAccuracyHistogram();

/// The speedup buckets of Fig. 14(b): 0.5x..5000x.
Histogram makeSpeedupHistogram();

/// Power-of-two buckets 1, 2, 4, ..., 2^20 — the telemetry registry's
/// default shape for size/count distributions (e.g. difference-sequence
/// lengths). The last bucket is open-ended per Histogram::add.
Histogram makePow2Histogram();

} // namespace rprism

#endif // RPRISM_SUPPORT_HISTOGRAM_H
