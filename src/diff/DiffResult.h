//===- diff/DiffResult.h - Shared result types for trace differencing -----===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Both differencing semantics (§3.2 LCS-based, §3.3 views-based) produce
/// the same shape of result: the similarity set Pi as per-entry flags, the
/// derived difference set, and *difference sequences* — contiguous runs of
/// differences that the paper reports as the unit of tool output ("each
/// representing one higher-level semantic difference").
///
//===----------------------------------------------------------------------===//

#ifndef RPRISM_DIFF_DIFFRESULT_H
#define RPRISM_DIFF_DIFFRESULT_H

#include "support/Bitset.h"
#include "trace/Trace.h"

#include <map>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

namespace rprism {

/// Cost/outcome counters for one differencing run. CompareOps is the
/// paper's speedup metric (Fig. 14b); PeakBytes and OutOfMemory model the
/// Table 1 memory column (LCS exhausts its cap on the largest benchmark).
struct DiffStats {
  uint64_t CompareOps = 0;
  double Seconds = 0;
  uint64_t PeakBytes = 0;
  bool OutOfMemory = false;
};

/// A contiguous run of differing entries, paired across the two traces.
/// Either side may be empty (pure insertion/deletion).
struct DiffSequence {
  std::vector<uint32_t> LeftEids;
  std::vector<uint32_t> RightEids;
  uint32_t LeftTid = 0; ///< Thread context the run occurred in.

  size_t size() const { return LeftEids.size() + RightEids.size(); }
};

/// Result of differencing a (left, right) trace pair.
struct DiffResult {
  const Trace *Left = nullptr;
  const Trace *Right = nullptr;

  /// Pi membership: LeftSimilar[eid] is true when the left entry was found
  /// similar to some right entry (and vice versa).
  Bitset LeftSimilar;
  Bitset RightSimilar;

  std::vector<DiffSequence> Sequences;
  DiffStats Stats;

  /// Differences per side (entries not in Pi).
  uint64_t numLeftDiffs() const {
    return LeftSimilar.size() - LeftSimilar.count();
  }
  uint64_t numRightDiffs() const {
    return RightSimilar.size() - RightSimilar.count();
  }
  uint64_t numDiffs() const { return numLeftDiffs() + numRightDiffs(); }

  /// Renders the diff sequences with full dynamic context (the "semantic
  /// diff" of contribution 3). \p MaxSequences / \p MaxEntries bound output.
  std::string render(size_t MaxSequences = 20, size_t MaxEntries = 8) const;
};

/// One-line label for a difference sequence: the dominant executing method
/// and the objects it touches ("each [sequence] representing one
/// higher-level semantic difference", §5.1 — the label names it).
std::string summarizeSequence(const Trace &Left, const Trace &Right,
                              const DiffSequence &Seq);

/// What the entries of a difference sequence execute and touch, for the
/// one-line labels: entries per executing method, and the target objects.
/// An object's text is fixed by its (class symbol, creation seq) pair, so
/// targets are kept once per pair, whatever order the entries touch them
/// in, and only those distinct objects are ever rendered.
class SequenceSites {
public:
  /// Counts the entries \p Eids of \p T.
  void add(const Trace &T, const std::vector<uint32_t> &Eids);

  bool empty() const { return MethodCounts.empty(); }

  /// The method executing the most entries (the lowest symbol on a tie).
  Symbol dominantMethod() const;

  /// Prints " touching" and the first \p Limit distinct targets in the
  /// lexicographic order of their text (then " ..." if more remain), or
  /// nothing when no entry has a target. \p T may be any trace sharing
  /// the added traces' interner.
  void printObjects(std::ostream &OS, const Trace &T, size_t Limit) const;

private:
  std::map<uint32_t, unsigned> MethodCounts;
  std::unordered_map<uint64_t, const ObjRepr *> Targets;
};

} // namespace rprism

#endif // RPRISM_DIFF_DIFFRESULT_H
