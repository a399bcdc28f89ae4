//===- diff/NWayDiff.h - 1-vs-N variational differencing ------------------===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The mutation study (§6, Fig. 14) is a 1-vs-N workload: one baseline
/// trace differenced against N mutants. Run pairwise, each of the N diffs
/// re-builds the baseline's view web, re-correlates, and re-gathers the
/// baseline's fingerprint lanes. nwayDiff hoists the baseline work out of
/// the loop — web built once, lanes gathered once (BaselineLanes), shared
/// across every mutant evaluation, while each mutant's web and correlation
/// live only for that mutant's evaluation — and adds the *variational*
/// report on top: which mutants agree with the baseline, which diverge,
/// and the divergent ones clustered by the baseline site where they first
/// diverge.
///
/// Determinism contract: each mutant's DiffResult is byte-identical (same
/// rendered report, same compare-op total) to the pairwise
/// `viewsDiff(Base, Mutant)` — the shared state is pure amortization.
///
//===----------------------------------------------------------------------===//

#ifndef RPRISM_DIFF_NWAYDIFF_H
#define RPRISM_DIFF_NWAYDIFF_H

#include "diff/ViewsDiff.h"

#include <optional>
#include <string>
#include <vector>

namespace rprism {

/// Lane-level divergence of one mutant against the baseline: the first
/// position (within a correlated thread-view pair) where the fingerprint
/// lanes differ, and the length of the maximal all-differing run there.
/// Found with the laneMatchRun / laneMismatchRun kernels; a
/// coarse, memory-bandwidth-speed signal that fronts the semantic diff
/// (anchored reorderings can make lanes differ where the views-based
/// semantics finds similarity — the DiffResult stays authoritative).
struct LaneDivergence {
  uint32_t Tid = 0;      ///< Baseline thread id of the diverging pair.
  uint64_t Position = 0; ///< First differing index in the thread lane.
  uint64_t RunLen = 0;   ///< Maximal all-differing run length at Position.
};

/// Per-mutant outcome of the 1-vs-N evaluation.
struct NWayMutantReport {
  size_t Index = 0;  ///< Position in the input mutant list.
  DiffResult Result; ///< Byte-identical to the pairwise viewsDiff.

  /// No semantic differences at all: every entry of both traces is in Pi
  /// and no difference sequence was emitted.
  bool Agrees = false;

  /// Every correlated thread-view lane is bit-identical (same length,
  /// lanesEqual) — the strongest agreement: implies Agrees when both
  /// traces are fingerprint-complete and all threads correlate.
  bool LanesIdentical = false;

  /// Earliest lane divergence across the correlated thread pairs (by
  /// baseline thread order), when lanes were available and differ.
  std::optional<LaneDivergence> FirstDivergence;

  /// Label of the baseline site where this mutant first semantically
  /// diverges (the cluster key); empty when the mutant agrees.
  std::string Site;
  uint32_t SiteTid = 0;          ///< Thread of the first divergent sequence.
  uint32_t SiteEid = UINT32_MAX; ///< First baseline eid of it (or max).
};

/// Divergent mutants sharing one first-divergence site.
struct NWayCluster {
  std::string Site;            ///< Shared site label.
  uint32_t SiteTid = 0;
  uint32_t SiteEid = UINT32_MAX;
  std::vector<size_t> Mutants; ///< Input indices, ascending.
};

/// The variational report: per-mutant results plus the cross-mutant
/// clustering.
struct NWayResult {
  const Trace *Base = nullptr;
  std::vector<NWayMutantReport> Mutants;
  /// Divergence-site clusters in baseline order (thread, then position);
  /// agreeing mutants appear in no cluster.
  std::vector<NWayCluster> Clusters;
  size_t NumAgreeing = 0;
  uint64_t SharedLaneBytes = 0; ///< BaselineLanes payload gathered once.
  double Seconds = 0;           ///< Whole 1-vs-N wall-clock.

  /// Sum of per-mutant compare-op counts (identical to running the N
  /// pairwise diffs).
  uint64_t totalCompareOps() const;

  /// Text form of the variational report (the `rprism diff-nway` output):
  /// agreement summary, clusters with member mutants, per-mutant lines.
  std::string render(size_t MaxClusters = 50) const;
};

/// Differences \p Base against every trace in \p Mutants (all sharing the
/// baseline's StringInterner). The baseline's web and fingerprint lanes
/// are built once and reused by every mutant evaluation. Results are
/// byte-identical to the N pairwise viewsDiff calls under \p Options.
NWayResult nwayDiff(const Trace &Base,
                    const std::vector<const Trace *> &Mutants,
                    const ViewsDiffOptions &Options = ViewsDiffOptions());

} // namespace rprism

#endif // RPRISM_DIFF_NWAYDIFF_H
