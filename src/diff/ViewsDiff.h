//===- diff/ViewsDiff.h - Views-based trace differencing (§3.3) -----------===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The views-based differencing semantics. Each pair of correlated thread
/// views is evaluated with two alternating rules:
///
///   STEP-VIEW-MATCH    — equal heads (by =e) enter the similarity set Pi
///                        and both cursors advance (lock-step scanning);
///   STEP-VIEW-NOMATCH  — at a mismatch, secondary views linked to entries
///                        near the cursors are explored: views correlated
///                        by X_nu (or by the §5 *relaxed* context-sensitive
///                        rule: same offset from the last known-correlated
///                        point) are compared via LCS over fixed-size
///                        windows, and the matches become *anchors* added
///                        to Pi (LinkedSimilarEntries). The cursors then
///                        skip to the next pair of similar entries.
///
/// Anchors can mark entries far from the cursors as similar, which is what
/// makes the technique resilient to reorderings that plain LCS reports as
/// differences (§3.4) — and what makes difference sequences finer-grained.
///
//===----------------------------------------------------------------------===//

#ifndef RPRISM_DIFF_VIEWSDIFF_H
#define RPRISM_DIFF_VIEWSDIFF_H

#include "correlate/Correlate.h"
#include "diff/DiffResult.h"

namespace rprism {

class ThreadPool;

/// Tunables of the views-based semantics. Delta and Window are the paper's
/// two fixed constants (entry neighborhood and LCS window); ScanAhead
/// bounds the re-synchronization search so overall work stays linear.
struct ViewsDiffOptions {
  unsigned Delta = 6;     ///< +-delta entries around a mismatch explored.
  unsigned Window = 12;   ///< Half-window for secondary-view LCS.
  unsigned ScanAhead = 4096; ///< Max skip to the next sync point.
  bool ExploreSecondaryViews = true; ///< Ablation: off = pure lock-step.
  bool RelaxedCorrelation = true;    ///< §5 refactoring tolerance.
  /// Worker threads for the pipeline (view-web builds, per-thread-pair
  /// evaluation, pair fingerprinting). 0 = auto: hardware_concurrency,
  /// or the sequential path on small traces and single-core hosts (see
  /// effectiveDiffJobs); 1 runs the sequential path bit-for-bit. Every
  /// thread-pair evaluation is isolated (own anchors, similarity marks,
  /// and compare counter) and the per-pair results are merged in
  /// correlation order, so the DiffResult — including total compare-op
  /// counts — is identical for every value.
  unsigned Jobs = 0;
  /// Reconstruct view webs from a trace's persisted ViewIndex when one is
  /// present (the warm path for indexed trace files). Off = always build by
  /// scanning the entries; the result is identical either way (`rprism
  /// diff-traces|diff-nway --no-view-cache` sets this off).
  bool UseViewIndex = true;
};

/// The worker count the pipeline will actually use for \p Options on traces
/// totalling \p TotalEntries entries. An explicit Options.Jobs is always
/// honored. Auto mode (0) takes the hardware concurrency, but runs
/// sequentially on a single-core host or below 32,768 entries, where the
/// pool's queue round trips cost more than its workers win (the result is
/// identical either way, so only time changes). Exposed so callers owning
/// their pool (benchmarks) make the same choice.
unsigned effectiveDiffJobs(const ViewsDiffOptions &Options,
                           size_t TotalEntries);

/// The fingerprint lane of thread view \p V of \p T (which must carry
/// fingerprints): position i holds the fingerprint of the view's i-th
/// entry. A view that holds every entry of \p T is the identity range, so
/// its lane is the Fps column itself and nothing is copied; any other
/// view's lane is gathered into \p Storage.
const uint64_t *threadLane(const Trace &T, const View &V,
                           std::vector<uint64_t> &Storage);

/// Per-thread-view fingerprint lanes of one web, gathered once up front.
/// A pairwise diff gathers each side's lanes inside the pair evaluation;
/// when one baseline is differenced against N mutants (the 1-vs-N
/// variational mode), that re-gathers the baseline's lanes N times.
/// BaselineLanes hoists the gather: build it once from the baseline web
/// and pass it to every viewsDiff against that web — evaluators reuse the
/// shared lane (counted as `lane.shared_hit`) instead of re-gathering.
/// Purely an amortization: lane contents are identical to a fresh gather,
/// so results stay byte-identical to the pairwise path.
class BaselineLanes {
public:
  /// Gathers the lane of every thread view of \p Web. Empty (every lane
  /// lookup null) when the web's trace has no fingerprints.
  explicit BaselineLanes(const ViewWeb &Web);

  const ViewWeb &web() const { return *Web; }

  /// Dense fingerprint lane of thread view \p ViewId, or null when the
  /// view has no gathered lane.
  const std::vector<uint64_t> *lane(uint32_t ViewId) const;

  uint64_t bytes() const; ///< Total lane payload (telemetry/accounting).

private:
  const ViewWeb *Web;
  std::unordered_map<uint32_t, std::vector<uint64_t>> Lanes;
};

/// Runs the views-based differencing over two view webs whose traces share
/// a string interner. \p X supplies the view correlation (including the
/// X_TH thread pairs that seed the evaluation). \p Pool, when non-null,
/// overrides Options.Jobs for the evaluation stage (the caller keeps
/// ownership); otherwise a pool of Options.Jobs workers is used.
/// \p SharedLeft, when non-null and built over \p Left, supplies the left
/// side's pre-gathered fingerprint lanes (see BaselineLanes); the result
/// is identical with and without it.
DiffResult viewsDiff(const ViewWeb &Left, const ViewWeb &Right,
                     const ViewCorrelation &X,
                     const ViewsDiffOptions &Options = ViewsDiffOptions(),
                     ThreadPool *Pool = nullptr,
                     const BaselineLanes *SharedLeft = nullptr);

/// Convenience: builds webs + correlation internally (web index families
/// build concurrently on the Options.Jobs pool).
DiffResult viewsDiff(const Trace &Left, const Trace &Right,
                     const ViewsDiffOptions &Options = ViewsDiffOptions());

} // namespace rprism

#endif // RPRISM_DIFF_VIEWSDIFF_H
