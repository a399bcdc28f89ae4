//===- analysis/Regression.h - Regression cause analysis (§4) -------------===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The §4 algorithm. Given four runs — original and new program versions,
/// each on a regressing and a similar non-regressing test input — three
/// trace diffs are computed:
///
///   A = diff(orig/regr-input, new/regr-input)  suspected differences
///   B = diff(orig/ok-input,   new/ok-input)    expected differences
///   C = diff(new/ok-input,    new/regr-input)  regression differences
///
/// and the candidate set is  D = (A - B) ∩ C,  or  D = (A - B) - C  for
/// regressions caused by *removed* code (whose differences live on the
/// original-version side and can never appear in C).
///
/// A - B matches differences across different trace pairs by a *content
/// key* (event structure + version-stable value representations + context
/// method, with multiset occurrence semantics). ∩ C exploits that A and C
/// share the new/regr-input run: the harness reuses one trace object, so
/// membership is exact by entry id.
///
//===----------------------------------------------------------------------===//

#ifndef RPRISM_ANALYSIS_REGRESSION_H
#define RPRISM_ANALYSIS_REGRESSION_H

#include "diff/Lcs.h"
#include "diff/ViewsDiff.h"

#include <string>
#include <unordered_set>
#include <vector>

namespace rprism {

/// The four traces the analysis consumes. NewRegr is shared between the A
/// and C diffs (same version, same input — and runs are deterministic).
struct RegressionInputs {
  const Trace *OrigOk = nullptr;
  const Trace *OrigRegr = nullptr;
  const Trace *NewOk = nullptr;
  const Trace *NewRegr = nullptr;
};

/// Which differencing semantics drives the analysis.
enum class DiffEngineKind : uint8_t { Views, Lcs };

struct RegressionOptions {
  DiffEngineKind Engine = DiffEngineKind::Views;
  ViewsDiffOptions Views;
  LcsDiffOptions Lcs;
  /// Code-removal mode: D = (A - B) - C (§4.1's variant).
  bool CodeRemoval = false;
  /// Views engine only: route the three diffs through a scoped DiffCache so
  /// the traces shared between them (NewOk in B and C, NewRegr in A and C)
  /// have their view webs built once instead of twice. Results are
  /// identical either way.
  bool UseDiffCache = true;
};

/// Result of the analysis.
struct RegressionReport {
  DiffResult A; ///< orig/regr vs new/regr.
  DiffResult B; ///< orig/ok vs new/ok.
  DiffResult C; ///< new/ok vs new/regr.

  /// D membership, over the entries of A's traces. DLeft indexes the
  /// orig/regr trace, DRight the new/regr trace.
  std::vector<bool> DLeft;
  std::vector<bool> DRight;

  /// Indices into A.Sequences identified as regression-related (they
  /// contain at least one D entry).
  std::vector<uint32_t> RegressionSequences;

  uint64_t sizeA = 0; ///< |A| in differences.
  uint64_t sizeB = 0;
  uint64_t sizeC = 0;
  uint64_t sizeD = 0;

  bool OutOfMemory = false; ///< Any of the three diffs failed (LCS engine).

  /// Total differencing cost across the three diffs.
  DiffStats Stats;

  /// Renders the regression-related sequences with full dynamic context.
  std::string render(size_t MaxSequences = 10, size_t MaxEntries = 10) const;
};

/// Runs the full analysis.
RegressionReport analyzeRegression(const RegressionInputs &Inputs,
                                   const RegressionOptions &Options =
                                       RegressionOptions());

//===----------------------------------------------------------------------===//
// Ground-truth scoring (used by the evaluation harness, not the analysis)
//===----------------------------------------------------------------------===//

/// One known change between the versions (injected by the mutator or
/// documented for the authored benchmark pairs).
struct GroundTruthChange {
  std::string Description;
  bool RegressionRelated = false; ///< True for the regression cause itself.
  /// True for known downstream *effects* of the regression (e.g. the
  /// wrong output being produced). The paper treats effect sequences as
  /// regression-related but distinguishes them from causes ("the other
  /// difference was related to the effect of the regression", §5.2).
  bool EffectRelated = false;
  /// Qualified method names whose behavior the change affects.
  std::unordered_set<std::string> Methods;
  /// AST node ids of changed constructs, per version (provenance match).
  std::unordered_set<uint32_t> OrigNodes;
  std::unordered_set<uint32_t> NewNodes;
};

/// Accuracy accounting in the style of Table 1.
struct RegressionScore {
  unsigned ReportedSequences = 0; ///< |RegressionSequences|.
  unsigned TruePositives = 0;     ///< Reported sequences tied to the cause.
  unsigned EffectRelated = 0;     ///< Tied to a known downstream effect.
  unsigned FalsePositives = 0;    ///< Tied to nothing regression-related.
  unsigned FalseNegatives = 0;    ///< Cause changes missed entirely.

  /// Table 1's "Regression Diff. Seqs.": causes plus effects.
  unsigned regressionRelated() const { return TruePositives + EffectRelated; }
};

/// Scores a report against ground truth: a reported sequence is a true
/// positive when one of its entries matches a regression *cause* (by
/// provenance node id or by context/callee method name), effect-related
/// when it only matches a known effect, and a false positive otherwise.
RegressionScore scoreReport(const RegressionReport &Report,
                            const std::vector<GroundTruthChange> &Truth);

} // namespace rprism

#endif // RPRISM_ANALYSIS_REGRESSION_H
