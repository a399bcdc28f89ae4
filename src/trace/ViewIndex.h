//===- trace/ViewIndex.h - Persisted view-partition computation -----------===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Computes the ViewIndex of a trace: the exact partitioning of its
/// entries into the four view families that the ViewWeb build derives by
/// scanning the entry columns. Lives in the trace layer (not views) so the
/// serializer can emit index sections at save time without a layering
/// inversion; the ViewWeb constructor consumes a Present index to skip its
/// build scan entirely.
///
/// The contract binding the two layers: for any trace T,
/// reconstructing a web from computeViewIndex(T) yields the same views —
/// same family grouping, same first-appearance order, same ascending
/// entry lists, same identities — as ViewWeb(T) built from scratch.
/// (Pinned by the randomized property test in CacheTest.)
///
//===----------------------------------------------------------------------===//

#ifndef RPRISM_TRACE_VIEWINDEX_H
#define RPRISM_TRACE_VIEWINDEX_H

#include "trace/Trace.h"

namespace rprism {

/// Computes the view partitioning of \p T in one fused pass over the tid,
/// method, kind, target, and self columns. The result is fully owned (no
/// borrowing from T) and independent of any pool — the partitioning is a
/// pure function of the entry columns.
ViewIndex computeViewIndex(const Trace &T);

/// As computeViewIndex, restricted to entries [\p Begin, \p End). Entry
/// ids in the result stay *global* (they index \p T, not the sub-range),
/// so per-segment deltas of a segmented trace file concatenate into the
/// whole-trace index: appending each segment's per-view lists in segment
/// order, with views keyed across segments in first-appearance order,
/// reproduces computeViewIndex(T) exactly.
ViewIndex computeViewIndexRange(const Trace &T, uint32_t Begin, uint32_t End);

/// Structural sanity of \p Idx against a trace of \p NumEntries entries:
/// thread and method families cover every entry exactly once, object
/// families at most once each, every per-view entry list is non-empty,
/// strictly ascending, and in bounds, and the flat entry column's length
/// matches the family counts. This is what the loader enforces before
/// trusting persisted index sections.
bool viewIndexIsValid(const ViewIndex &Idx, size_t NumEntries);

} // namespace rprism

#endif // RPRISM_TRACE_VIEWINDEX_H
