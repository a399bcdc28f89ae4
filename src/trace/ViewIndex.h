//===- trace/ViewIndex.h - The view-family partition of a trace -----------===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one place the four view-membership rules of Fig. 7 (nu_TH, nu_CM,
/// nu_TO, nu_AO) are applied to a trace's entry columns. Each family is one
/// scan, partitionViewFamily; the ViewWeb build runs the four scans (on a
/// pool when it has one) and computeViewIndex flattens them into the
/// ViewIndex the serializer persists. Lives in the trace layer (not views)
/// so the serializer can emit index sections at save time without a
/// layering inversion.
///
/// A web reconstructed from computeViewIndex(T) therefore holds the same
/// views as ViewWeb(T) built by scanning — same family grouping, same
/// first-appearance order, same ascending entry lists, same identities —
/// by construction: both come from the same four scans.
///
//===----------------------------------------------------------------------===//

#ifndef RPRISM_TRACE_VIEWINDEX_H
#define RPRISM_TRACE_VIEWINDEX_H

#include "trace/Trace.h"

#include <vector>

namespace rprism {

/// One view family's partition of a trace's entries: the keys of its views
/// (tids, interned method-symbol ids or store locations) in order of first
/// appearance, and each view's ascending entry-id list.
struct FamilyPartition {
  std::vector<uint32_t> Keys;
  std::vector<std::vector<uint32_t>> Lists;
};

/// Scans the column(s) family \p Family keys on (0 = thread: tid;
/// 1 = method: method symbol; 2 = target-object: target location, when
/// eventHasTargetObject holds; 3 = active-object: self location, when self
/// is not none) and returns its partition. A pure function of the columns,
/// so the four families can be scanned concurrently.
FamilyPartition partitionViewFamily(const Trace &T, size_t Family);

/// The four family partitions of \p T flattened into a ViewIndex, in family
/// order. The result is fully owned (no borrowing from T).
ViewIndex computeViewIndex(const Trace &T);

/// Structural sanity of \p Idx against a trace of \p NumEntries entries:
/// per family, one count per key and no key twice; every per-view entry
/// list non-empty, strictly ascending and in bounds; the thread and method
/// families' counts each summing to exactly \p NumEntries and the object
/// families' to at most that; and the flat entry column's length matching
/// the counts. This is what the loader enforces before trusting persisted
/// index sections. It does not check that each entry appears in exactly
/// one view per family, nor that the index agrees with the entry columns.
bool viewIndexIsValid(const ViewIndex &Idx, size_t NumEntries);

} // namespace rprism

#endif // RPRISM_TRACE_VIEWINDEX_H
