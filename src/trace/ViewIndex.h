//===- trace/ViewIndex.h - The view-family partition of a trace -----------===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one place the four view-membership rules of Fig. 7 (nu_TH, nu_CM,
/// nu_TO, nu_AO) are applied to a trace's entry columns. viewKey is the
/// rule; computeViewIndex applies it to every entry, one scan per family,
/// and writes the flat ViewIndex (trace/Trace.h). That index is what the
/// serializer persists and what every ViewWeb is assembled from — a
/// scanned web from an index it computes, a warm web from the trace's own.
/// Lives in the trace layer (not views) so the serializer can emit index
/// sections at save time without a layering inversion.
///
//===----------------------------------------------------------------------===//

#ifndef RPRISM_TRACE_VIEWINDEX_H
#define RPRISM_TRACE_VIEWINDEX_H

#include "trace/Trace.h"

#include <optional>

namespace rprism {

class ThreadPool;

/// Family \p Family's name — "thread", "method", "target-object" or
/// "active-object" — which also names its scan spans.
const char *viewFamilyName(size_t Family);

/// The key of entry \p Eid's view in family \p Family, or nothing when the
/// entry joins no view of that family: 0 = thread, its tid; 1 = method,
/// its qualified method's symbol id; 2 = target-object, its target's
/// location when eventHasTargetObject holds; 3 = active-object, its
/// receiver's location when self is not none.
inline std::optional<uint32_t> viewKey(const Trace &T, size_t Family,
                                       uint32_t Eid) {
  switch (Family) {
  case 0:
    return T.tid(Eid);
  case 1:
    return T.method(Eid).Id;
  case 2: {
    const ObjRepr &Target = T.target(Eid);
    if (!eventHasTargetObject(T.kind(Eid), Target))
      return std::nullopt;
    return Target.Loc;
  }
  default: {
    const ObjRepr &Self = T.self(Eid);
    if (Self.isNone())
      return std::nullopt;
    return Self.Loc;
  }
  }
}

/// Partitions \p T's entries into its views, family by family. Each family
/// scan first counts its views — keys in order of first appearance, and
/// entry counts — and, once every family's total is known, scatters the
/// entry ids into its stretch of the one flat Entries column, so each
/// view's list is ascending. With a \p Pool of more than one worker the
/// four families scan concurrently; the index is identical either way.
/// Each scan pass runs under a span named for its family. The result
/// borrows nothing from T.
ViewIndex computeViewIndex(const Trace &T, ThreadPool *Pool = nullptr);

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
