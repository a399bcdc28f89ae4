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

#include <unordered_map>
#include <vector>

namespace rprism {

/// Key -> slot map of the view-family scans (the web builders and
/// computeViewIndex, which must agree on first-appearance order).
/// Keys — tids, interned symbol ids, store locations — are small dense
/// integers in a well-formed trace, so a key below a bound derived from
/// the trace size indexes a vector directly: one compare and load per
/// entry on the build hot path. Larger keys, which excluded classes'
/// allocations or a hostile file can produce, go to a hash map, so the
/// vector never grows past a few bytes per entry whatever the keys are.
class ViewKeyMap {
public:
  explicit ViewKeyMap(size_t NumEntries = 0) : Bound(NumEntries + 1024) {}

  /// The slot of \p Key; ~0u until the caller assigns one.
  uint32_t &slot(uint32_t Key) {
    if (Key < Dense.size())
      return Dense[Key];
    return slowSlot(Key);
  }

  /// Calls \p Fn(Key, Slot) for every key with an assigned slot.
  template <typename Fn> void forEach(Fn &&F) const {
    for (size_t Key = 0; Key != Dense.size(); ++Key)
      if (Dense[Key] != ~0u)
        F(static_cast<uint32_t>(Key), Dense[Key]);
    for (const auto &[Key, Slot] : Sparse)
      if (Slot != ~0u)
        F(Key, Slot);
  }

private:
  /// Grows the vector up to the bound, else goes to the hash map. Out of
  /// line, so slot() inlines into the scans as one compare and load.
  uint32_t &slowSlot(uint32_t Key);

  size_t Bound;
  std::vector<uint32_t> Dense;
  std::unordered_map<uint32_t, uint32_t> Sparse;
};

/// Computes the view partitioning of \p T in one fused pass over the tid,
/// method, kind, target, and self columns. The result is fully owned (no
/// borrowing from T) and independent of any pool — the partitioning is a
/// pure function of the entry columns.
ViewIndex computeViewIndex(const Trace &T);

/// Structural sanity of \p Idx against a trace of \p NumEntries entries:
/// thread and method families cover every entry exactly once, object
/// families at most once each, every per-view entry list is non-empty,
/// strictly ascending, and in bounds, and the flat entry column's length
/// matches the family counts. This is what the loader enforces before
/// trusting persisted index sections.
bool viewIndexIsValid(const ViewIndex &Idx, size_t NumEntries);

} // namespace rprism

#endif // RPRISM_TRACE_VIEWINDEX_H
