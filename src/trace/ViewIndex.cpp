//===- trace/ViewIndex.cpp ------------------------------------------------===//

#include "trace/ViewIndex.h"

#include "support/Telemetry.h"

#include <cassert>
#include <optional>
#include <unordered_map>
#include <unordered_set>

using namespace rprism;

namespace {

/// Key -> slot map of a family scan. Keys — tids, interned symbol ids,
/// store locations — are small dense integers in a well-formed trace, so a
/// key below a bound derived from the trace size indexes a vector directly:
/// one compare and load per entry on the scan's hot path. Larger keys,
/// which excluded classes' allocations or a hostile file can produce, go to
/// a hash map, so the vector never grows past a few bytes per entry
/// whatever the keys are.
class ViewKeyMap {
public:
  explicit ViewKeyMap(size_t NumEntries) : Bound(NumEntries + 1024) {}

  /// The slot of \p Key; ~0u until the caller assigns one.
  uint32_t &slot(uint32_t Key) {
    if (Key < Dense.size())
      return Dense[Key];
    return slowSlot(Key);
  }

private:
  /// Grows the vector up to the bound, else goes to the hash map. Out of
  /// line, so slot() inlines into the scans as one compare and load.
  [[gnu::noinline]] uint32_t &slowSlot(uint32_t Key) {
    if (Key < Bound) {
      Dense.resize(Key + size_t{1}, ~0u);
      return Dense[Key];
    }
    return Sparse.try_emplace(Key, ~0u).first->second;
  }

  size_t Bound;
  std::vector<uint32_t> Dense;
  std::unordered_map<uint32_t, uint32_t> Sparse;
};

/// Partitions entries 0..N-1 by \p KeyOf(Eid): the entry's key in the
/// family, or nothing when the entry joins none of its views.
template <typename KeyFn>
FamilyPartition partitionBy(size_t N, KeyFn KeyOf) {
  FamilyPartition P;
  ViewKeyMap Slots(N);
  for (uint32_t Eid = 0; Eid != N; ++Eid) {
    std::optional<uint32_t> Key = KeyOf(Eid);
    if (!Key)
      continue;
    uint32_t &Slot = Slots.slot(*Key);
    if (Slot == ~0u) {
      Slot = static_cast<uint32_t>(P.Keys.size());
      P.Keys.push_back(*Key);
      P.Lists.emplace_back();
    }
    P.Lists[Slot].push_back(Eid);
  }
  return P;
}

} // namespace

FamilyPartition rprism::partitionViewFamily(const Trace &T, size_t Family) {
  assert(Family < NumViewFamilies && "no such view family");
  size_t N = T.size();
  switch (Family) {
  case 0: // nu_TH: every entry belongs to its thread's view.
    return partitionBy(N, [Tids = T.Tids.data()](uint32_t Eid) {
      return std::optional<uint32_t>(Tids[Eid]);
    });
  case 1: // nu_CM: the (qualified) method on top of the call stack.
    return partitionBy(N, [Methods = T.Methods.data()](uint32_t Eid) {
      return std::optional<uint32_t>(Methods[Eid].Id);
    });
  case 2: // nu_TO: the event's target object, when it has one.
    return partitionBy(N, [&T](uint32_t Eid) -> std::optional<uint32_t> {
      const ObjRepr &Target = T.target(Eid);
      if (!eventHasTargetObject(T.kind(Eid), Target))
        return std::nullopt;
      return Target.Loc;
    });
  default: // nu_AO: the receiver of the executing method, when there is one.
    return partitionBy(N, [&T](uint32_t Eid) -> std::optional<uint32_t> {
      const ObjRepr &Self = T.self(Eid);
      if (Self.isNone())
        return std::nullopt;
      return Self.Loc;
    });
  }
}

ViewIndex rprism::computeViewIndex(const Trace &T) {
  TelemetrySpan Span("view-index");
  FamilyPartition Parts[NumViewFamilies];
  size_t TotalEntries = 0;
  for (size_t F = 0; F != NumViewFamilies; ++F) {
    Parts[F] = partitionViewFamily(T, F);
    for (const std::vector<uint32_t> &List : Parts[F].Lists)
      TotalEntries += List.size();
  }

  ViewIndex Idx;
  Idx.Entries.reserve(TotalEntries);
  for (size_t F = 0; F != NumViewFamilies; ++F) {
    Idx.Keys[F].append(Parts[F].Keys.data(), Parts[F].Keys.size());
    Idx.Counts[F].reserve(Parts[F].Lists.size());
    for (const std::vector<uint32_t> &List : Parts[F].Lists) {
      Idx.Counts[F].push_back(static_cast<uint32_t>(List.size()));
      Idx.Entries.append(List.data(), List.size());
    }
  }
  Idx.Present = true;
  return Idx;
}

bool rprism::viewIndexIsValid(const ViewIndex &Idx, size_t NumEntries) {
  uint64_t FlatOffset = 0;
  for (size_t F = 0; F != NumViewFamilies; ++F) {
    size_t NumViews = Idx.Keys[F].size();
    if (Idx.Counts[F].size() != NumViews)
      return false;
    std::unordered_set<uint32_t> Seen;
    Seen.reserve(NumViews);
    uint64_t FamilyTotal = 0;
    for (size_t V = 0; V != NumViews; ++V) {
      if (!Seen.insert(Idx.Keys[F][V]).second)
        return false; // Duplicate key: two views with one identity.
      uint32_t Count = Idx.Counts[F][V];
      if (Count == 0)
        return false; // Scans never create empty views.
      if (FlatOffset + Count > Idx.Entries.size())
        return false;
      const uint32_t *List = Idx.Entries.data() + FlatOffset;
      if (List[Count - 1] >= NumEntries)
        return false;
      for (uint32_t I = 1; I < Count; ++I)
        if (List[I - 1] >= List[I])
          return false; // Entry lists are strictly ascending.
      FlatOffset += Count;
      FamilyTotal += Count;
    }
    // Thread and method views hold every entry, so their counts sum to
    // the entry count; object views hold a subset (events without a
    // target / receiver join none). Only the sums are checked.
    if (F < 2 ? FamilyTotal != NumEntries : FamilyTotal > NumEntries)
      return false;
  }
  return FlatOffset == Idx.Entries.size();
}
