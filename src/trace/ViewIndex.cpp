//===- trace/ViewIndex.cpp ------------------------------------------------===//

#include "trace/ViewIndex.h"

#include "support/Telemetry.h"

#include <unordered_set>
#include <vector>

using namespace rprism;

uint32_t &ViewKeyMap::slowSlot(uint32_t Key) {
  if (Key < Bound) {
    Dense.resize(Key + size_t{1}, ~0u);
    return Dense[Key];
  }
  return Sparse.try_emplace(Key, ~0u).first->second;
}

namespace {

/// One family's partition under construction: per-view keys in
/// first-appearance order plus per-view entry lists, keyed exactly like
/// the web builder's FamilyBuild — the two must visit views in the same
/// order.
struct FamilyScan {
  std::vector<uint32_t> Keys;
  std::vector<std::vector<uint32_t>> Lists;
  ViewKeyMap Slots;

  explicit FamilyScan(size_t NumEntries) : Slots(NumEntries) {}

  std::vector<uint32_t> &listFor(uint32_t Key) {
    uint32_t &Slot = Slots.slot(Key);
    if (Slot == ~0u) {
      Slot = static_cast<uint32_t>(Keys.size());
      Keys.push_back(Key);
      Lists.emplace_back();
    }
    return Lists[Slot];
  }
};

} // namespace

ViewIndex rprism::computeViewIndex(const Trace &T) {
  TelemetrySpan Span("view-index");

  // One fused pass, the same membership rules as the web builders: every
  // entry joins its thread and method views; target/active-object views
  // only when the event has a target / the context has a receiver.
  size_t N = T.size();
  FamilyScan Families[NumViewFamilies] = {FamilyScan(N), FamilyScan(N),
                                          FamilyScan(N), FamilyScan(N)};
  for (uint32_t Eid = 0; Eid != N; ++Eid) {
    Families[0].listFor(T.tid(Eid)).push_back(Eid);
    Families[1].listFor(T.method(Eid).Id).push_back(Eid);
    const ObjRepr &Target = T.target(Eid);
    if (eventHasTargetObject(T.kind(Eid), Target))
      Families[2].listFor(Target.Loc).push_back(Eid);
    const ObjRepr &Self = T.self(Eid);
    if (!Self.isNone())
      Families[3].listFor(Self.Loc).push_back(Eid);
  }

  ViewIndex Idx;
  size_t TotalEntries = 0;
  for (size_t F = 0; F != NumViewFamilies; ++F)
    for (const std::vector<uint32_t> &List : Families[F].Lists)
      TotalEntries += List.size();
  Idx.Entries.reserve(TotalEntries);
  for (size_t F = 0; F != NumViewFamilies; ++F) {
    FamilyScan &Fam = Families[F];
    Idx.Keys[F].append(Fam.Keys.data(), Fam.Keys.size());
    Idx.Counts[F].reserve(Fam.Lists.size());
    for (const std::vector<uint32_t> &List : Fam.Lists) {
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
        return false; // Builders never create empty views.
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
    // Thread and method views partition the whole trace; object views
    // cover a subset (events without a target / receiver join none).
    if (F < 2 ? FamilyTotal != NumEntries : FamilyTotal > NumEntries)
      return false;
  }
  return FlatOffset == Idx.Entries.size();
}
