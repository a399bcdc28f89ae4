//===- trace/ViewIndex.cpp ------------------------------------------------===//

#include "trace/ViewIndex.h"

#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include <type_traits>
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

/// One family's scan state, kept from its count pass to its scatter pass.
struct FamilyScan {
  explicit FamilyScan(size_t NumEntries) : Slots(NumEntries) {}

  ViewKeyMap Slots;             ///< Key -> the view's index in Keys.
  std::vector<uint32_t> Keys;   ///< In order of first appearance.
  std::vector<uint32_t> Counts; ///< Entries per view.
  uint64_t Total = 0;           ///< Entries in all of the family's views.
};

/// Calls \p Body with \p Family as a compile-time constant, so viewKey's
/// family switch folds out of the scan loops.
template <typename Fn> void withFamily(size_t Family, Fn Body) {
  switch (Family) {
  case 0:
    return Body(std::integral_constant<size_t, 0>());
  case 1:
    return Body(std::integral_constant<size_t, 1>());
  case 2:
    return Body(std::integral_constant<size_t, 2>());
  default:
    return Body(std::integral_constant<size_t, 3>());
  }
}

/// The count pass: assigns each key its view, in order of first
/// appearance, and counts the view's entries.
void countFamily(const Trace &T, size_t Family, FamilyScan &S) {
  withFamily(Family, [&T, &S](auto F) {
    for (uint32_t Eid = 0, N = static_cast<uint32_t>(T.size()); Eid != N;
         ++Eid) {
      std::optional<uint32_t> Key = viewKey(T, F, Eid);
      if (!Key)
        continue;
      uint32_t &Slot = S.Slots.slot(*Key);
      if (Slot == ~0u) {
        Slot = static_cast<uint32_t>(S.Keys.size());
        S.Keys.push_back(*Key);
        S.Counts.push_back(0);
      }
      ++S.Counts[Slot];
    }
  });
  for (uint32_t Count : S.Counts)
    S.Total += Count;
}

/// The scatter pass: writes each entry id at its view's next free position
/// in \p Out, the family's stretch of the flat column. Views sit back to
/// back in key order and entries arrive in eid order, so every list comes
/// out ascending.
void scatterFamily(const Trace &T, size_t Family, FamilyScan &S,
                   uint32_t *Out) {
  std::vector<uint32_t> Next(S.Counts.size());
  uint32_t Offset = 0;
  for (size_t V = 0; V != Next.size(); ++V) {
    Next[V] = Offset;
    Offset += S.Counts[V];
  }
  withFamily(Family, [&T, &S, &Next, Out](auto F) {
    for (uint32_t Eid = 0, N = static_cast<uint32_t>(T.size()); Eid != N;
         ++Eid) {
      std::optional<uint32_t> Key = viewKey(T, F, Eid);
      if (Key)
        Out[Next[S.Slots.slot(*Key)]++] = Eid;
    }
  });
}

} // namespace

const char *rprism::viewFamilyName(size_t Family) {
  static const char *const Names[NumViewFamilies] = {
      "thread", "method", "target-object", "active-object"};
  return Family < NumViewFamilies ? Names[Family] : "?";
}

ViewIndex rprism::computeViewIndex(const Trace &T, ThreadPool *Pool) {
  std::vector<FamilyScan> Scans;
  Scans.reserve(NumViewFamilies);
  for (size_t F = 0; F != NumViewFamilies; ++F)
    Scans.emplace_back(T.size());

  // Runs one pass of every family. The families share no state, so with
  // workers they run concurrently.
  const bool OnPool = Pool && Pool->numWorkers() > 1;
  auto EachFamily = [Pool, OnPool](auto Pass) {
    for (size_t F = 0; F != NumViewFamilies; ++F) {
      auto Task = [&Pass, F] {
        TelemetrySpan Span(viewFamilyName(F));
        Pass(F);
      };
      if (OnPool)
        Pool->submit(Task);
      else
        Task();
    }
    if (OnPool)
      Pool->wait();
  };

  EachFamily([&T, &Scans](size_t F) { countFamily(T, F, Scans[F]); });

  // Families lie back to back in the flat column, in family order. The
  // column is not zero-filled first, so its pages are first touched by the
  // scatter passes, on the pool when there is one.
  uint64_t Total = 0;
  for (const FamilyScan &S : Scans)
    Total += S.Total;
  ViewIndex Idx;
  Idx.Entries.resize(Total);
  uint32_t *Out[NumViewFamilies];
  Out[0] = Idx.Entries.mutData();
  for (size_t F = 1; F != NumViewFamilies; ++F)
    Out[F] = Out[F - 1] + Scans[F - 1].Total;

  EachFamily([&T, &Scans, &Out](size_t F) {
    scatterFamily(T, F, Scans[F], Out[F]);
  });

  for (size_t F = 0; F != NumViewFamilies; ++F) {
    Idx.Keys[F].append(Scans[F].Keys.data(), Scans[F].Keys.size());
    Idx.Counts[F].append(Scans[F].Counts.data(), Scans[F].Counts.size());
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
