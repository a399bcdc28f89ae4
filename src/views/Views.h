//===- views/Views.h - Semantic views over traces (Fig. 7) ----------------===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Semantic views: named projections over a trace that aggregate entries
/// sharing a semantic trait (§2.4). The four view types:
///
///   TH  thread views        — all events of one thread, in order
///   CM  method views        — events occurring while a given (fully
///                             qualified) method is on top of the call stack
///   TO  target object views — events whose target is a given object
///   AO  active object views — events whose *executing* receiver is a given
///                             object (it is on top of the call stack)
///
/// Views are *linked*: each view stores original entry indices, so any
/// entry can be navigated from its position in one view to its position in
/// every other view it belongs to — the "web" of views.
///
/// Which entries a view holds is decided in one place, the family scans of
/// trace/ViewIndex.h, and every web is assembled from their output, a flat
/// ViewIndex: the trace's own (persisted in its file, or precomputed) or
/// one the web computes and owns. A scanned web and a reconstructed one
/// are therefore identical by construction.
///
//===----------------------------------------------------------------------===//

#ifndef RPRISM_VIEWS_VIEWS_H
#define RPRISM_VIEWS_VIEWS_H

#include "trace/Trace.h"

#include <span>
#include <string>
#include <unordered_map>
#include <vector>

namespace rprism {

/// The four view types of §2.4. Each value is also its family's index in
/// viewKey and in the ViewIndex.
enum class ViewType : uint8_t { Thread, Method, TargetObject, ActiveObject };

const char *viewTypeName(ViewType Type);

/// One view: its identity plus the (ascending) entry ids it contains.
/// Entries is a stretch of the flat entry column of the ViewIndex the web
/// was assembled from (which itself may borrow the mapped trace file).
struct View {
  ViewType Type = ViewType::Thread;
  uint32_t Id = 0; ///< Dense id within the owning ViewWeb.
  std::span<const uint32_t> Entries; ///< Entry ids, ascending.

  // Identity, depending on Type:
  uint32_t Tid = 0;       ///< Thread views.
  Symbol MethodName;      ///< Method views (qualified name).
  uint32_t Loc = NoLoc;   ///< Object views (location within this trace).

  /// Object views: representations observed at the first and last events,
  /// used by the X_TO/X_AO correlation heuristics (an object's value
  /// representation evolves during the run, so both endpoints are kept).
  ObjRepr FirstRepr;
  ObjRepr LastRepr;

  size_t size() const { return Entries.size(); }
};

class ThreadPool;

/// The full web of views for one trace.
class ViewWeb {
public:
  /// Builds every view of \p T. The trace must outlive the web. When
  /// \p UseIndex is set and the trace carries a current ViewIndex (loaded
  /// from an indexed trace file or precomputed), views are assembled from
  /// it in O(views), under a "view-index" span. Otherwise the web computes
  /// and owns the index, under a "web-build" span: computeViewIndex scans
  /// the four families (concurrently with a \p Pool of more than one
  /// worker). View ids are dense and family-grouped (all thread views
  /// first, then method, target-object, active-object, each in order of
  /// first appearance) — the same web either way.
  explicit ViewWeb(const Trace &T, ThreadPool *Pool = nullptr,
                   bool UseIndex = true);

  /// Views point into the index the web was assembled from.
  ViewWeb(const ViewWeb &) = delete;
  ViewWeb &operator=(const ViewWeb &) = delete;

  const Trace &trace() const { return *T; }

  const View &view(uint32_t ViewId) const { return Views[ViewId]; }
  size_t numViews() const { return Views.size(); }

  size_t numThreadViews() const { return family(ViewType::Thread).size(); }
  size_t numMethodViews() const { return family(ViewType::Method).size(); }
  size_t numTargetObjectViews() const {
    return family(ViewType::TargetObject).size();
  }
  size_t numActiveObjectViews() const {
    return family(ViewType::ActiveObject).size();
  }

  /// Lookups; null when no such view exists.
  const View *threadView(uint32_t Tid) const {
    return find(ViewType::Thread, Tid);
  }
  const View *methodView(Symbol QualName) const {
    return find(ViewType::Method, QualName.Id);
  }
  const View *targetObjectView(uint32_t Loc) const {
    return find(ViewType::TargetObject, Loc);
  }
  const View *activeObjectView(uint32_t Loc) const {
    return find(ViewType::ActiveObject, Loc);
  }

  /// All views containing entry \p Eid (the nu mappings of Fig. 7): its
  /// thread view, method view, target object view (if the event has a
  /// target), and active object view (if the context has a receiver).
  std::vector<uint32_t> viewsOf(uint32_t Eid) const;

  /// Position of \p Eid within \p V (index into V.Entries), or -1 when the
  /// entry is not a member. O(log n).
  static int64_t positionOf(const View &V, uint32_t Eid);

  /// Renders a view like the boxes of Fig. 2/13 (debugging/report aid).
  std::string render(const View &V, size_t MaxEntries = 50) const;

  /// Iterable list of all views.
  const std::vector<View> &views() const { return Views; }

private:
  using KeyMap = std::unordered_map<uint32_t, uint32_t>;

  /// Appends the next view of family \p Type, keyed \p Key, holding the
  /// non-empty ascending list \p Entries; object views take their
  /// representation endpoints from the first and last entry.
  void addView(ViewType Type, uint32_t Key, std::span<const uint32_t> Entries);

  const KeyMap &family(ViewType Type) const {
    return KeyToView[static_cast<size_t>(Type)];
  }
  const View *find(ViewType Type, uint32_t Key) const {
    auto It = family(Type).find(Key);
    return It == family(Type).end() ? nullptr : &Views[It->second];
  }

  const Trace *T;
  /// The computed index of a scanned web; empty when the web reads the
  /// trace's own.
  ViewIndex Owned;
  std::vector<View> Views;
  /// Per family (indexed by ViewType): tid / method symbol / location ->
  /// view id.
  KeyMap KeyToView[NumViewFamilies];
};

} // namespace rprism

#endif // RPRISM_VIEWS_VIEWS_H
