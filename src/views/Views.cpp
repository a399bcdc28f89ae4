//===- views/Views.cpp ----------------------------------------------------===//

#include "views/Views.h"

#include "support/Telemetry.h"
#include "support/ThreadPool.h"
#include "support/TraceEventRecorder.h"
#include "trace/ViewIndex.h"

#include <algorithm>
#include <sstream>

using namespace rprism;

const char *rprism::viewTypeName(ViewType Type) {
  switch (Type) {
  case ViewType::Thread:       return "thread";
  case ViewType::Method:       return "method";
  case ViewType::TargetObject: return "target-object";
  case ViewType::ActiveObject: return "active-object";
  }
  return "?";
}

/// True if the event kind carries a target object (FE/ME/KE events do;
/// fork/end do not). Shared with the view-index writer, which must
/// partition entries identically (trace/Event.h).
static bool hasTargetObject(EventKind Kind, const ObjRepr &Target) {
  return eventHasTargetObject(Kind, Target);
}

namespace {

/// One view family built by an independent scan: views in first-appearance
/// order with family-local ids. The key -> local-id map is a ViewKeyMap —
/// a direct-indexed vector for the small dense keys of a well-formed
/// trace — so the build hot path does one compare and load per entry
/// instead of a hash probe. The web's hash index is built once per family
/// afterwards (O(views), not O(entries)).
///
/// Each builder scans only the column(s) its family keys on — the payoff
/// of the columnar trace: the thread scan streams 4 bytes/entry, not a
/// whole entry.
struct FamilyBuild {
  std::vector<View> Views;
  ViewKeyMap Slots; ///< key -> local id; ~0u = no view yet.

  explicit FamilyBuild(size_t NumEntries = 0) : Slots(NumEntries) {}

  View &getOrCreate(uint32_t Key) {
    uint32_t &Slot = Slots.slot(Key);
    if (Slot == ~0u) {
      Slot = static_cast<uint32_t>(Views.size());
      Views.emplace_back();
    }
    return Views[Slot];
  }
};

/// nu_TH: every entry belongs to its thread's view. Reads the tid column.
FamilyBuild buildThreadFamily(const Trace &T) {
  FamilyBuild F(T.size());
  const uint32_t *Tids = T.Tids.data();
  uint32_t N = static_cast<uint32_t>(T.size());
  for (uint32_t Eid = 0; Eid != N; ++Eid) {
    View &V = F.getOrCreate(Tids[Eid]);
    if (V.Entries.empty()) {
      V.Type = ViewType::Thread;
      V.Tid = Tids[Eid];
    }
    V.Entries.push_back(Eid);
  }
  return F;
}

/// nu_CM: the (qualified) method on top of the call stack. Reads the
/// method column.
FamilyBuild buildMethodFamily(const Trace &T) {
  FamilyBuild F(T.size());
  const Symbol *Methods = T.Methods.data();
  uint32_t N = static_cast<uint32_t>(T.size());
  for (uint32_t Eid = 0; Eid != N; ++Eid) {
    View &V = F.getOrCreate(Methods[Eid].Id);
    if (V.Entries.empty()) {
      V.Type = ViewType::Method;
      V.MethodName = Methods[Eid];
    }
    V.Entries.push_back(Eid);
  }
  return F;
}

/// nu_TO: the event's target object, when it has one. Reads the kind and
/// target columns. LastRepr is filled in one pass at the end (each view's
/// last entry) rather than overwritten per entry — the per-entry struct
/// copy was measurable on long traces.
FamilyBuild buildTargetObjectFamily(const Trace &T) {
  FamilyBuild F(T.size());
  uint32_t N = static_cast<uint32_t>(T.size());
  for (uint32_t Eid = 0; Eid != N; ++Eid) {
    const ObjRepr &Target = T.target(Eid);
    if (!hasTargetObject(T.kind(Eid), Target))
      continue;
    View &V = F.getOrCreate(Target.Loc);
    if (V.Entries.empty()) {
      V.Type = ViewType::TargetObject;
      V.Loc = Target.Loc;
      V.FirstRepr = Target;
    }
    V.Entries.push_back(Eid);
  }
  for (View &V : F.Views)
    V.LastRepr = T.target(V.Entries.back());
  return F;
}

/// nu_AO: the receiver of the executing method, when there is one. Reads
/// the self column.
FamilyBuild buildActiveObjectFamily(const Trace &T) {
  FamilyBuild F(T.size());
  uint32_t N = static_cast<uint32_t>(T.size());
  for (uint32_t Eid = 0; Eid != N; ++Eid) {
    const ObjRepr &Self = T.self(Eid);
    if (Self.isNone())
      continue;
    View &V = F.getOrCreate(Self.Loc);
    if (V.Entries.empty()) {
      V.Type = ViewType::ActiveObject;
      V.Loc = Self.Loc;
      V.FirstRepr = Self;
    }
    V.Entries.push_back(Eid);
  }
  for (View &V : F.Views)
    V.LastRepr = T.self(V.Entries.back());
  return F;
}

/// Sequential path: all four families in ONE pass over the trace (the
/// keyed columns are the dominant memory traffic; four separate scans only
/// pay off when they run on different cores). Produces exactly what the
/// four independent builders produce.
void buildAllFamiliesFused(const Trace &T, FamilyBuild Families[4]) {
  const uint32_t *Tids = T.Tids.data();
  const Symbol *Methods = T.Methods.data();
  uint32_t N = static_cast<uint32_t>(T.size());
  for (size_t F = 0; F != 4; ++F)
    Families[F] = FamilyBuild(N);
  for (uint32_t Eid = 0; Eid != N; ++Eid) {
    View &TV = Families[0].getOrCreate(Tids[Eid]);
    if (TV.Entries.empty()) {
      TV.Type = ViewType::Thread;
      TV.Tid = Tids[Eid];
    }
    TV.Entries.push_back(Eid);

    View &MV = Families[1].getOrCreate(Methods[Eid].Id);
    if (MV.Entries.empty()) {
      MV.Type = ViewType::Method;
      MV.MethodName = Methods[Eid];
    }
    MV.Entries.push_back(Eid);

    const ObjRepr &Target = T.target(Eid);
    if (hasTargetObject(T.kind(Eid), Target)) {
      View &OV = Families[2].getOrCreate(Target.Loc);
      if (OV.Entries.empty()) {
        OV.Type = ViewType::TargetObject;
        OV.Loc = Target.Loc;
        OV.FirstRepr = Target;
      }
      OV.Entries.push_back(Eid);
    }

    const ObjRepr &Self = T.self(Eid);
    if (!Self.isNone()) {
      View &AV = Families[3].getOrCreate(Self.Loc);
      if (AV.Entries.empty()) {
        AV.Type = ViewType::ActiveObject;
        AV.Loc = Self.Loc;
        AV.FirstRepr = Self;
      }
      AV.Entries.push_back(Eid);
    }
  }
  for (View &V : Families[2].Views)
    V.LastRepr = T.target(V.Entries.back());
  for (View &V : Families[3].Views)
    V.LastRepr = T.self(V.Entries.back());
}

} // namespace

ViewWeb::ViewWeb(const Trace &TIn, ThreadPool *Pool, bool UseIndex)
    : T(&TIn) {
  // Warm path: a trace carrying its persisted partitioning skips the
  // entry scans — and the "web-build" span — entirely. The reconstruction
  // is O(views), not O(entries), and produces the identical web (same
  // dense ids, same entry lists; pinned by the CacheTest property test).
  if (UseIndex && TIn.ViewIdx.Present) {
    buildFromIndex(TIn.ViewIdx);
    return;
  }

  // The four families are built by independent scans (each touches only
  // its own map and view list), so they parallelize without shared state;
  // the deterministic concatenation below assigns the same dense ids
  // regardless of completion order. Without workers the four scans fuse
  // into one pass.
  TelemetrySpan WebSpan("web-build");
  FamilyBuild Families[4];
  if (Pool && Pool->numWorkers() > 1) {
    Pool->submit([&] {
      TelemetrySpan S("thread");
      Families[0] = buildThreadFamily(*T);
    });
    Pool->submit([&] {
      TelemetrySpan S("method");
      Families[1] = buildMethodFamily(*T);
    });
    Pool->submit([&] {
      TelemetrySpan S("target-object");
      Families[2] = buildTargetObjectFamily(*T);
    });
    Pool->submit([&] {
      TelemetrySpan S("active-object");
      Families[3] = buildActiveObjectFamily(*T);
    });
    Pool->wait();
  } else if (Telemetry::enabled() || TraceEventRecorder::armed()) {
    // Instrumented runs (telemetry or timeline tracing) take the four
    // separate scans sequentially so the per-family spans exist (with
    // identical paths and names) at --jobs 1 too. The builders produce
    // exactly what the fused pass produces.
    {
      TelemetrySpan S("thread");
      Families[0] = buildThreadFamily(*T);
    }
    {
      TelemetrySpan S("method");
      Families[1] = buildMethodFamily(*T);
    }
    {
      TelemetrySpan S("target-object");
      Families[2] = buildTargetObjectFamily(*T);
    }
    {
      TelemetrySpan S("active-object");
      Families[3] = buildActiveObjectFamily(*T);
    }
  } else {
    buildAllFamiliesFused(*T, Families);
  }

  std::unordered_map<uint32_t, uint32_t> *Indices[4] = {
      &ThreadIndex, &MethodIndex, &TargetIndex, &ActiveIndex};
  size_t Total = 0;
  for (const FamilyBuild &F : Families)
    Total += F.Views.size();
  Views.reserve(Total);
  for (size_t FI = 0; FI != 4; ++FI) {
    FamilyBuild &F = Families[FI];
    uint32_t Offset = static_cast<uint32_t>(Views.size());
    for (View &V : F.Views) {
      V.Id = Offset + static_cast<uint32_t>(&V - F.Views.data());
      Views.push_back(std::move(V));
    }
    Indices[FI]->reserve(F.Views.size());
    F.Slots.forEach([&](uint32_t Key, uint32_t Slot) {
      Indices[FI]->emplace(Key, Offset + Slot);
    });
  }
  Telemetry::counterAdd("web.views", Views.size());
}

void ViewWeb::buildFromIndex(const ViewIndex &Idx) {
  TelemetrySpan Span("view-index");
  std::unordered_map<uint32_t, uint32_t> *Indices[NumViewFamilies] = {
      &ThreadIndex, &MethodIndex, &TargetIndex, &ActiveIndex};
  constexpr ViewType FamilyType[NumViewFamilies] = {
      ViewType::Thread, ViewType::Method, ViewType::TargetObject,
      ViewType::ActiveObject};

  Views.reserve(Idx.numViews());
  const uint32_t *Flat = Idx.Entries.data();
  size_t Offset = 0;
  for (size_t F = 0; F != NumViewFamilies; ++F) {
    size_t NumViews = Idx.Keys[F].size();
    Indices[F]->reserve(NumViews);
    for (size_t VI = 0; VI != NumViews; ++VI) {
      uint32_t Key = Idx.Keys[F][VI];
      uint32_t Count = Idx.Counts[F][VI];
      View V;
      V.Type = FamilyType[F];
      V.Id = static_cast<uint32_t>(Views.size());
      V.Entries.borrow(Flat + Offset, Count);
      switch (FamilyType[F]) {
      case ViewType::Thread:
        V.Tid = Key;
        break;
      case ViewType::Method:
        V.MethodName = Symbol{Key};
        break;
      case ViewType::TargetObject:
      case ViewType::ActiveObject: {
        // The representation endpoints are not persisted — they are two
        // column loads per view (first and last member entry), the same
        // values the scan builders record.
        bool Target = FamilyType[F] == ViewType::TargetObject;
        uint32_t First = Flat[Offset], Last = Flat[Offset + Count - 1];
        V.Loc = Key;
        V.FirstRepr = Target ? T->target(First) : T->self(First);
        V.LastRepr = Target ? T->target(Last) : T->self(Last);
        break;
      }
      }
      Indices[F]->emplace(Key, V.Id);
      Views.push_back(std::move(V));
      Offset += Count;
    }
  }
  Telemetry::counterAdd("web.views", Views.size());
  Telemetry::counterAdd("web.from_index", 1);
}

const View *ViewWeb::threadView(uint32_t Tid) const {
  auto It = ThreadIndex.find(Tid);
  return It == ThreadIndex.end() ? nullptr : &Views[It->second];
}

const View *ViewWeb::methodView(Symbol QualName) const {
  auto It = MethodIndex.find(QualName.Id);
  return It == MethodIndex.end() ? nullptr : &Views[It->second];
}

const View *ViewWeb::targetObjectView(uint32_t Loc) const {
  auto It = TargetIndex.find(Loc);
  return It == TargetIndex.end() ? nullptr : &Views[It->second];
}

const View *ViewWeb::activeObjectView(uint32_t Loc) const {
  auto It = ActiveIndex.find(Loc);
  return It == ActiveIndex.end() ? nullptr : &Views[It->second];
}

std::vector<uint32_t> ViewWeb::viewsOf(uint32_t Eid) const {
  std::vector<uint32_t> Result;
  if (auto It = ThreadIndex.find(T->tid(Eid)); It != ThreadIndex.end())
    Result.push_back(It->second);
  if (auto It = MethodIndex.find(T->method(Eid).Id); It != MethodIndex.end())
    Result.push_back(It->second);
  if (hasTargetObject(T->kind(Eid), T->target(Eid)))
    if (auto It = TargetIndex.find(T->target(Eid).Loc);
        It != TargetIndex.end())
      Result.push_back(It->second);
  if (!T->self(Eid).isNone())
    if (auto It = ActiveIndex.find(T->self(Eid).Loc); It != ActiveIndex.end())
      Result.push_back(It->second);
  return Result;
}

int64_t ViewWeb::positionOf(const View &V, uint32_t Eid) {
  auto It = std::lower_bound(V.Entries.begin(), V.Entries.end(), Eid);
  if (It == V.Entries.end() || *It != Eid)
    return -1;
  return It - V.Entries.begin();
}

std::string ViewWeb::render(const View &V, size_t MaxEntries) const {
  std::ostringstream OS;
  OS << viewTypeName(V.Type) << " view ";
  switch (V.Type) {
  case ViewType::Thread:
    OS << "thread-" << V.Tid;
    break;
  case ViewType::Method:
    OS << T->Strings->text(V.MethodName);
    break;
  case ViewType::TargetObject:
  case ViewType::ActiveObject:
    OS << T->renderObj(V.FirstRepr);
    break;
  }
  OS << " (" << V.Entries.size() << " entries)\n";
  size_t Shown = 0;
  for (uint32_t Eid : V.Entries) {
    if (Shown++ == MaxEntries) {
      OS << "  ...\n";
      break;
    }
    OS << "  [" << Eid << "] " << T->renderEntry(Eid) << '\n';
  }
  return OS.str();
}
