//===- views/Views.cpp ----------------------------------------------------===//

#include "views/Views.h"

#include "support/Telemetry.h"
#include "trace/ViewIndex.h"

#include <algorithm>
#include <sstream>

using namespace rprism;

const char *rprism::viewTypeName(ViewType Type) {
  return viewFamilyName(static_cast<size_t>(Type));
}

ViewWeb::ViewWeb(const Trace &TIn, ThreadPool *Pool, bool UseIndex)
    : T(&TIn) {
  // Warm path: a trace carrying its persisted partitioning skips the entry
  // scans — and the "web-build" span — entirely, and the assembly below is
  // O(views), not O(entries).
  const bool FromTrace = UseIndex && TIn.ViewIdx.Present;
  TelemetrySpan Span(FromTrace ? "view-index" : "web-build");
  if (!FromTrace)
    Owned = computeViewIndex(TIn, Pool);
  const ViewIndex &Idx = FromTrace ? TIn.ViewIdx : Owned;

  Views.reserve(Idx.numViews());
  const uint32_t *Flat = Idx.Entries.data();
  for (size_t F = 0; F != NumViewFamilies; ++F) {
    size_t NumViews = Idx.Keys[F].size();
    KeyToView[F].reserve(NumViews);
    for (size_t VI = 0; VI != NumViews; ++VI) {
      uint32_t Count = Idx.Counts[F][VI];
      addView(static_cast<ViewType>(F), Idx.Keys[F][VI], {Flat, Count});
      Flat += Count;
    }
  }
  Telemetry::counterAdd("web.views", Views.size());
  if (FromTrace)
    Telemetry::counterAdd("web.from_index", 1);
}

void ViewWeb::addView(ViewType Type, uint32_t Key,
                      std::span<const uint32_t> Entries) {
  View V;
  V.Type = Type;
  V.Id = static_cast<uint32_t>(Views.size());
  switch (Type) {
  case ViewType::Thread:
    V.Tid = Key;
    break;
  case ViewType::Method:
    V.MethodName = Symbol{Key};
    break;
  case ViewType::TargetObject:
    V.Loc = Key;
    V.FirstRepr = T->target(Entries[0]);
    V.LastRepr = T->target(Entries.back());
    break;
  case ViewType::ActiveObject:
    V.Loc = Key;
    V.FirstRepr = T->self(Entries[0]);
    V.LastRepr = T->self(Entries.back());
    break;
  }
  V.Entries = Entries;
  KeyToView[static_cast<size_t>(Type)].emplace(Key, V.Id);
  Views.push_back(std::move(V));
}

std::vector<uint32_t> ViewWeb::viewsOf(uint32_t Eid) const {
  std::vector<uint32_t> Result;
  for (size_t F = 0; F != NumViewFamilies; ++F)
    if (std::optional<uint32_t> Key = viewKey(*T, F, Eid))
      if (const View *V = find(static_cast<ViewType>(F), *Key))
        Result.push_back(V->Id);
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
