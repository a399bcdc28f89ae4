//===- views/Views.cpp ----------------------------------------------------===//

#include "views/Views.h"

#include "support/Telemetry.h"
#include "support/ThreadPool.h"
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

ViewWeb::ViewWeb(const Trace &TIn, ThreadPool *Pool, bool UseIndex)
    : T(&TIn) {
  // Warm path: a trace carrying its persisted partitioning skips the
  // entry scans — and the "web-build" span — entirely. The reconstruction
  // is O(views), not O(entries).
  if (UseIndex && TIn.ViewIdx.Present) {
    buildFromIndex(TIn.ViewIdx);
    return;
  }

  // The four family scans share no state, so with workers they run
  // concurrently; the assembly below assigns the same dense ids whatever
  // the completion order.
  TelemetrySpan WebSpan("web-build");
  FamilyPartition Parts[NumViewFamilies];
  const bool OnPool = Pool && Pool->numWorkers() > 1;
  for (size_t F = 0; F != NumViewFamilies; ++F) {
    auto Scan = [this, &Parts, F] {
      TelemetrySpan S(viewTypeName(static_cast<ViewType>(F)));
      Parts[F] = partitionViewFamily(*T, F);
    };
    if (OnPool)
      Pool->submit(Scan);
    else
      Scan();
  }
  if (OnPool)
    Pool->wait();

  size_t Total = 0;
  for (const FamilyPartition &P : Parts)
    Total += P.Keys.size();
  Views.reserve(Total);
  for (size_t F = 0; F != NumViewFamilies; ++F) {
    FamilyPartition &P = Parts[F];
    KeyToView[F].reserve(P.Keys.size());
    for (size_t VI = 0; VI != P.Keys.size(); ++VI)
      addView(static_cast<ViewType>(F), P.Keys[VI],
              Column<uint32_t>(std::move(P.Lists[VI])));
  }
  Telemetry::counterAdd("web.views", Views.size());
}

void ViewWeb::buildFromIndex(const ViewIndex &Idx) {
  TelemetrySpan Span("view-index");
  Views.reserve(Idx.numViews());
  const uint32_t *Flat = Idx.Entries.data();
  for (size_t F = 0; F != NumViewFamilies; ++F) {
    size_t NumViews = Idx.Keys[F].size();
    KeyToView[F].reserve(NumViews);
    for (size_t VI = 0; VI != NumViews; ++VI) {
      Column<uint32_t> Entries;
      Entries.borrow(Flat, Idx.Counts[F][VI]);
      Flat += Idx.Counts[F][VI];
      addView(static_cast<ViewType>(F), Idx.Keys[F][VI], std::move(Entries));
    }
  }
  Telemetry::counterAdd("web.views", Views.size());
  Telemetry::counterAdd("web.from_index", 1);
}

void ViewWeb::addView(ViewType Type, uint32_t Key, Column<uint32_t> Entries) {
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
  V.Entries = std::move(Entries);
  KeyToView[static_cast<size_t>(Type)].emplace(Key, V.Id);
  Views.push_back(std::move(V));
}

std::vector<uint32_t> ViewWeb::viewsOf(uint32_t Eid) const {
  std::vector<uint32_t> Result;
  if (const View *V = threadView(T->tid(Eid)))
    Result.push_back(V->Id);
  if (const View *V = methodView(T->method(Eid)))
    Result.push_back(V->Id);
  if (eventHasTargetObject(T->kind(Eid), T->target(Eid)))
    if (const View *V = targetObjectView(T->target(Eid).Loc))
      Result.push_back(V->Id);
  if (!T->self(Eid).isNone())
    if (const View *V = activeObjectView(T->self(Eid).Loc))
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
