//===- trace/Query.cpp ----------------------------------------------------===//

#include "trace/Query.h"

#include <sstream>

using namespace rprism;

TraceQuery::TraceQuery(const Trace &TIn) : T(&TIn) {
  Eids.resize(T->size());
  for (uint32_t I = 0; I != Eids.size(); ++I)
    Eids[I] = I;
}

TraceQuery &TraceQuery::ofKind(EventKind Kind) {
  return filter(
      [Kind](const TraceEntry &Entry) { return Entry.Ev.Kind == Kind; });
}

TraceQuery &TraceQuery::inMethod(std::string_view QualName) {
  return filter([this, QualName](const TraceEntry &Entry) {
    return T->Strings->text(Entry.Method) == QualName;
  });
}

TraceQuery &TraceQuery::onClass(std::string_view ClassName) {
  return filter([this, ClassName](const TraceEntry &Entry) {
    return !Entry.Ev.Target.isNone() &&
           T->Strings->text(Entry.Ev.Target.ClassName) == ClassName;
  });
}

TraceQuery &TraceQuery::inThread(uint32_t Tid) {
  return filter(
      [Tid](const TraceEntry &Entry) { return Entry.Tid == Tid; });
}

TraceQuery &TraceQuery::named(std::string_view Name) {
  return filter([this, Name](const TraceEntry &Entry) {
    return T->Strings->text(Entry.Ev.Name) == Name;
  });
}

TraceQuery &TraceQuery::withValue(std::string_view Text) {
  return filter([this, Text](const TraceEntry &Entry) {
    return Entry.Ev.Value.Kind != ReprKind::None &&
           T->valueText(Entry.Ev.Value) == Text;
  });
}

TraceQuery &TraceQuery::inRange(uint32_t Begin, uint32_t End) {
  return filter([Begin, End](const TraceEntry &Entry) {
    return Entry.Eid >= Begin && Entry.Eid < End;
  });
}

TraceQuery &TraceQuery::matching(
    const std::function<bool(const Trace &, const TraceEntry &)> &Pred) {
  return filter(
      [this, &Pred](const TraceEntry &Entry) { return Pred(*T, Entry); });
}

std::optional<TraceEntry> TraceQuery::first() const {
  if (Eids.empty())
    return std::nullopt;
  return T->entry(Eids.front());
}

std::string TraceQuery::render(size_t MaxEntries) const {
  std::ostringstream OS;
  OS << Eids.size() << " match(es)\n";
  size_t Shown = 0;
  for (uint32_t Eid : Eids) {
    if (Shown++ == MaxEntries) {
      OS << "  ...\n";
      break;
    }
    OS << "  [" << Eid << "] " << T->renderEntry(Eid) << '\n';
  }
  return OS.str();
}
