//===- perfbench/Spans.cpp ------------------------------------------------===//

#include "Spans.h"

#include <cstdio>
#include <map>

using namespace perfbench;

uint64_t SpanLog::selfNanos(size_t Index) const {
  // Spans nest strictly (one thread, RAII scopes), so the children of a
  // span are disjoint and follow it in the log.
  uint64_t Covered = 0;
  const Span &S = Spans[Index];
  for (size_t I = Index + 1; I < Spans.size() && Spans[I].Begin < S.End; ++I)
    if (Spans[I].Parent == static_cast<int32_t>(Index))
      Covered += Spans[I].End - Spans[I].Begin;
  return S.End - S.Begin - Covered;
}

bool SpanLog::writeJson(const std::string &Path,
                        const std::string &Header) const {
  FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out)
    return false;
  struct Totals {
    uint64_t Count = 0, Total = 0, Self = 0;
  };
  std::map<std::string, Totals> ByName;
  uint64_t Origin = Spans.empty() ? 0 : Spans.front().Begin;
  std::fprintf(Out, "{%s,\n\"spans\": [\n", Header.c_str());
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    uint64_t Self = selfNanos(I);
    Totals &T = ByName[S.Name];
    ++T.Count;
    T.Total += S.End - S.Begin;
    T.Self += Self;
    std::fprintf(Out,
                 "  {\"name\": \"%s\", \"start_ns\": %llu, \"end_ns\": %llu, "
                 "\"parent\": %d, \"session\": %u}%s\n",
                 S.Name, static_cast<unsigned long long>(S.Begin - Origin),
                 static_cast<unsigned long long>(S.End - Origin), S.Parent,
                 S.Session, I + 1 == Spans.size() ? "" : ",");
  }
  std::fprintf(Out, "],\n\"by_name\": {\n");
  size_t N = 0;
  for (const auto &[Name, T] : ByName)
    std::fprintf(Out,
                 "  \"%s\": {\"count\": %llu, \"total_s\": %.9f, "
                 "\"self_s\": %.9f}%s\n",
                 Name.c_str(), static_cast<unsigned long long>(T.Count),
                 T.Total * 1e-9, T.Self * 1e-9,
                 ++N == ByName.size() ? "" : ",");
  std::fprintf(Out, "}}\n");
  return std::fclose(Out) == 0;
}
