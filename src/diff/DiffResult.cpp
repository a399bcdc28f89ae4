//===- diff/DiffResult.cpp ------------------------------------------------===//

#include "diff/DiffResult.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

using namespace rprism;

std::string rprism::summarizeSequence(const Trace &Left, const Trace &Right,
                                      const DiffSequence &Seq) {
  // Dominant executing method across both sides.
  std::map<uint32_t, unsigned> MethodCounts;
  std::set<std::string> Objects;
  auto Visit = [&](const Trace &T, const std::vector<uint32_t> &Eids) {
    for (uint32_t Eid : Eids) {
      ++MethodCounts[T.Methods[Eid].Id];
      if (!T.target(Eid).isNone())
        Objects.insert(T.renderObj(T.target(Eid)));
    }
  };
  Visit(Left, Seq.LeftEids);
  Visit(Right, Seq.RightEids);
  if (MethodCounts.empty())
    return "(empty sequence)";

  auto Dominant = std::max_element(
      MethodCounts.begin(), MethodCounts.end(),
      [](const auto &A, const auto &B) { return A.second < B.second; });
  // Both traces share one interner, so either resolves the symbol.
  std::ostringstream OS;
  OS << "in " << Left.Strings->text(Symbol{Dominant->first}) << " (-"
     << Seq.LeftEids.size() << "/+" << Seq.RightEids.size() << ")";
  if (!Objects.empty()) {
    OS << " touching";
    size_t Shown = 0;
    for (const std::string &Obj : Objects) {
      if (Shown++ == 3) {
        OS << " ...";
        break;
      }
      OS << ' ' << Obj;
    }
  }
  return OS.str();
}

std::string DiffResult::render(size_t MaxSequences, size_t MaxEntries) const {
  std::ostringstream OS;
  OS << "semantic diff: " << numDiffs() << " differences in "
     << Sequences.size() << " sequence(s)\n";
  size_t Shown = 0;
  for (const DiffSequence &Seq : Sequences) {
    if (Shown++ == MaxSequences) {
      OS << "  ... (" << (Sequences.size() - MaxSequences)
         << " more sequences)\n";
      break;
    }
    OS << "  sequence #" << Shown - 1 << " (thread " << Seq.LeftTid << ") "
       << summarizeSequence(*Left, *Right, Seq) << ":\n";
    size_t N = 0;
    for (uint32_t Eid : Seq.LeftEids) {
      if (N++ == MaxEntries) {
        OS << "    - ...\n";
        break;
      }
      OS << "    - " << Left->renderEntry(Eid) << '\n';
    }
    N = 0;
    for (uint32_t Eid : Seq.RightEids) {
      if (N++ == MaxEntries) {
        OS << "    + ...\n";
        break;
      }
      OS << "    + " << Right->renderEntry(Eid) << '\n';
    }
  }
  return OS.str();
}
