//===- diff/DiffResult.cpp ------------------------------------------------===//

#include "diff/DiffResult.h"

#include <algorithm>
#include <set>
#include <sstream>

using namespace rprism;

void SequenceSites::add(const Trace &T, const std::vector<uint32_t> &Eids) {
  for (uint32_t Eid : Eids) {
    ++MethodCounts[T.Methods[Eid].Id];
    const ObjRepr &Target = T.target(Eid);
    if (!Target.isNone())
      Targets.try_emplace(
          uint64_t{Target.ClassName.Id} << 32 | Target.CreationSeq, &Target);
  }
}

Symbol SequenceSites::dominantMethod() const {
  auto Dominant = std::max_element(
      MethodCounts.begin(), MethodCounts.end(),
      [](const auto &A, const auto &B) { return A.second < B.second; });
  return Symbol{Dominant->first};
}

void SequenceSites::printObjects(std::ostream &OS, const Trace &T,
                                 size_t Limit) const {
  std::set<std::string> Objects;
  for (const auto &[Key, Target] : Targets)
    Objects.insert(T.renderObj(*Target));
  if (Objects.empty())
    return;
  OS << " touching";
  size_t Shown = 0;
  for (const std::string &Obj : Objects) {
    if (Shown++ == Limit) {
      OS << " ...";
      break;
    }
    OS << ' ' << Obj;
  }
}

std::string rprism::summarizeSequence(const Trace &Left, const Trace &Right,
                                      const DiffSequence &Seq) {
  SequenceSites Sites;
  Sites.add(Left, Seq.LeftEids);
  Sites.add(Right, Seq.RightEids);
  if (Sites.empty())
    return "(empty sequence)";
  // Both traces share one interner, so Left resolves every symbol.
  std::ostringstream OS;
  OS << "in " << Left.Strings->text(Sites.dominantMethod()) << " (-"
     << Seq.LeftEids.size() << "/+" << Seq.RightEids.size() << ")";
  Sites.printObjects(OS, Left, 3);
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
