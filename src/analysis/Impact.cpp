//===- analysis/Impact.cpp ------------------------------------------------===//

#include "analysis/Impact.h"

#include <sstream>

using namespace rprism;

namespace {

/// One closure round: every entry of every frontier view contributes its
/// method and objects; returns true when something new was found.
bool expandOnce(const ViewWeb &Web, ImpactSet &Set,
                const ImpactOptions &Options) {
  const Trace &T = Web.trace();
  bool Grew = false;

  auto AddMethod = [&](Symbol Method) {
    if (Options.ExcludeHubs.count(T.Strings->text(Method)))
      return;
    Grew |= Set.Methods.insert(Method.Id).second;
  };
  auto AddObject = [&](const ObjRepr &Obj) {
    if (!Obj.isNone())
      Grew |= Set.Objects.insert(Obj.Loc).second;
  };

  // Methods -> objects they touch.
  for (uint32_t MethodSym : Set.Methods) {
    const View *MV = Web.methodView(Symbol{MethodSym});
    if (!MV)
      continue;
    for (uint32_t Eid : MV->Entries) {
      AddObject(T.target(Eid));
      AddObject(T.self(Eid));
    }
  }

  // Objects -> methods that touch them (executing context of every entry
  // in the target-object view, plus callee names of calls on the object).
  for (uint32_t Loc : std::set<uint32_t>(Set.Objects)) {
    const View *OV = Web.targetObjectView(Loc);
    if (!OV)
      continue;
    for (uint32_t Eid : OV->Entries) {
      AddMethod(T.Methods[Eid]);
      if (T.kind(Eid) == EventKind::Call)
        AddMethod(T.Names[Eid]);
    }
  }
  return Grew;
}

ImpactSet closeOver(const ViewWeb &Web, ImpactSet Set,
                    const ImpactOptions &Options) {
  for (unsigned Round = 0; Round != Options.MaxRounds; ++Round) {
    ++Set.Rounds;
    if (!expandOnce(Web, Set, Options))
      break;
  }
  return Set;
}

} // namespace

std::string ImpactSet::render(const Trace &T) const {
  std::ostringstream OS;
  OS << "impact set (" << Rounds << " round(s)): " << Methods.size()
     << " method(s), " << Objects.size() << " object(s)\n";
  OS << "  methods:";
  for (uint32_t Sym : Methods)
    OS << ' ' << T.Strings->text(Symbol{Sym});

  // Resolve object locations to their Class-seq names via any entry that
  // targets them.
  std::ostringstream ObjectsOS;
  std::set<uint32_t> Pending(Objects);
  for (uint32_t Eid = 0; Eid != T.size() && !Pending.empty(); ++Eid) {
    const ObjRepr &Target = T.target(Eid);
    if (!Target.isNone() && Pending.erase(Target.Loc))
      ObjectsOS << ' ' << T.renderObj(Target);
  }
  OS << "\n  objects:" << ObjectsOS.str();
  for (uint32_t Loc : Pending)
    OS << " loc" << Loc; // Never targeted: raw location.
  OS << '\n';
  return OS.str();
}

ImpactSet rprism::impactOfMethod(const ViewWeb &Web, Symbol QualifiedMethod,
                                 const ImpactOptions &Options) {
  ImpactSet Seed;
  Seed.Methods.insert(QualifiedMethod.Id);
  if (const View *MV = Web.methodView(QualifiedMethod))
    Seed.SeedEntries = MV->size();
  return closeOver(Web, std::move(Seed), Options);
}

ImpactSet rprism::impactOfEntries(const ViewWeb &Web,
                                  const std::vector<uint32_t> &Eids,
                                  const ImpactOptions &Options) {
  const Trace &T = Web.trace();
  ImpactSet Seed;
  Seed.SeedEntries = Eids.size();
  for (uint32_t Eid : Eids) {
    Seed.Methods.insert(T.Methods[Eid].Id);
    if (!T.target(Eid).isNone())
      Seed.Objects.insert(T.target(Eid).Loc);
    if (!T.self(Eid).isNone())
      Seed.Objects.insert(T.self(Eid).Loc);
  }
  return closeOver(Web, std::move(Seed), Options);
}
