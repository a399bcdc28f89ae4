//===- tests/ViewOracle.h - Reference view membership (Fig. 7) ------------===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A reference partition of a trace's entries into its views, written
/// straight from the four mappings of Fig. 7 and sharing no code with the
/// production scans (trace/ViewIndex.cpp). One ordered map per family:
///
///   nu_TH  keyed by tid;
///   nu_CM  keyed by the method symbol;
///   nu_TO  keyed by target location, when eventHasTargetObject holds;
///   nu_AO  keyed by self location, when self is not none.
///
/// Families come in web order (thread, method, target-object,
/// active-object), views within a family in order of first appearance,
/// entry lists ascending. expectWebMatchesOracle checks every view of a
/// ViewWeb — type, dense id, key, entries and representation endpoints —
/// against the reference computed from the web's own trace, and
/// expectIndexMatchesOracle checks a ViewIndex's keys, counts and flat
/// entry column.
///
//===----------------------------------------------------------------------===//

#ifndef RPRISM_TESTS_VIEWORACLE_H
#define RPRISM_TESTS_VIEWORACLE_H

#include "views/Views.h"
#include "workload/Generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <random>
#include <string>
#include <vector>

namespace vieworacle {

struct RefView {
  rprism::ViewType Type;
  uint32_t Key;
  std::vector<uint32_t> Entries;
};

inline std::vector<RefView> referenceViews(const rprism::Trace &T) {
  using rprism::ViewType;
  std::map<uint32_t, std::vector<uint32_t>> Thread, Method, Target, Active;
  for (uint32_t Eid = 0; Eid != T.size(); ++Eid) {
    Thread[T.tid(Eid)].push_back(Eid);
    Method[T.method(Eid).Id].push_back(Eid);
    if (rprism::eventHasTargetObject(T.kind(Eid), T.target(Eid)))
      Target[T.target(Eid).Loc].push_back(Eid);
    if (!T.self(Eid).isNone())
      Active[T.self(Eid).Loc].push_back(Eid);
  }
  std::vector<RefView> Views;
  auto AddFamily = [&Views](ViewType Type,
                            std::map<uint32_t, std::vector<uint32_t>> &Map) {
    size_t Begin = Views.size();
    for (auto &[Key, Entries] : Map)
      Views.push_back({Type, Key, std::move(Entries)});
    // A key first appears at its view's first entry.
    std::sort(Views.begin() + static_cast<std::ptrdiff_t>(Begin),
              Views.end(), [](const RefView &A, const RefView &B) {
                return A.Entries.front() < B.Entries.front();
              });
  };
  AddFamily(ViewType::Thread, Thread);
  AddFamily(ViewType::Method, Method);
  AddFamily(ViewType::TargetObject, Target);
  AddFamily(ViewType::ActiveObject, Active);
  return Views;
}

/// Checks every view of \p Web against the reference partition of the
/// web's trace; \p What labels failures.
inline void expectWebMatchesOracle(const rprism::ViewWeb &Web,
                                   const std::string &What) {
  using namespace rprism;
  const Trace &T = Web.trace();
  std::vector<RefView> Ref = referenceViews(T);
  ASSERT_EQ(Web.numViews(), Ref.size()) << What;
  for (uint32_t Id = 0; Id != Ref.size(); ++Id) {
    const View &V = Web.view(Id);
    const RefView &R = Ref[Id];
    SCOPED_TRACE(What + ", view " + std::to_string(Id));
    ASSERT_EQ(V.Type, R.Type);
    EXPECT_EQ(V.Id, Id);
    ASSERT_EQ(V.Entries.size(), R.Entries.size());
    EXPECT_TRUE(std::equal(R.Entries.begin(), R.Entries.end(),
                           V.Entries.begin()));

    const View *Found = nullptr;
    ObjRepr First, Last; // Thread and method views keep the defaults.
    switch (R.Type) {
    case ViewType::Thread:
      EXPECT_EQ(V.Tid, R.Key);
      Found = Web.threadView(R.Key);
      break;
    case ViewType::Method:
      EXPECT_EQ(V.MethodName.Id, R.Key);
      Found = Web.methodView(Symbol{R.Key});
      break;
    case ViewType::TargetObject:
      EXPECT_EQ(V.Loc, R.Key);
      Found = Web.targetObjectView(R.Key);
      First = T.target(R.Entries.front());
      Last = T.target(R.Entries.back());
      break;
    case ViewType::ActiveObject:
      EXPECT_EQ(V.Loc, R.Key);
      Found = Web.activeObjectView(R.Key);
      First = T.self(R.Entries.front());
      Last = T.self(R.Entries.back());
      break;
    }
    EXPECT_EQ(Found, &V) << "lookup by key";
    EXPECT_EQ(0, std::memcmp(&V.FirstRepr, &First, sizeof(ObjRepr)));
    EXPECT_EQ(0, std::memcmp(&V.LastRepr, &Last, sizeof(ObjRepr)));
  }
}

/// Checks \p Idx against the reference partition of \p T: per family, the
/// keys and entry counts of its views in order, and the flat entry column
/// listing every view's entries, family by family.
inline void expectIndexMatchesOracle(const rprism::ViewIndex &Idx,
                                     const rprism::Trace &T,
                                     const std::string &What) {
  using rprism::NumViewFamilies;
  std::vector<uint32_t> Keys[NumViewFamilies], Counts[NumViewFamilies];
  std::vector<uint32_t> Entries;
  for (const RefView &R : referenceViews(T)) {
    size_t F = static_cast<size_t>(R.Type);
    Keys[F].push_back(R.Key);
    Counts[F].push_back(static_cast<uint32_t>(R.Entries.size()));
    Entries.insert(Entries.end(), R.Entries.begin(), R.Entries.end());
  }
  auto Vec = [](const rprism::Column<uint32_t> &C) {
    return std::vector<uint32_t>(C.begin(), C.end());
  };
  ASSERT_TRUE(Idx.Present) << What;
  for (size_t F = 0; F != NumViewFamilies; ++F) {
    EXPECT_EQ(Vec(Idx.Keys[F]), Keys[F]) << What << ", family " << F;
    EXPECT_EQ(Vec(Idx.Counts[F]), Counts[F]) << What << ", family " << F;
  }
  EXPECT_EQ(Vec(Idx.Entries), Entries) << What;
}

/// One randomized generated-workload configuration: classes, iterations,
/// thread count, perturbation and reordering vary per draw.
inline rprism::GeneratorOptions drawGeneratorOptions(std::mt19937_64 &Rng) {
  rprism::GeneratorOptions G;
  G.NumClasses = 2 + static_cast<unsigned>(Rng() % 4);
  G.OuterIters = 4 + static_cast<unsigned>(Rng() % 24);
  G.NumThreads = 1 + static_cast<unsigned>(Rng() % 3);
  G.Seed = Rng();
  G.Perturb = static_cast<unsigned>(Rng() % 3);
  G.ReorderBlock = (Rng() % 2) != 0;
  return G;
}

} // namespace vieworacle

#endif // RPRISM_TESTS_VIEWORACLE_H
