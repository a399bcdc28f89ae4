//===- tests/NWayDiffTest.cpp - Lane kernels & 1-vs-N variational diff ---===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Two contracts under test:
///
///   1. The lane kernels (laneMatchRun, laneMismatchRun, lanesEqual) agree
///      with a plain element-by-element loop, on randomized lanes at
///      unaligned offsets and awkward lengths (0, 1, either side of the
///      8-element block of laneMatchRun, tails), and with one flipped
///      element at every position.
///
///   2. nwayDiff is pure amortization: per-mutant reports are byte-identical
///      to the pairwise viewsDiff and compare-op totals match exactly, at
///      any jobs count.
///
//===----------------------------------------------------------------------===//

#include "diff/NWayDiff.h"
#include "diff/ViewsDiff.h"
#include "support/LaneScan.h"
#include "support/Telemetry.h"
#include "workload/Corpus.h"
#include "workload/Mutator.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

using namespace rprism;

namespace {

/// splitmix64: deterministic lane filler (no global RNG state).
uint64_t nextRand(uint64_t &State) {
  uint64_t X = (State += 0x9e3779b97f4a7c15ull);
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

/// Reference: the first index in [0, Len) where (A[K] == B[K]) != Equal,
/// or Len — the equal prefix for Equal = true, the unequal one otherwise.
size_t referenceRun(const uint64_t *A, const uint64_t *B, size_t Len,
                    bool Equal) {
  size_t K = 0;
  while (K != Len && (A[K] == B[K]) == Equal)
    ++K;
  return K;
}

/// Lengths that straddle the kernel's block boundary: empty, single, one
/// short of / exactly / one past the 8-element block and its multiples,
/// and tails past them.
const size_t AwkwardLengths[] = {0,  1,  2,  3,  4,  5,  7,  8,  9,
                                 15, 16, 17, 31, 32, 33, 63, 64, 65,
                                 100, 127, 128, 129, 256};

} // namespace

//===----------------------------------------------------------------------===//
// Lane kernels vs an element-by-element reference
//===----------------------------------------------------------------------===//

TEST(LaneScan, MatchRunEqualsReference) {
  uint64_t Rng = 0xfeedface;
  // Backing buffers with slack so every offset 0..3 stays in bounds.
  std::vector<uint64_t> A(300), B(300);
  for (size_t Round = 0; Round != 50; ++Round) {
    for (size_t I = 0; I != A.size(); ++I) {
      A[I] = nextRand(Rng);
      // Mostly-equal lanes so planted prefixes of every length occur.
      B[I] = (nextRand(Rng) % 8 == 0) ? nextRand(Rng) : A[I];
    }
    for (size_t Offset = 0; Offset != 4; ++Offset) {
      for (size_t Len : AwkwardLengths) {
        const uint64_t *PA = A.data() + Offset;
        const uint64_t *PB = B.data() + Offset;
        ASSERT_EQ(laneMatchRun(PA, PB, Len), referenceRun(PA, PB, Len, true))
            << "len " << Len << " off " << Offset;
      }
    }
  }
}

TEST(LaneScan, MismatchRunEqualsReference) {
  uint64_t Rng = 0xdeadbeef;
  std::vector<uint64_t> A(300), B(300);
  for (size_t Round = 0; Round != 50; ++Round) {
    for (size_t I = 0; I != A.size(); ++I) {
      A[I] = nextRand(Rng);
      // Mostly-differing lanes so unequal prefixes of every length occur.
      B[I] = (nextRand(Rng) % 8 == 0) ? A[I] : nextRand(Rng);
    }
    for (size_t Offset = 0; Offset != 4; ++Offset) {
      for (size_t Len : AwkwardLengths) {
        const uint64_t *PA = A.data() + Offset;
        const uint64_t *PB = B.data() + Offset;
        ASSERT_EQ(laneMismatchRun(PA, PB, Len),
                  referenceRun(PA, PB, Len, false))
            << "len " << Len << " off " << Offset;
      }
    }
  }
}

TEST(LaneScan, LanesEqualEqualsReferenceAtEveryFlip) {
  uint64_t Rng = 0xabad1dea;
  for (size_t Len : AwkwardLengths) {
    std::vector<uint64_t> A(Len ? Len : 1), B;
    for (uint64_t &V : A)
      V = nextRand(Rng);
    B = A;
    // Equal case, then a single flipped element at each position (first,
    // last, every block edge in between): lanesEqual must say no, and the
    // match run must stop exactly at the flip.
    EXPECT_TRUE(lanesEqual(A.data(), B.data(), Len));
    EXPECT_EQ(laneMatchRun(A.data(), B.data(), Len), Len);
    for (size_t Flip = 0; Flip < Len; ++Flip) {
      B[Flip] ^= 1;
      const uint64_t *PA = A.data(), *PB = B.data();
      ASSERT_EQ(lanesEqual(PA, PB, Len), referenceRun(PA, PB, Len, true) == Len)
          << "len " << Len << " flip " << Flip;
      ASSERT_EQ(laneMatchRun(PA, PB, Len), Flip)
          << "len " << Len << " flip " << Flip;
      B[Flip] ^= 1;
    }
  }
}

//===----------------------------------------------------------------------===//
// 1-vs-N variational diff vs the pairwise path
//===----------------------------------------------------------------------===//

namespace {

/// One shared mutant set for the whole suite: generation compiles and runs
/// N+1 programs, so build it once.
const MutantSet &sharedMutantSet() {
  static MutantSet Set = [] {
    RunOptions Run, Unused;
    rhinoInputs(0, Run, Unused);
    Expected<MutantSet> E =
        generateMutantSet(rhinoBaseSource(), Run, /*Count=*/4, /*Seed=*/99);
    EXPECT_TRUE(bool(E)) << (E ? "" : E.error().render());
    return E ? std::move(*E) : MutantSet();
  }();
  return Set;
}

std::vector<const Trace *> mutantPtrs(const MutantSet &Set) {
  std::vector<const Trace *> Ptrs;
  for (const MutantTrace &M : Set.Mutants)
    Ptrs.push_back(&M.ExecTrace);
  return Ptrs;
}

} // namespace

TEST(NWayDiff, MatchesPairwiseOpsAndBytes) {
  const MutantSet &Set = sharedMutantSet();
  ASSERT_FALSE(Set.Mutants.empty());
  std::vector<const Trace *> Mutants = mutantPtrs(Set);

  Telemetry::get().reset();
  Telemetry::get().setEnabled(true);
  NWayResult NWay = nwayDiff(Set.Base, Mutants);
  uint64_t SharedHits = Telemetry::get().snapshot().counter("lane.shared_hit");
  Telemetry::get().setEnabled(false);
  Telemetry::get().reset();
  ASSERT_EQ(NWay.Mutants.size(), Mutants.size());
  // The shared baseline lane serves every mutant's pair.
  EXPECT_EQ(SharedHits, Mutants.size());

  uint64_t TotalOps = 0;
  for (size_t M = 0; M != Mutants.size(); ++M) {
    DiffResult Pairwise = viewsDiff(Set.Base, *Mutants[M]);
    EXPECT_EQ(NWay.Mutants[M].Result.Stats.CompareOps,
              Pairwise.Stats.CompareOps)
        << "mutant " << M;
    EXPECT_EQ(NWay.Mutants[M].Result.render(50, 12), Pairwise.render(50, 12))
        << "mutant " << M;
    TotalOps += Pairwise.Stats.CompareOps;
  }
  EXPECT_EQ(NWay.totalCompareOps(), TotalOps);
}

TEST(NWayDiff, SelfDiffAgreesWithIdenticalLanes) {
  const MutantSet &Set = sharedMutantSet();
  NWayResult R = nwayDiff(Set.Base, {&Set.Base});
  ASSERT_EQ(R.Mutants.size(), 1u);
  EXPECT_TRUE(R.Mutants[0].Agrees);
  EXPECT_TRUE(R.Mutants[0].LanesIdentical);
  EXPECT_FALSE(R.Mutants[0].FirstDivergence.has_value());
  EXPECT_EQ(R.NumAgreeing, 1u);
  EXPECT_TRUE(R.Clusters.empty());
  EXPECT_GT(R.SharedLaneBytes, 0u);
}

TEST(NWayDiff, ClusterInvariants) {
  const MutantSet &Set = sharedMutantSet();
  std::vector<const Trace *> Mutants = mutantPtrs(Set);
  NWayResult R = nwayDiff(Set.Base, Mutants);

  size_t Agreeing = 0;
  for (const NWayMutantReport &M : R.Mutants)
    Agreeing += M.Agrees;
  EXPECT_EQ(R.NumAgreeing, Agreeing);

  // Every divergent mutant is in exactly one cluster; agreeing mutants in
  // none.
  std::vector<unsigned> Membership(R.Mutants.size(), 0);
  for (const NWayCluster &C : R.Clusters) {
    EXPECT_FALSE(C.Mutants.empty());
    for (size_t M : C.Mutants) {
      ASSERT_LT(M, Membership.size());
      ++Membership[M];
      EXPECT_EQ(R.Mutants[M].Site, C.Site);
    }
  }
  for (size_t M = 0; M != R.Mutants.size(); ++M)
    EXPECT_EQ(Membership[M], R.Mutants[M].Agrees ? 0u : 1u) << "mutant " << M;
}

TEST(NWayDiff, DeterministicAcrossRepeatsAndJobs) {
  const MutantSet &Set = sharedMutantSet();
  std::vector<const Trace *> Mutants = mutantPtrs(Set);

  NWayResult First = nwayDiff(Set.Base, Mutants);
  NWayResult Second = nwayDiff(Set.Base, Mutants);
  EXPECT_EQ(First.render(), Second.render());
  EXPECT_EQ(First.totalCompareOps(), Second.totalCompareOps());

  // Forcing the parallel evaluation path on these small traces must not
  // change a byte (the jobs-determinism contract).
  ViewsDiffOptions Par;
  Par.Jobs = 3;
  NWayResult Parallel = nwayDiff(Set.Base, Mutants, Par);
  EXPECT_EQ(Parallel.render(), First.render());
  EXPECT_EQ(Parallel.totalCompareOps(), First.totalCompareOps());
}

TEST(NWayDiff, SharedBaselineLanesChangeNothingAtWebLevel) {
  // The Rhino baseline runs one thread, so its thread view is the identity
  // range and could read its lane from the Fps column. The shared baseline
  // lane serves the left side of every mutant's pair instead, and no
  // result changes with it.
  const MutantSet &Set = sharedMutantSet();
  ASSERT_FALSE(Set.Mutants.empty());
  ViewWeb BaseWeb(Set.Base);
  ASSERT_EQ(BaseWeb.numThreadViews(), 1u);
  ASSERT_EQ(BaseWeb.view(0).size(), Set.Base.size());
  BaselineLanes Lanes(BaseWeb);
  EXPECT_GT(Lanes.bytes(), 0u);

  for (const Trace *Mut : mutantPtrs(Set)) {
    ViewWeb MutWeb(*Mut);
    ViewCorrelation X(BaseWeb, MutWeb);
    DiffResult Without = viewsDiff(BaseWeb, MutWeb, X);
    DiffResult With =
        viewsDiff(BaseWeb, MutWeb, X, ViewsDiffOptions(), nullptr, &Lanes);
    EXPECT_EQ(With.render(50, 12), Without.render(50, 12));
    EXPECT_EQ(With.Stats.CompareOps, Without.Stats.CompareOps);
    EXPECT_EQ(With.Stats.PeakBytes, Without.Stats.PeakBytes);
    EXPECT_EQ(With.LeftSimilar, Without.LeftSimilar);
    EXPECT_EQ(With.RightSimilar, Without.RightSimilar);
  }
}
