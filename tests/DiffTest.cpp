//===- tests/DiffTest.cpp - LCS and views-based differencing tests --------===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//

#include "diff/Lcs.h"
#include "diff/ViewsDiff.h"
#include "runtime/Compiler.h"
#include "runtime/Vm.h"
#include "trace/Serialize.h"
#include "workload/Generator.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <unistd.h>

using namespace rprism;

namespace {

Trace traceOf(const std::string &Source,
              std::shared_ptr<StringInterner> Strings,
              RunOptions Options = RunOptions()) {
  auto Prog = compileSource(Source, std::move(Strings));
  EXPECT_TRUE(bool(Prog)) << (Prog ? "" : Prog.error().render());
  if (!Prog)
    return Trace();
  RunResult Result = runProgram(*Prog, Options);
  EXPECT_TRUE(Result.Completed) << Result.Error;
  return std::move(Result.ExecTrace);
}

EidSpan spanOf(const std::vector<uint32_t> &Ids) {
  return EidSpan{Ids.data(), Ids.size()};
}

std::vector<uint32_t> allIds(const Trace &T) {
  std::vector<uint32_t> Ids(T.size());
  for (uint32_t I = 0; I != Ids.size(); ++I)
    Ids[I] = I;
  return Ids;
}

//===----------------------------------------------------------------------===//
// LCS core
//===----------------------------------------------------------------------===//

TEST(Lcs, IdenticalTracesFullyMatch) {
  auto Strings = std::make_shared<StringInterner>();
  const char *Source = R"(
    class A { Int x; A(Int x) { this.x = x; } Int get() { return this.x; } }
    main { var a = new A(5); print(a.get()); }
  )";
  Trace L = traceOf(Source, Strings);
  Trace R = traceOf(Source, Strings);
  auto LIds = allIds(L);
  auto RIds = allIds(R);
  LcsResult Lcs = lcsMatch(L, spanOf(LIds), R, spanOf(RIds));
  EXPECT_EQ(Lcs.Matches.size(), L.size());
}

TEST(Lcs, PrefixSuffixOptimizationCutsCompareOps) {
  auto Strings = std::make_shared<StringInterner>();
  // Long common prefix/suffix around a difference whose state is reset
  // immediately (so later entries really are identical). `b.s(x)`
  // overwrites, and b.s(0) restores the state both versions share.
  auto MakeSource = [](int Mid) {
    std::string S = R"(
      class Acc { Int v; Acc() { this.v = 0; }
        Unit add(Int x) { this.v = this.v + x; return unit; } }
      class B { Int v; B() { this.v = 0; }
        Unit s(Int x) { this.v = x; return unit; } }
      main {
        var a = new Acc();
        var b = new B();
        var i = 0;
        while (i < 30) { a.add(i); i = i + 1; }
        b.s()" + std::to_string(Mid) + R"();
        b.s(0);
        i = 0;
        while (i < 30) { a.add(i); i = i + 1; }
      }
    )";
    return S;
  };
  Trace L = traceOf(MakeSource(1000), Strings);
  Trace R = traceOf(MakeSource(2000), Strings);
  auto LIds = allIds(L);
  auto RIds = allIds(R);
  CompareCounter Ops;
  LcsResult Lcs = lcsMatch(L, spanOf(LIds), R, spanOf(RIds), &Ops);
  // Only the handful of b.s(Mid) entries differ.
  EXPECT_GE(Lcs.Matches.size(), L.size() - 8);
  // With trimming, compare ops are far below the n*m worst case.
  uint64_t Quadratic =
      uint64_t(L.size()) * uint64_t(R.size());
  EXPECT_LT(Ops.Count, Quadratic / 10);
}

TEST(Lcs, HirschbergMatchesDpLength) {
  auto Strings = std::make_shared<StringInterner>();
  // Two structurally different runs of the same classes.
  Trace L = traceOf(R"(
    class B { Int v; B() { this.v = 0; }
      Unit s(Int x) { this.v = x; return unit; } }
    main {
      var b = new B();
      b.s(1); b.s(2); b.s(3); b.s(4); b.s(2); b.s(1);
    }
  )",
                    Strings);
  Trace R = traceOf(R"(
    class B { Int v; B() { this.v = 0; }
      Unit s(Int x) { this.v = x; return unit; } }
    main {
      var b = new B();
      b.s(3); b.s(1); b.s(2); b.s(1); b.s(5); b.s(2);
    }
  )",
                    Strings);
  auto LIds = allIds(L);
  auto RIds = allIds(R);
  LcsResult Dp = lcsMatch(L, spanOf(LIds), R, spanOf(RIds));
  LcsResult Hb = lcsMatchHirschberg(L, spanOf(LIds), R, spanOf(RIds));
  EXPECT_EQ(Dp.Matches.size(), Hb.Matches.size());
  EXPECT_EQ(Dp.Matches.size(),
            lcsLength(L, spanOf(LIds), R, spanOf(RIds)));
}

TEST(Lcs, MatchesAreStrictlyAscendingOnBothSides) {
  auto Strings = std::make_shared<StringInterner>();
  Trace L = traceOf(R"(
    class B { Int v; B() { this.v = 0; }
      Unit s(Int x) { this.v = x; return unit; } }
    main { var b = new B(); b.s(1); b.s(2); b.s(1); b.s(3); }
  )",
                    Strings);
  Trace R = traceOf(R"(
    class B { Int v; B() { this.v = 0; }
      Unit s(Int x) { this.v = x; return unit; } }
    main { var b = new B(); b.s(2); b.s(1); b.s(3); b.s(1); }
  )",
                    Strings);
  auto LIds = allIds(L);
  auto RIds = allIds(R);
  for (const LcsResult &Res :
       {lcsMatch(L, spanOf(LIds), R, spanOf(RIds)),
        lcsMatchHirschberg(L, spanOf(LIds), R, spanOf(RIds))}) {
    for (size_t I = 1; I < Res.Matches.size(); ++I) {
      EXPECT_LT(Res.Matches[I - 1].first, Res.Matches[I].first);
      EXPECT_LT(Res.Matches[I - 1].second, Res.Matches[I].second);
    }
    for (auto [LE, RE] : Res.Matches)
      EXPECT_TRUE(eventEquals(L, LE, R, RE));
  }
}

TEST(Lcs, MemoryCapTriggersOutOfMemory) {
  auto Strings = std::make_shared<StringInterner>();
  // Force a DP region by differing at both ends.
  Trace L = traceOf(R"(
    class B { Int v; B() { this.v = 0; }
      Unit s(Int x) { this.v = x; return unit; } }
    main { var b = new B(); b.s(9); b.s(1); b.s(2); b.s(3); b.s(8); }
  )",
                    Strings);
  Trace R = traceOf(R"(
    class B { Int v; B() { this.v = 0; }
      Unit s(Int x) { this.v = x; return unit; } }
    main { var b = new B(); b.s(7); b.s(1); b.s(2); b.s(3); b.s(6); }
  )",
                    Strings);
  auto LIds = allIds(L);
  auto RIds = allIds(R);
  MemoryAccountant Tiny(/*CapBytes=*/64);
  LcsResult Res = lcsMatch(L, spanOf(LIds), R, spanOf(RIds), nullptr, &Tiny);
  EXPECT_TRUE(Res.OutOfMemory);
  EXPECT_TRUE(Tiny.exhausted());

  LcsDiffOptions Options;
  Options.MemCapBytes = 64;
  DiffResult Diff = lcsDiff(L, R, Options);
  EXPECT_TRUE(Diff.Stats.OutOfMemory);
}

//===----------------------------------------------------------------------===//
// Whole-trace diffs
//===----------------------------------------------------------------------===//

struct EngineParam {
  const char *Name;
  bool UseViews;
};

class DiffEngineTest : public ::testing::TestWithParam<EngineParam> {
protected:
  DiffResult diff(const Trace &L, const Trace &R) {
    if (GetParam().UseViews)
      return viewsDiff(L, R);
    return lcsDiff(L, R);
  }
};

TEST_P(DiffEngineTest, IdenticalRunsHaveNoDifferences) {
  auto Strings = std::make_shared<StringInterner>();
  const char *Source = R"(
    class A { Int x; A(Int x) { this.x = x; }
      Int inc() { this.x = this.x + 1; return this.x; } }
    main { var a = new A(1); a.inc(); a.inc(); print(a.x); }
  )";
  Trace L = traceOf(Source, Strings);
  Trace R = traceOf(Source, Strings);
  DiffResult Result = diff(L, R);
  EXPECT_EQ(Result.numDiffs(), 0u);
  EXPECT_TRUE(Result.Sequences.empty());
}

TEST_P(DiffEngineTest, SingleValueChangeIsLocalized) {
  auto Strings = std::make_shared<StringInterner>();
  auto Source = [](int Range) {
    return std::string(R"(
      class Cfg { Int lo; Cfg(Int lo) { this.lo = lo; } }
      class App {
        Unit run(Cfg c) {
          var x = c.lo;
          var i = 0;
          while (i < 10) { x = x + i; i = i + 1; }
          print(x);
          return unit;
        }
      }
      main { var c = new Cfg()") +
           std::to_string(Range) + R"(); new App().run(c); }
    )";
  };
  Trace L = traceOf(Source(32), Strings);
  Trace R = traceOf(Source(1), Strings);
  DiffResult Result = diff(L, R);
  EXPECT_GT(Result.numDiffs(), 0u);
  // The change is small: a handful of entries (init args, field get, the
  // final print is not traced but the divergent value propagates).
  EXPECT_LT(Result.numDiffs(), 12u) << Result.render();
  EXPECT_GE(Result.Sequences.size(), 1u);
}

TEST_P(DiffEngineTest, SimilarityFlagsAreConsistentWithSequences) {
  auto Strings = std::make_shared<StringInterner>();
  Trace L = traceOf(R"(
    class B { Int v; B() { this.v = 0; }
      Unit s(Int x) { this.v = x; return unit; } }
    main { var b = new B(); b.s(1); b.s(2); b.s(3); }
  )",
                    Strings);
  Trace R = traceOf(R"(
    class B { Int v; B() { this.v = 0; }
      Unit s(Int x) { this.v = x; return unit; } }
    main { var b = new B(); b.s(1); b.s(9); b.s(3); }
  )",
                    Strings);
  DiffResult Result = diff(L, R);
  // Every sequence entry must be flagged as a difference, and the diff
  // counts must equal the entries collected in sequences.
  uint64_t InSequences = 0;
  for (const DiffSequence &Seq : Result.Sequences) {
    for (uint32_t Eid : Seq.LeftEids) {
      EXPECT_FALSE(Result.LeftSimilar[Eid]);
      ++InSequences;
    }
    for (uint32_t Eid : Seq.RightEids) {
      EXPECT_FALSE(Result.RightSimilar[Eid]);
      ++InSequences;
    }
  }
  EXPECT_EQ(InSequences, Result.numDiffs());
}

INSTANTIATE_TEST_SUITE_P(Engines, DiffEngineTest,
                         ::testing::Values(EngineParam{"lcs", false},
                                           EngineParam{"views", true}),
                         [](const auto &Info) {
                           return std::string(Info.param.Name);
                         });

//===----------------------------------------------------------------------===//
// Views-based advantages (the paper's headline claims)
//===----------------------------------------------------------------------===//

/// Two versions that *reorder* two independent operation blocks. LCS can
/// only match one block; the views-based semantics recovers the moved block
/// through correlated object views (§3.4: "resilient to reorderings").
struct ReorderSources {
  std::string Orig;
  std::string New;
};

ReorderSources reorderProgram() {
  const char *Common = R"(
    class Dev {
      Int state; Str tag;
      Dev(Str tag) { this.state = 0; this.tag = tag; }
      Unit setup(Int v) {
        this.state = v;
        this.state = this.state + 1;
        this.state = this.state * 2;
        return unit;
      }
    }
  )";
  std::string MainA = R"(
    main {
      var a = new Dev("alpha");
      var b = new Dev("beta");
      a.setup(10);
      b.setup(20);
      print(a.state + b.state);
    }
  )";
  std::string MainB = R"(
    main {
      var a = new Dev("alpha");
      var b = new Dev("beta");
      b.setup(20);
      a.setup(10);
      print(a.state + b.state);
    }
  )";
  return {Common + MainA, Common + MainB};
}

TEST(ViewsDiffAdvantage, ReorderedBlocksAreCorrelated) {
  ReorderSources Sources = reorderProgram();
  auto Strings = std::make_shared<StringInterner>();
  Trace L = traceOf(Sources.Orig, Strings);
  Trace R = traceOf(Sources.New, Strings);

  DiffResult LcsRes = lcsDiff(L, R);
  DiffResult ViewsRes = viewsDiff(L, R);

  // LCS reports the moved block twice (deleted + inserted); views-based
  // differencing anchors the moved entries through the object views of a
  // and b and reports strictly fewer differences.
  EXPECT_GT(LcsRes.numDiffs(), 0u);
  EXPECT_LT(ViewsRes.numDiffs(), LcsRes.numDiffs())
      << "views:\n"
      << ViewsRes.render() << "\nlcs:\n"
      << LcsRes.render();
}

TEST(ViewsDiffAdvantage, AccuracyCanExceedOne) {
  // The paper's accuracy metric: (entries - viewsDiffs) / (entries -
  // lcsDiffs) — above 1.0 exactly when views correlates more.
  ReorderSources Sources = reorderProgram();
  auto Strings = std::make_shared<StringInterner>();
  Trace L = traceOf(Sources.Orig, Strings);
  Trace R = traceOf(Sources.New, Strings);
  double Total = static_cast<double>(L.size() + R.size());
  double LcsDiffs = static_cast<double>(lcsDiff(L, R).numDiffs());
  double ViewsDiffs = static_cast<double>(viewsDiff(L, R).numDiffs());
  double Accuracy = (Total - ViewsDiffs) / (Total - LcsDiffs);
  EXPECT_GT(Accuracy, 1.0);
}

TEST(ViewsDiffAdvantage, CompareOpsScaleBetterThanLcs) {
  // Differences near BOTH ends defeat the prefix/suffix trimming, so the
  // LCS baseline pays a quadratic DP across the long equal middle; the
  // views-based pass stays near-linear (lock-step + bounded exploration).
  auto MakeSource = [](int Extra) {
    return std::string(R"(
      class Acc { Int v; Acc() { this.v = 0; }
        Unit add(Int x) { this.v = this.v + x; return unit; } }
      class Noise { Int n; Noise() { this.n = 0; }
        Unit tick() { this.n = this.n + 1; return unit; } }
      main {
        var a = new Acc();
        var z = new Noise();
        var j = 0;
        while (j < )") +
           std::to_string(Extra) + R"() { z.tick(); j = j + 1; }
        var i = 0;
        while (i < 150) { a.add(i); i = i + 1; }
        j = 0;
        while (j < )" +
           std::to_string(Extra) + R"() { z.tick(); j = j + 1; }
      }
    )";
  };
  auto Strings = std::make_shared<StringInterner>();
  Trace L = traceOf(MakeSource(25), Strings);
  Trace R = traceOf(MakeSource(55), Strings);

  DiffResult LcsRes = lcsDiff(L, R);
  DiffResult ViewsRes = viewsDiff(L, R);
  EXPECT_GT(LcsRes.Stats.CompareOps, 0u);
  EXPECT_GT(ViewsRes.Stats.CompareOps, 0u);
  // The paper's speedup metric.
  double Speedup = static_cast<double>(LcsRes.Stats.CompareOps) /
                   static_cast<double>(ViewsRes.Stats.CompareOps);
  EXPECT_GT(Speedup, 1.0) << "lcs ops " << LcsRes.Stats.CompareOps
                          << " views ops " << ViewsRes.Stats.CompareOps;
}

TEST(ViewsDiff, MultithreadedTracesDiffPerThread) {
  auto MakeSource = [](int V) {
    return std::string(R"(
      class W {
        Int seed; W(Int seed) { this.seed = seed; }
        Unit go() {
          var i = 0;
          while (i < 8) { this.seed = this.seed + 1; i = i + 1; }
          return unit;
        }
      }
      main {
        spawn new W()") + std::to_string(V) + R"().go();
        var i = 0;
        while (i < 8) { i = i + 1; }
      }
    )";
  };
  auto Strings = std::make_shared<StringInterner>();
  Trace L = traceOf(MakeSource(100), Strings);
  Trace R = traceOf(MakeSource(200), Strings);
  DiffResult Result = viewsDiff(L, R);
  // The seed difference shows both where it is set (constructor, main
  // thread) and where the worker reads/updates it (worker thread): the
  // per-thread evaluation must surface differences in the worker thread,
  // not only at the construction site.
  EXPECT_GT(Result.numDiffs(), 0u);
  bool WorkerDiff = false;
  for (const DiffSequence &Seq : Result.Sequences)
    for (uint32_t Eid : Seq.LeftEids)
      WorkerDiff = WorkerDiff || L.tid(Eid) == 1;
  EXPECT_TRUE(WorkerDiff) << Result.render();
}

TEST(ViewsDiff, SecondaryViewExplorationAblation) {
  // With exploration disabled the algorithm degenerates to lock-step +
  // skip; the reorder case then reports at least as many differences.
  ReorderSources Sources = reorderProgram();
  auto Strings = std::make_shared<StringInterner>();
  Trace L = traceOf(Sources.Orig, Strings);
  Trace R = traceOf(Sources.New, Strings);
  ViewsDiffOptions NoExplore;
  NoExplore.ExploreSecondaryViews = false;
  DiffResult Without = viewsDiff(L, R, NoExplore);
  DiffResult With = viewsDiff(L, R);
  EXPECT_LE(With.numDiffs(), Without.numDiffs());
  EXPECT_LT(With.numDiffs(), Without.numDiffs());
}

TEST(ViewsDiff, EmptyAndTrivialTraces) {
  Trace Empty;
  Empty.Strings = std::make_shared<StringInterner>();
  DiffResult Result = viewsDiff(Empty, Empty);
  EXPECT_EQ(Result.numDiffs(), 0u);

  auto Strings = std::make_shared<StringInterner>();
  Trace L = traceOf("main { }", Strings);
  Trace R = traceOf("main { }", Strings);
  DiffResult Trivial = viewsDiff(L, R);
  EXPECT_EQ(Trivial.numDiffs(), 0u);
}

//===----------------------------------------------------------------------===//
// Parallel-pipeline determinism
//===----------------------------------------------------------------------===//

/// The ISSUE's determinism contract: the DiffResult — similarity bitsets,
/// difference sequences, rendered report, AND the merged compare-op total —
/// must be identical for every Jobs value, on a multi-threaded workload
/// with enough correlated thread pairs to actually exercise the fan-out.
TEST(ViewsDiff, JobsCountDoesNotChangeResult) {
  GeneratorOptions Base;
  Base.OuterIters = 8;
  Base.NumThreads = 3;
  GeneratorOptions Perturbed = Base;
  Perturbed.Perturb = 1;
  Perturbed.ReorderBlock = true;

  auto Strings = std::make_shared<StringInterner>();
  Trace L = traceOf(generateProgram(Base), Strings);
  Trace R = traceOf(generateProgram(Perturbed), Strings);

  ViewsDiffOptions Sequential;
  Sequential.Jobs = 1;
  DiffResult Ref = viewsDiff(L, R, Sequential);
  ASSERT_GT(Ref.numDiffs(), 0u); // A trivial diff would prove nothing.

  for (unsigned Jobs : {2u, 4u, 0u}) {
    ViewsDiffOptions Options;
    Options.Jobs = Jobs;
    DiffResult Parallel = viewsDiff(L, R, Options);

    EXPECT_EQ(Parallel.LeftSimilar, Ref.LeftSimilar) << "Jobs=" << Jobs;
    EXPECT_EQ(Parallel.RightSimilar, Ref.RightSimilar) << "Jobs=" << Jobs;
    EXPECT_EQ(Parallel.Stats.CompareOps, Ref.Stats.CompareOps)
        << "Jobs=" << Jobs;
    ASSERT_EQ(Parallel.Sequences.size(), Ref.Sequences.size())
        << "Jobs=" << Jobs;
    for (size_t I = 0; I != Ref.Sequences.size(); ++I) {
      EXPECT_EQ(Parallel.Sequences[I].LeftEids, Ref.Sequences[I].LeftEids);
      EXPECT_EQ(Parallel.Sequences[I].RightEids, Ref.Sequences[I].RightEids);
      EXPECT_EQ(Parallel.Sequences[I].LeftTid, Ref.Sequences[I].LeftTid);
    }
    EXPECT_EQ(Parallel.render(50, 12), Ref.render(50, 12)) << "Jobs=" << Jobs;
  }
}


//===----------------------------------------------------------------------===//
// Run-skipping and cross-format determinism contracts
//===----------------------------------------------------------------------===//

std::string diffTempPath(const std::string &Tag) {
  return "/tmp/rprism_diff_test_" + Tag + "_" + std::to_string(::getpid());
}

TEST(ViewsDiff, RunSkipMatchesEventEqualsOnGeneratedTraces) {
  // The fingerprint-lane run-skip is an optimization of the lock-step
  // scan, not a semantic change: with fingerprints stripped, evaluation
  // falls back to per-event =e, and the report, similarity sets, and
  // compare-op totals must all be identical. One thread makes each side's
  // only thread view the identity range, evaluated on the Fps column
  // itself; two threads gather both lanes.
  for (unsigned NumThreads : {1u, 2u}) {
    unsigned Differing = 0; // Seeds whose pair differs at all.
    for (uint64_t Seed : {1ull, 7ull, 23ull}) {
      GeneratorOptions Base;
      Base.Seed = Seed;
      Base.OuterIters = 30;
      Base.NumThreads = NumThreads;
      Base.ReorderBlock = (Seed % 2) == 1;
      GeneratorOptions Perturbed = Base;
      Perturbed.Perturb = 1 + unsigned(Seed % 3);
      auto Strings = std::make_shared<StringInterner>();
      Trace L = traceOf(generateProgram(Base), Strings);
      Trace R = traceOf(generateProgram(Perturbed), Strings);
      ASSERT_TRUE(L.HasFingerprints);
      ASSERT_TRUE(R.HasFingerprints);
      SCOPED_TRACE("threads " + std::to_string(NumThreads) + ", seed " +
                   std::to_string(Seed));
      {
        ViewWeb LWeb(L), RWeb(R);
        ASSERT_EQ(LWeb.numThreadViews(), NumThreads);
        ASSERT_EQ(RWeb.numThreadViews(), NumThreads);
        EXPECT_EQ(LWeb.view(0).size() == L.size(), NumThreads == 1);
        EXPECT_EQ(RWeb.view(0).size() == R.size(), NumThreads == 1);
      }

      DiffResult Fast = viewsDiff(L, R);

      Trace LSlow = L, RSlow = R;
      LSlow.HasFingerprints = false;
      RSlow.HasFingerprints = false;
      DiffResult Slow = viewsDiff(LSlow, RSlow);

      Differing += Slow.numDiffs() != 0;
      EXPECT_EQ(Fast.render(100, 16), Slow.render(100, 16));
      EXPECT_EQ(Fast.Stats.CompareOps, Slow.Stats.CompareOps);
      EXPECT_EQ(Fast.LeftSimilar, Slow.LeftSimilar);
      EXPECT_EQ(Fast.RightSimilar, Slow.RightSimilar);
    }
    EXPECT_GT(Differing, 0u) << "threads " << NumThreads;
  }
}

TEST(ViewsDiff, DeterministicAcrossLoadPathsAndJobs) {
  // Byte-identical reports and identical compare-op totals for every
  // --jobs value after a trace-file round trip, whatever the load path:
  // zero-copy, remapped, and an indexed file against a plain one.
  GeneratorOptions Base;
  Base.OuterIters = 60;
  Base.NumThreads = 3;
  GeneratorOptions Perturbed = Base;
  Perturbed.Perturb = 2;
  auto Strings = std::make_shared<StringInterner>();
  Trace L = traceOf(generateProgram(Base), Strings);
  Trace R = traceOf(generateProgram(Perturbed), Strings);

  ViewsDiffOptions RefOptions;
  RefOptions.Jobs = 1;
  DiffResult Ref = viewsDiff(L, R, RefOptions);
  ASSERT_GT(Ref.numDiffs(), 0u);
  const std::string RefRender = Ref.render(50, 12);

  std::string LPath = diffTempPath("L"), RPath = diffTempPath("R");
  std::string RPlainPath = diffTempPath("R_plain");
  ASSERT_TRUE(writeTrace(L, LPath));
  ASSERT_TRUE(writeTrace(R, RPath));
  ASSERT_TRUE(writeTrace(R, RPlainPath, /*WithViewIndex=*/false));
  // Both traces were recorded against one interner, so every file carries
  // the same string table. Loads into a fresh interner keep symbol
  // identity and borrow zero-copy; loads into a busy interner take the
  // remap path. Each pair shares its interner, as a diff session does.
  auto Fresh = std::make_shared<StringInterner>();
  auto Busy = std::make_shared<StringInterner>();
  Busy->intern("occupying-symbol-id-zero");
  Expected<Trace> LF = readTrace(LPath, Fresh), RF = readTrace(RPath, Fresh);
  Expected<Trace> RP = readTrace(RPlainPath, Fresh);
  Expected<Trace> LB = readTrace(LPath, Busy), RB = readTrace(RPath, Busy);
  ASSERT_TRUE(bool(LF) && bool(RF) && bool(RP) && bool(LB) && bool(RB));
  EXPECT_TRUE(LF->Backing != nullptr);
  EXPECT_TRUE(LF->Methods.borrowed());
  EXPECT_FALSE(LB->Methods.borrowed());
  EXPECT_FALSE(RP->ViewIdx.Present);
  for (const Expected<Trace> *Loaded : {&LF, &RF, &RP, &LB, &RB})
    EXPECT_TRUE((*Loaded)->HasFingerprints);

  struct Pair {
    const char *What;
    const Trace *Lhs;
    const Trace *Rhs;
  } Pairs[] = {{"fresh interner", &*LF, &*RF},
               {"busy interner", &*LB, &*RB},
               {"indexed vs plain", &*LF, &*RP}};
  for (const Pair &P : Pairs)
    for (unsigned Jobs : {1u, 4u, 0u}) {
      SCOPED_TRACE(std::string(P.What) + " jobs=" + std::to_string(Jobs));
      ViewsDiffOptions Options;
      Options.Jobs = Jobs;
      DiffResult Out = viewsDiff(*P.Lhs, *P.Rhs, Options);
      EXPECT_EQ(Out.render(50, 12), RefRender);
      EXPECT_EQ(Out.Stats.CompareOps, Ref.Stats.CompareOps);
    }
  for (const std::string &Path : {LPath, RPath, RPlainPath})
    std::remove(Path.c_str());
}

} // namespace
