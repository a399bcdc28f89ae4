//===- tests/ViewsTest.cpp - View web and correlation tests ---------------===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//

#include "ViewOracle.h"

#include "correlate/Correlate.h"
#include "runtime/Compiler.h"
#include "runtime/Vm.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"
#include "trace/Serialize.h"
#include "trace/ValueHash.h"
#include "trace/ViewIndex.h"
#include "views/Views.h"
#include "workload/Corpus.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <random>
#include <unistd.h>

using namespace rprism;
using vieworacle::expectWebMatchesOracle;

namespace {

/// Runs a source program with a shared interner and returns its trace.
Trace traceOf(const std::string &Source,
              std::shared_ptr<StringInterner> Strings = nullptr,
              RunOptions Options = RunOptions()) {
  auto Prog = compileSource(Source, std::move(Strings));
  EXPECT_TRUE(bool(Prog)) << (Prog ? "" : Prog.error().render());
  if (!Prog)
    return Trace();
  RunResult Result = runProgram(*Prog, Options);
  EXPECT_TRUE(Result.Completed) << Result.Error;
  return std::move(Result.ExecTrace);
}

/// Materializes every entry of \p T (the columnar trace stores entries
/// scattered across columns; tests iterate whole entries).
std::vector<TraceEntry> materialize(const Trace &T) {
  std::vector<TraceEntry> Out;
  Out.reserve(T.size());
  for (uint32_t Eid = 0; Eid != T.size(); ++Eid)
    Out.push_back(T.entry(Eid));
  return Out;
}

const char *CounterProgram = R"(
  class Counter {
    Int count;
    Counter(Int start) { this.count = start; }
    Int next() { this.count = this.count + 1; return this.count; }
    Int peek() { return this.count; }
  }
  main {
    var a = new Counter(0);
    var b = new Counter(100);
    a.next();
    b.next();
    a.next();
    print(a.peek() + b.peek());
  }
)";

//===----------------------------------------------------------------------===//
// View web structure
//===----------------------------------------------------------------------===//

TEST(ViewWeb, EveryEntryIsInItsThreadAndMethodViews) {
  Trace T = traceOf(CounterProgram);
  ViewWeb Web(T);
  for (const TraceEntry &Entry : materialize(T)) {
    const View *TV = Web.threadView(Entry.Tid);
    ASSERT_TRUE(TV != nullptr);
    EXPECT_GE(ViewWeb::positionOf(*TV, Entry.Eid), 0);

    const View *MV = Web.methodView(Entry.Method);
    ASSERT_TRUE(MV != nullptr);
    EXPECT_GE(ViewWeb::positionOf(*MV, Entry.Eid), 0);
  }
}

TEST(ViewWeb, SingleThreadViewEqualsWholeTrace) {
  // "The example is single threaded, so there is a single thread view which
  // is identical to the full execution trace" (Fig. 2).
  Trace T = traceOf(CounterProgram);
  ViewWeb Web(T);
  EXPECT_EQ(Web.numThreadViews(), 1u);
  const View *TV = Web.threadView(0);
  ASSERT_TRUE(TV != nullptr);
  ASSERT_EQ(TV->Entries.size(), T.size());
  for (size_t I = 0; I != TV->Entries.size(); ++I)
    EXPECT_EQ(TV->Entries[I], I);
}

TEST(ViewWeb, TargetObjectViewContainsOnlyThatObjectsEvents) {
  Trace T = traceOf(CounterProgram);
  ViewWeb Web(T);
  // Find Counter-1 (object a) via its init event.
  uint32_t Loc = NoLoc;
  for (const TraceEntry &Entry : materialize(T)) {
    if (Entry.Ev.Kind == EventKind::Init &&
        T.Strings->text(Entry.Ev.Target.ClassName) == "Counter" &&
        Entry.Ev.Target.CreationSeq == 1) {
      Loc = Entry.Ev.Target.Loc;
      break;
    }
  }
  ASSERT_NE(Loc, NoLoc);
  const View *OV = Web.targetObjectView(Loc);
  ASSERT_TRUE(OV != nullptr);
  EXPECT_FALSE(OV->Entries.empty());
  for (uint32_t Eid : OV->Entries)
    EXPECT_EQ(T.target(Eid).Loc, Loc) << T.renderEntry(Eid);
  // a receives: init, 2 next() calls + returns, 1 peek() call + return,
  // plus field gets/sets targeted at it from inside its methods.
  EXPECT_GE(OV->Entries.size(), 6u);
}

TEST(ViewWeb, ActiveObjectViewHoldsEventsWhileObjectExecutes) {
  Trace T = traceOf(CounterProgram);
  ViewWeb Web(T);
  for (const View &V : Web.views()) {
    if (V.Type != ViewType::ActiveObject)
      continue;
    for (uint32_t Eid : V.Entries)
      EXPECT_EQ(T.self(Eid).Loc, V.Loc);
  }
}

TEST(ViewWeb, MethodViewMatchesFig2Semantics) {
  // A method view contains events occurring while the method is on top of
  // the call stack — i.e. calls *made from* it, field accesses *performed
  // by* it (Fig. 2's SP.setRequestType box).
  Trace T = traceOf(CounterProgram);
  ViewWeb Web(T);
  Symbol NextSym = T.Strings->intern("Counter.next");
  const View *MV = Web.methodView(NextSym);
  ASSERT_TRUE(MV != nullptr);
  for (uint32_t Eid : MV->Entries) {
    EXPECT_EQ(T.Strings->text(T.method(Eid)), "Counter.next");
    // next() performs field gets and sets only.
    EXPECT_TRUE(T.kind(Eid) == EventKind::FieldGet ||
                T.kind(Eid) == EventKind::FieldSet)
        << T.renderEntry(Eid);
  }
  EXPECT_EQ(MV->Entries.size(), 9u); // 3 calls x (get, get, set).
}

TEST(ViewWeb, ViewsOfEntryLinksAllViewTypes) {
  Trace T = traceOf(CounterProgram);
  ViewWeb Web(T);
  // Pick a field-set inside Counter.next: it belongs to 4 views.
  for (const TraceEntry &Entry : materialize(T)) {
    if (Entry.Ev.Kind != EventKind::FieldSet)
      continue;
    if (T.Strings->text(Entry.Method) != "Counter.next")
      continue;
    std::vector<uint32_t> Views = Web.viewsOf(Entry.Eid);
    EXPECT_EQ(Views.size(), 4u); // TH + CM + TO + AO.
    // Navigation: the entry is present in each view at a valid position.
    for (uint32_t ViewId : Views) {
      const View &V = Web.view(ViewId);
      int64_t Pos = ViewWeb::positionOf(V, Entry.Eid);
      ASSERT_GE(Pos, 0);
      EXPECT_EQ(V.Entries[static_cast<size_t>(Pos)], Entry.Eid);
    }
    return;
  }
  FAIL() << "no field-set entry found in Counter.next";
}

TEST(ViewWeb, EntriesAscendWithinEveryView) {
  Trace T = traceOf(CounterProgram);
  ViewWeb Web(T);
  for (const View &V : Web.views())
    for (size_t I = 1; I < V.Entries.size(); ++I)
      EXPECT_LT(V.Entries[I - 1], V.Entries[I]);
}

TEST(ViewWeb, CountsMatchDistinctKeys) {
  Trace T = traceOf(CounterProgram);
  ViewWeb Web(T);
  EXPECT_EQ(Web.numThreadViews(), 1u);
  // Methods: main, Counter.<init>, Counter.next, Counter.peek.
  EXPECT_EQ(Web.numMethodViews(), 4u);
  // Objects: two Counters (both as targets and as active objects).
  EXPECT_EQ(Web.numTargetObjectViews(), 2u);
  EXPECT_EQ(Web.numActiveObjectViews(), 2u);
  EXPECT_EQ(Web.numViews(), Web.numThreadViews() + Web.numMethodViews() +
                                Web.numTargetObjectViews() +
                                Web.numActiveObjectViews());
}

TEST(ViewWeb, MultiThreadedTracesHaveOneViewPerThread) {
  Trace T = traceOf(R"(
    class W {
      Unit go() { var i = 0; while (i < 5) { i = i + 1; } return unit; }
    }
    main {
      spawn new W().go();
      spawn new W().go();
    }
  )");
  ViewWeb Web(T);
  EXPECT_EQ(Web.numThreadViews(), 3u);
  // Thread views partition the trace.
  size_t Total = 0;
  for (const View &V : Web.views())
    if (V.Type == ViewType::Thread)
      Total += V.Entries.size();
  EXPECT_EQ(Total, T.size());
}

//===----------------------------------------------------------------------===//
// Reference oracle: every way of building a web yields the Fig. 7 views
//===----------------------------------------------------------------------===//

/// Checks that \p A and \p B hold the same bytes in every family's keys
/// and counts and in the flat entry column.
void expectIndexesIdentical(const ViewIndex &A, const ViewIndex &B,
                            const std::string &What) {
  auto Same = [](const Column<uint32_t> &X, const Column<uint32_t> &Y) {
    return X.size() == Y.size() &&
           (X.empty() || std::memcmp(X.data(), Y.data(), X.byteSize()) == 0);
  };
  for (size_t F = 0; F != NumViewFamilies; ++F) {
    EXPECT_TRUE(Same(A.Keys[F], B.Keys[F])) << What << ", family " << F;
    EXPECT_TRUE(Same(A.Counts[F], B.Counts[F])) << What << ", family " << F;
  }
  EXPECT_TRUE(Same(A.Entries, B.Entries)) << What;
}

/// A trace whose store locations lie far past the dense bound of the
/// scans' key map (the entry count plus 1024), so its object views are
/// keyed through the map's hash fallback: two threads set fields of
/// objects at huge and small locations, from methods whose receivers sit
/// at such locations too, each object seen again after others.
Trace sparseLocationTrace() {
  auto Strings = std::make_shared<StringInterner>();
  Trace T;
  T.Strings = Strings;
  T.Name = "sparse-locations";
  ThreadInfo Main;
  Main.EntryMethod = Strings->intern("main");
  ThreadInfo Worker;
  Worker.Tid = 1;
  Worker.EntryMethod = Strings->intern("A.run");
  T.Threads = {Main, Worker};
  const uint32_t Locs[] = {0xFFFFFFF0u, 7,  0x80000000u, 3,
                           0x10000000u, 7,  0xFFFFFFF0u, 0x80000000u};
  for (uint32_t I = 0; I != 48; ++I) {
    TraceEntry E;
    E.Tid = I % 3 == 2 ? 1 : 0;
    E.Method = E.Tid ? Worker.EntryMethod : Main.EntryMethod;
    if (E.Tid) {
      E.Self.ClassName = Strings->intern("A");
      E.Self.Loc = Locs[(I / 3) % 8];
      E.Self.CreationSeq = (I / 3) % 8 + 1;
    }
    E.Ev.Kind = EventKind::FieldSet;
    E.Ev.Name = Strings->intern("x");
    E.Ev.Target.ClassName = Strings->intern("A");
    E.Ev.Target.Loc = Locs[I % 8];
    E.Ev.Target.CreationSeq = I % 8 + 1;
    E.Ev.Value.Kind = ReprKind::Int;
    E.Ev.Value.Hash = intValueHash(I);
    T.append(E);
  }
  T.computeFingerprints();
  return T;
}

/// Checks the index every scanned web is assembled from — computed with
/// no pool and on a 4-worker pool — against the oracle and for byte
/// identity; then the webs of \p T built five ways: scanned with no pool,
/// on a 4-worker pool and with telemetry on; reconstructed from
/// computeViewIndex; and reconstructed from a written trace file reloaded
/// into a fresh and into a busy interner.
void expectEveryBuildMatchesOracle(Trace T, const std::string &What) {
  ASSERT_GT(T.size(), 0u) << What;
  ViewIndex Index = computeViewIndex(T);
  vieworacle::expectIndexMatchesOracle(Index, T, What + ", index");
  {
    ThreadPool Pool(4);
    expectIndexesIdentical(Index, computeViewIndex(T, &Pool),
                           What + ", index on a 4-worker pool");
  }
  {
    ViewWeb Web(T, nullptr, /*UseIndex=*/false);
    expectWebMatchesOracle(Web, What + ", no pool");
  }
  {
    ThreadPool Pool(4);
    ViewWeb Web(T, &Pool, /*UseIndex=*/false);
    expectWebMatchesOracle(Web, What + ", 4-worker pool");
  }
  {
    Telemetry::get().reset();
    Telemetry::get().setEnabled(true);
    ViewWeb Web(T, nullptr, /*UseIndex=*/false);
    Telemetry::get().setEnabled(false);
    Telemetry::get().reset();
    expectWebMatchesOracle(Web, What + ", telemetry on");
  }

  static unsigned FileCount = 0;
  std::string Path = "/tmp/rprism_viewstest_" + std::to_string(::getpid()) +
                     "_" + std::to_string(FileCount++) + ".rpt";
  ASSERT_TRUE(writeTrace(T, Path)) << What;
  T.ViewIdx = std::move(Index);
  {
    ViewWeb Web(T);
    expectWebMatchesOracle(Web, What + ", from computeViewIndex");
  }
  // A pre-occupied interner shifts every symbol id, so the load remaps
  // the columns and the index's method keys.
  auto Busy = std::make_shared<StringInterner>();
  Busy->intern("occupying-symbol-id-one");
  Busy->intern("occupying-symbol-id-two");
  for (const auto &Strings : {std::shared_ptr<StringInterner>(), Busy}) {
    std::string Label = What + (Strings ? ", reloaded into a busy interner"
                                        : ", reloaded into a fresh interner");
    Expected<Trace> Loaded = readTrace(Path, Strings);
    ASSERT_TRUE(bool(Loaded)) << Label << ": " << Loaded.error().render();
    ASSERT_TRUE(Loaded->ViewIdx.Present) << Label;
    ViewWeb Web(*Loaded);
    expectWebMatchesOracle(Web, Label);
  }
  std::remove(Path.c_str());
}

TEST(ViewOracle, EveryWebBuildMatchesOnGeneratedWorkloads) {
  // The draws of CacheTest's ViewIndexProperty tests.
  for (auto [Seed, Rounds] : {std::pair<uint64_t, int>{20260807, 8},
                              std::pair<uint64_t, int>{42, 4}}) {
    std::mt19937_64 Rng(Seed);
    for (int Round = 0; Round != Rounds; ++Round)
      expectEveryBuildMatchesOracle(
          traceOf(generateProgram(vieworacle::drawGeneratorOptions(Rng))),
          "seed " + std::to_string(Seed) + " round " + std::to_string(Round));
  }
  // Three threads, so a thread family scan interleaves its views.
  GeneratorOptions Threads;
  Threads.NumClasses = 4;
  Threads.OuterIters = 24;
  Threads.NumThreads = 3;
  Threads.Seed = 11;
  Threads.Perturb = 1;
  Trace ThreeThreads = traceOf(generateProgram(Threads));
  ASSERT_EQ(ViewWeb(ThreeThreads).numThreadViews(), 3u);
  expectEveryBuildMatchesOracle(std::move(ThreeThreads), "three threads");

  Trace Sparse = sparseLocationTrace();
  ASSERT_GT(Sparse.target(0).Loc, Sparse.size() + 1024);
  expectEveryBuildMatchesOracle(std::move(Sparse), "sparse locations");
}

TEST(ViewOracle, EveryWebBuildMatchesOnCorpusPrograms) {
  std::vector<BenchmarkCase> Cases = {motivatingCase()};
  for (BenchmarkCase &Case : benchmarkCorpus())
    if (Case.Name == "derby-1633")
      Cases.push_back(std::move(Case));
  ASSERT_EQ(Cases.size(), 2u);
  for (const BenchmarkCase &Case : Cases) {
    Expected<PreparedCase> P = prepareCase(Case);
    ASSERT_TRUE(bool(P)) << Case.Name << ": " << P.error().render();
    expectEveryBuildMatchesOracle(std::move(P->OrigOk), Case.Name + " orig ok");
    expectEveryBuildMatchesOracle(std::move(P->OrigRegr),
                                  Case.Name + " orig regr");
    expectEveryBuildMatchesOracle(std::move(P->NewOk), Case.Name + " new ok");
    expectEveryBuildMatchesOracle(std::move(P->NewRegr),
                                  Case.Name + " new regr");
  }
}

//===----------------------------------------------------------------------===//
// Correlation (X_nu)
//===----------------------------------------------------------------------===//

TEST(Correlate, IdenticalRunsCorrelateEverything) {
  auto Strings = std::make_shared<StringInterner>();
  Trace L = traceOf(CounterProgram, Strings);
  Trace R = traceOf(CounterProgram, Strings);
  ViewWeb LW(L);
  ViewWeb RW(R);
  ViewCorrelation X(LW, RW);
  for (const View &V : LW.views())
    EXPECT_GE(X.rightOf(V.Id), 0)
        << viewTypeName(V.Type) << " view uncorrelated";
  ASSERT_EQ(X.threadPairs().size(), 1u);
}

TEST(Correlate, MethodViewsCorrelateByQualifiedName) {
  auto Strings = std::make_shared<StringInterner>();
  Trace L = traceOf(CounterProgram, Strings);
  // Same shape, but the method is renamed: method views must NOT correlate.
  Trace R = traceOf(R"(
    class Counter {
      Int count;
      Counter(Int start) { this.count = start; }
      Int advance() { this.count = this.count + 1; return this.count; }
      Int peek() { return this.count; }
    }
    main {
      var a = new Counter(0);
      var b = new Counter(100);
      a.advance();
      b.advance();
      a.advance();
      print(a.peek() + b.peek());
    }
  )",
                    Strings);
  ViewWeb LW(L);
  ViewWeb RW(R);
  ViewCorrelation X(LW, RW);

  const View *NextView = LW.methodView(Strings->intern("Counter.next"));
  ASSERT_TRUE(NextView != nullptr);
  EXPECT_LT(X.rightOf(NextView->Id), 0);

  const View *PeekView = LW.methodView(Strings->intern("Counter.peek"));
  ASSERT_TRUE(PeekView != nullptr);
  EXPECT_GE(X.rightOf(PeekView->Id), 0);
}

TEST(Correlate, ObjectsCorrelateByCreationSeqWhenValuesDiffer) {
  auto Strings = std::make_shared<StringInterner>();
  Trace L = traceOf(CounterProgram, Strings);
  // Different start value for b: value reprs differ, creation seq matches.
  Trace R = traceOf(R"(
    class Counter {
      Int count;
      Counter(Int start) { this.count = start; }
      Int next() { this.count = this.count + 1; return this.count; }
      Int peek() { return this.count; }
    }
    main {
      var a = new Counter(0);
      var b = new Counter(999);
      a.next();
      b.next();
      a.next();
      print(a.peek() + b.peek());
    }
  )",
                    Strings);
  ViewWeb LW(L);
  ViewWeb RW(R);
  ViewCorrelation X(LW, RW);
  unsigned CorrelatedObjects = 0;
  for (const View &V : LW.views())
    if (V.Type == ViewType::TargetObject && X.rightOf(V.Id) >= 0)
      ++CorrelatedObjects;
  EXPECT_EQ(CorrelatedObjects, 2u);
}

TEST(Correlate, ThreadsCorrelateByAncestry) {
  const char *Source = R"(
    class W {
      Int id;
      W(Int id) { this.id = id; }
      Unit go() { var x = this.id * 2; return unit; }
      Unit other() { var y = this.id + 1; return unit; }
    }
    main {
      spawn new W(1).go();
      spawn new W(2).other();
    }
  )";
  auto Strings = std::make_shared<StringInterner>();
  Trace L = traceOf(Source, Strings);
  Trace R = traceOf(Source, Strings);
  ViewWeb LW(L);
  ViewWeb RW(R);
  ViewCorrelation X(LW, RW);
  ASSERT_EQ(X.threadPairs().size(), 3u);
  // Each left thread must pair with the same-entry-method right thread.
  for (auto [LId, RId] : X.threadPairs()) {
    const View &LV = LW.view(LId);
    const View &RV = RW.view(RId);
    EXPECT_EQ(L.Threads[LV.Tid].EntryMethod, R.Threads[RV.Tid].EntryMethod);
  }
}

TEST(Correlate, AncestrySimilarityPrefersExactHash) {
  ThreadInfo A;
  A.AncestryHash = 42;
  ThreadInfo B;
  B.AncestryHash = 42;
  Trace Dummy;
  EXPECT_EQ(threadAncestrySimilarity(Dummy, A, Dummy, B), 1.0);
  B.AncestryHash = 43;
  EXPECT_LT(threadAncestrySimilarity(Dummy, A, Dummy, B), 1.0);
}

} // namespace
