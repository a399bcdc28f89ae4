//===- tests/TelemetryTest.cpp - Telemetry registry and span tests --------===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//

#include "diff/ViewsDiff.h"
#include "runtime/Compiler.h"
#include "runtime/Vm.h"
#include "support/MemoryAccountant.h"
#include "support/MetricsSink.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"
#include "trace/Serialize.h"
#include "workload/Generator.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <thread>
#include <unistd.h>

using namespace rprism;

namespace {

/// Enables telemetry over a fresh window for one test; disables on exit so
/// other tests (and their fixture setup) record nothing.
struct TelemetryWindow {
  TelemetryWindow() {
    Telemetry::get().reset();
    Telemetry::get().setEnabled(true);
  }
  ~TelemetryWindow() { Telemetry::get().setEnabled(false); }
};

//===----------------------------------------------------------------------===//
// Disabled mode
//===----------------------------------------------------------------------===//

TEST(Telemetry, DisabledModeRecordsNothingAndRegistersNoThreadRecord) {
  Telemetry::get().setEnabled(false);
  Telemetry::get().reset();
  size_t RecordsBefore = Telemetry::get().numThreadRecords();

  // A brand-new thread exercising every entry point while disabled must
  // not register a per-thread record (the zero-allocation contract).
  std::thread([] {
    Telemetry::counterAdd("t.counter", 3);
    Telemetry::gaugeMax("t.gauge", 1.0);
    Telemetry::gaugeSum("t.gauge_sum", 2.0);
    Telemetry::observe("t.hist", 4.0);
    TelemetrySpan Outer("outer");
    TelemetrySpan Inner("inner");
    TelemetryTaskScope Scope("task/path");
  }).join();

  EXPECT_EQ(Telemetry::get().numThreadRecords(), RecordsBefore);
  EXPECT_TRUE(Telemetry::get().snapshot().empty());
  EXPECT_EQ(Telemetry::currentPath(), "");
}

//===----------------------------------------------------------------------===//
// Span nesting
//===----------------------------------------------------------------------===//

TEST(Telemetry, SpanPathsNestAndSelfTimeExcludesChildren) {
  TelemetryWindow Window;
  {
    TelemetrySpan Outer("outer");
    EXPECT_EQ(Telemetry::currentPath(), "outer");
    {
      TelemetrySpan Inner("inner");
      EXPECT_EQ(Telemetry::currentPath(), "outer/inner");
      TelemetrySpan Leaf("leaf");
      EXPECT_EQ(Telemetry::currentPath(), "outer/inner/leaf");
    }
    {
      TelemetrySpan Inner("inner"); // Second instance of the same path.
    }
  }
  TelemetrySnapshot Snap = Telemetry::get().snapshot();
  const SpanStat *Outer = Snap.findSpan("outer");
  const SpanStat *Inner = Snap.findSpan("outer/inner");
  const SpanStat *Leaf = Snap.findSpan("outer/inner/leaf");
  ASSERT_NE(Outer, nullptr);
  ASSERT_NE(Inner, nullptr);
  ASSERT_NE(Leaf, nullptr);
  EXPECT_EQ(Outer->Count, 1u);
  EXPECT_EQ(Inner->Count, 2u);
  EXPECT_EQ(Leaf->Count, 1u);
  EXPECT_EQ(Inner->name(), "inner");
  EXPECT_EQ(Inner->parent(), "outer");
  // Same-thread nesting: a child's inclusive time is contained in the
  // parent's, and the parent's self time excludes it.
  EXPECT_LE(Inner->TotalNanos, Outer->TotalNanos);
  EXPECT_LE(Leaf->TotalNanos, Inner->TotalNanos);
  EXPECT_LE(Outer->SelfNanos, Outer->TotalNanos - Inner->TotalNanos);
  EXPECT_LE(Inner->SelfNanos, Inner->TotalNanos);
}

TEST(Telemetry, TaskScopePrefixesRootSpans) {
  TelemetryWindow Window;
  std::thread([] {
    TelemetryTaskScope Scope("pipeline/stage");
    EXPECT_EQ(Telemetry::currentPath(), "pipeline/stage");
    TelemetrySpan Span("work");
    EXPECT_EQ(Telemetry::currentPath(), "pipeline/stage/work");
  }).join();
  TelemetrySnapshot Snap = Telemetry::get().snapshot();
  EXPECT_NE(Snap.findSpan("pipeline/stage/work"), nullptr);
  EXPECT_EQ(Snap.findSpan("work"), nullptr);
}

TEST(Telemetry, PoolTasksInheritSubmitterPath) {
  TelemetryWindow Window;
  {
    TelemetrySpan Stage("stage");
    ThreadPool Pool(3);
    for (int I = 0; I != 8; ++I)
      Pool.submit([] { TelemetrySpan Task("task"); });
    Pool.wait();
  }
  TelemetrySnapshot Snap = Telemetry::get().snapshot();
  const SpanStat *Task = Snap.findSpan("stage/task");
  ASSERT_NE(Task, nullptr);
  EXPECT_EQ(Task->Count, 8u);
  // Pool gauges recorded for the queued tasks.
  EXPECT_EQ(Snap.Gauges.at("pool.tasks"), 8.0);
  EXPECT_GE(Snap.Gauges.at("pool.busy_ns"), 0.0);
  ASSERT_TRUE(Snap.Gauges.count("pool.worker_utilization"));
  EXPECT_GT(Snap.Gauges.at("pool.worker_utilization"), 0.0);
  EXPECT_LE(Snap.Gauges.at("pool.worker_utilization"), 1.0);
}

//===----------------------------------------------------------------------===//
// Merge semantics
//===----------------------------------------------------------------------===//

TEST(Telemetry, MergeAcrossThreadsIsDeterministic) {
  TelemetryWindow Window;
  std::vector<std::thread> Threads;
  for (int T = 0; T != 4; ++T)
    Threads.emplace_back([T] {
      for (int I = 0; I != 100; ++I)
        Telemetry::counterAdd("m.counter", 2);
      Telemetry::gaugeMax("m.max", static_cast<double>(T));
      Telemetry::gaugeSum("m.sum", 1.5);
      for (int I = 0; I != 10; ++I)
        Telemetry::observe("m.hist", static_cast<double>(1 << T));
    });
  for (std::thread &T : Threads)
    T.join();
  TelemetrySnapshot Snap = Telemetry::get().snapshot();
  EXPECT_EQ(Snap.counter("m.counter"), 800u);
  EXPECT_EQ(Snap.Gauges.at("m.max"), 3.0);
  EXPECT_EQ(Snap.Gauges.at("m.sum"), 6.0);
  EXPECT_EQ(Snap.Histograms.at("m.hist").total(), 40u);
}

//===----------------------------------------------------------------------===//
// Jobs invariance of the diff pipeline's metrics
//===----------------------------------------------------------------------===//

/// One instrumented viewsDiff run; returns the snapshot and stores the
/// result's own compare-op total in \p CompareOps.
TelemetrySnapshot diffSnapshot(const Trace &Left, const Trace &Right,
                               unsigned Jobs, uint64_t &CompareOps) {
  Telemetry::get().reset();
  ViewsDiffOptions Options;
  Options.Jobs = Jobs;
  CompareOps = viewsDiff(Left, Right, Options).Stats.CompareOps;
  return Telemetry::get().snapshot();
}

TEST(Telemetry, DiffCountersAndSpanPathsAreJobsInvariant) {
  GeneratorOptions Base;
  Base.OuterIters = 40;
  Base.NumThreads = 3;
  GeneratorOptions Perturbed = Base;
  Perturbed.Perturb = 1;
  auto Strings = std::make_shared<StringInterner>();
  auto Left = compileSource(generateProgram(Base), Strings);
  auto Right = compileSource(generateProgram(Perturbed), Strings);
  ASSERT_TRUE(bool(Left));
  ASSERT_TRUE(bool(Right));
  RunOptions RunOpts;
  Trace L = runProgram(*Left, RunOpts).ExecTrace;
  Trace R = runProgram(*Right, RunOpts).ExecTrace;

  TelemetryWindow Window;
  uint64_t SeqOps = 0, ParOps = 0, Par8Ops = 0;
  TelemetrySnapshot Seq = diffSnapshot(L, R, 1, SeqOps);
  TelemetrySnapshot Par = diffSnapshot(L, R, 4, ParOps);
  TelemetrySnapshot Par8 = diffSnapshot(L, R, 8, Par8Ops);

  // The compare-op counter is the result's own total, and every run
  // reports the worker count it used.
  EXPECT_GT(SeqOps, 0u);
  EXPECT_EQ(Seq.counter("diff.compare_ops"), SeqOps);
  EXPECT_EQ(Par.counter("diff.compare_ops"), ParOps);
  EXPECT_EQ(Par8.counter("diff.compare_ops"), Par8Ops);
  for (const TelemetrySnapshot *Snap : {&Seq, &Par, &Par8}) {
    ASSERT_TRUE(Snap->Gauges.count("diff.effective_jobs"));
    EXPECT_GE(Snap->Gauges.at("diff.effective_jobs"), 1.0);
  }

  // Counters and histogram buckets are deterministic by contract: any
  // --jobs value records identical values.
  ASSERT_FALSE(Seq.Counters.empty());
  EXPECT_EQ(Seq.Counters, Par.Counters);
  EXPECT_EQ(Seq.Counters, Par8.Counters);
  for (const auto &[Name, Hist] : Seq.Histograms) {
    ASSERT_TRUE(Par.Histograms.count(Name)) << Name;
    const Histogram &Other = Par.Histograms.at(Name);
    ASSERT_EQ(Hist.numBuckets(), Other.numBuckets());
    for (size_t I = 0; I != Hist.numBuckets(); ++I)
      EXPECT_EQ(Hist.count(I), Other.count(I)) << Name << " bucket " << I;
  }

  // The stage taxonomy (span path set) is identical too: pool tasks
  // inherit the submitter's path and the sequential path opens the same
  // per-family/per-pair spans.
  auto Paths = [](const TelemetrySnapshot &Snap) {
    std::set<std::string> Result;
    for (const SpanStat &S : Snap.Spans)
      Result.insert(S.Path);
    return Result;
  };
  EXPECT_EQ(Paths(Seq), Paths(Par));
  EXPECT_EQ(Paths(Seq), Paths(Par8));
  // Among them: the family scans, and the merge's two phases — the union
  // of the per-pair results and the refilter of the merged sequences.
  for (const char *Path :
       {"views-diff/web-build/thread", "views-diff/web-build/active-object",
        "views-diff/evaluate/pair", "views-diff/merge",
        "views-diff/merge/union", "views-diff/merge/refilter"})
    EXPECT_TRUE(Paths(Seq).count(Path)) << Path;
}

//===----------------------------------------------------------------------===//
// Trace write and load phases
//===----------------------------------------------------------------------===//

TEST(Telemetry, TraceWriteAndLoadSpansNameTheirPhases) {
  GeneratorOptions G;
  G.OuterIters = 10;
  auto Prog = compileSource(generateProgram(G), nullptr);
  ASSERT_TRUE(bool(Prog));
  Trace T = runProgram(*Prog, RunOptions()).ExecTrace;
  std::string Base = "/tmp/rprism_telemetry_" + std::to_string(::getpid());

  // One write, then two loads: into a fresh interner (symbol identity,
  // zero-copy columns) and into one whose ids are shifted (remap, then
  // re-fingerprint).
  std::string Path = Base + ".rpt";
  TelemetryWindow Window;
  ASSERT_TRUE(writeTrace(T, Path));
  ASSERT_TRUE(bool(readTrace(Path, nullptr)));
  auto Busy = std::make_shared<StringInterner>();
  Busy->intern("an id the file does not expect");
  ASSERT_TRUE(bool(readTrace(Path, Busy)));
  std::remove(Path.c_str());

  TelemetrySnapshot Snap = Telemetry::get().snapshot();
  for (const char *SpanPath :
       {"write", "write/checksum", "write/view-index", "load", "load/checksum",
        "load/intern", "load/validate", "load/remap", "load/fingerprint"}) {
    const SpanStat *S = Snap.findSpan(SpanPath);
    ASSERT_NE(S, nullptr) << SpanPath;
    if (S->parent().empty())
      continue;
    const SpanStat *Parent = Snap.findSpan(S->parent());
    ASSERT_NE(Parent, nullptr) << SpanPath;
    EXPECT_LE(S->TotalNanos, Parent->TotalNanos) << SpanPath;
  }
  // One span covers the whole write, the file's open included.
  EXPECT_EQ(Snap.findSpan("write")->Count, 1u);
  EXPECT_EQ(Snap.findSpan("load")->Count, 2u);
}

TEST(Telemetry, IndexedFilesDiffFromTheirViewIndex) {
  // Diffing two indexed trace files rebuilds both webs from the persisted
  // view index and scans no entries; with the index turned off (`rprism
  // diff-traces --no-view-cache`) both webs come from the scan.
  GeneratorOptions Base;
  Base.OuterIters = 20;
  Base.NumThreads = 2;
  GeneratorOptions Perturbed = Base;
  Perturbed.Perturb = 1;
  auto Strings = std::make_shared<StringInterner>();
  auto LeftProg = compileSource(generateProgram(Base), Strings);
  auto RightProg = compileSource(generateProgram(Perturbed), Strings);
  ASSERT_TRUE(bool(LeftProg) && bool(RightProg));
  std::string Stem = "/tmp/rprism_index_" + std::to_string(::getpid());
  std::string LPath = Stem + "_L.rpt", RPath = Stem + "_R.rpt";
  ASSERT_TRUE(writeTrace(runProgram(*LeftProg, RunOptions()).ExecTrace,
                         LPath));
  ASSERT_TRUE(writeTrace(runProgram(*RightProg, RunOptions()).ExecTrace,
                         RPath));
  auto Loaded = std::make_shared<StringInterner>();
  Expected<Trace> L = readTrace(LPath, Loaded), R = readTrace(RPath, Loaded);
  std::remove(LPath.c_str());
  std::remove(RPath.c_str());
  ASSERT_TRUE(bool(L) && bool(R));

  for (bool UseIndex : {true, false}) {
    SCOPED_TRACE(UseIndex ? "view index" : "scan");
    TelemetryWindow Window;
    ViewsDiffOptions Options;
    Options.Jobs = 1;
    Options.UseViewIndex = UseIndex;
    (void)viewsDiff(*L, *R, Options);
    TelemetrySnapshot Snap = Telemetry::get().snapshot();
    auto Opened = [&Snap](const char *Name) {
      for (const SpanStat &S : Snap.Spans)
        if (S.name() == Name)
          return true;
      return false;
    };
    EXPECT_EQ(Snap.counter("web.from_index"), UseIndex ? 2u : 0u);
    EXPECT_EQ(Opened("view-index"), UseIndex);
    EXPECT_EQ(Opened("web-build"), !UseIndex);
  }
}

TEST(Telemetry, EveryCommandAttributesTeardownToItsOwnSpan) {
  // After the report (or the trace write), each subcommand still destroys
  // its traces, webs, results and interner; that time is its `teardown`
  // span, not unattributed root self time.
  std::string Base = "/tmp/rprism_teardown_" + std::to_string(::getpid());
  {
    std::ofstream Prog(Base + ".rp");
    Prog << "class A { Int x; A(Int x) { this.x = x; } }\n"
            "main { var a = new A(3); print(a.x); }\n";
  }
  std::string Rp = Base + ".rp", Rpt = Base + ".rpt";
  struct Command {
    const char *Name;
    std::string Args;
  } Commands[] = {
      {"run", Rp + " --trace " + Rpt},
      {"diff", Rp + " " + Rp},
      {"diff-traces", Rpt + " " + Rpt},
      {"diff-nway", Rpt + " " + Rpt + " " + Rpt},
      {"analyze", Rp + " " + Rp + " --regr-input u --ok-input u"},
  };
  for (const Command &C : Commands) {
    SCOPED_TRACE(C.Name);
    std::string Cmd = std::string(RPRISM_CLI) + " " + C.Name + " " + C.Args +
                      " --metrics-out " + Base + ".json >/dev/null 2>&1";
    ASSERT_EQ(std::system(Cmd.c_str()), 0) << Cmd;
    std::ifstream In(Base + ".json");
    std::string Json((std::istreambuf_iterator<char>(In)),
                     std::istreambuf_iterator<char>());
    std::string Name = C.Name;
    EXPECT_NE(Json.find("{\"path\": \"" + Name +
                        "/teardown\", \"name\": \"teardown\", "
                        "\"parent\": \"" + Name + "\""),
              std::string::npos)
        << Json;
  }
  for (const char *Ext : {".rp", ".rpt", ".json"})
    std::remove((Base + Ext).c_str());
}

//===----------------------------------------------------------------------===//
// Metrics sink
//===----------------------------------------------------------------------===//

TEST(MetricsSink, JsonCarriesSchemaSpansAndMetrics) {
  TelemetryWindow Window;
  {
    TelemetrySpan Outer("stage");
    TelemetrySpan Inner("sub");
    Telemetry::counterAdd("sink.counter", 7);
    Telemetry::gaugeMax("sink.gauge", 2.5);
    Telemetry::observe("sink.hist", 3.0);
  }
  MetricsRunInfo Info;
  Info.Command = "unit";
  Info.WallNanos = 123;
  std::string Json =
      renderMetricsJson(Telemetry::get().snapshot(), Info);
  EXPECT_NE(Json.find("\"schema\": \"rprism-metrics-v1\""),
            std::string::npos);
  EXPECT_NE(Json.find("\"command\": \"unit\""), std::string::npos);
  EXPECT_NE(Json.find("\"path\": \"stage/sub\""), std::string::npos);
  EXPECT_NE(Json.find("\"sink.counter\": 7"), std::string::npos);
  EXPECT_NE(Json.find("\"sink.gauge\": 2.5"), std::string::npos);
  EXPECT_NE(Json.find("\"le\": \"4\", \"count\": 1"), std::string::npos);

  std::string Table = renderProfileTable(Telemetry::get().snapshot());
  EXPECT_NE(Table.find("stage/sub"), std::string::npos);
  EXPECT_NE(Table.find("sink.counter"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// MemoryAccountant release underflow
//===----------------------------------------------------------------------===//

TEST(MemoryAccountant, ReleaseUnderflowClampsAndCounts) {
#ifdef NDEBUG
  TelemetryWindow Window;
  MemoryAccountant Mem;
  Mem.charge(10);
  Mem.release(25); // More than outstanding: clamp + count, no wraparound.
  EXPECT_EQ(Mem.currentBytes(), 0u);
  EXPECT_EQ(Mem.underflows(), 1u);
  EXPECT_EQ(Telemetry::get().snapshot().counter("mem.release_underflows"),
            1u);
  Mem.charge(5);
  Mem.release(5);
  EXPECT_EQ(Mem.underflows(), 1u); // Balanced pairs don't count.
#else
  GTEST_SKIP() << "debug builds assert on release underflow";
#endif
}

} // namespace
