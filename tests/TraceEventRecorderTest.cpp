//===- tests/TraceEventRecorderTest.cpp - Timeline + metrics-diff tests ---===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//

#include "diff/ViewsDiff.h"
#include "runtime/Compiler.h"
#include "runtime/Vm.h"
#include "support/Histogram.h"
#include "support/Json.h"
#include "support/MetricsDiff.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"
#include "support/TraceEventRecorder.h"
#include "workload/Generator.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <thread>

using namespace rprism;

namespace {

/// Arms the recorder over a fresh window for one test; disarms on exit so
/// other tests record nothing.
struct RecorderWindow {
  explicit RecorderWindow(TraceEventRecorderOptions Options = {}) {
    TraceEventRecorder::get().arm(Options);
  }
  ~RecorderWindow() { TraceEventRecorder::get().disarm(); }
};

/// Sampler off by default in tests: event sets stay deterministic.
TraceEventRecorderOptions noSampler() {
  TraceEventRecorderOptions Options;
  Options.SamplePeriodMicros = 0;
  return Options;
}

struct TracePair {
  std::shared_ptr<StringInterner> Strings;
  Trace Left;
  Trace Right;
};

TracePair makePair(unsigned OuterIters) {
  GeneratorOptions Base;
  Base.OuterIters = OuterIters;
  Base.NumThreads = 3;
  GeneratorOptions Perturbed = Base;
  Perturbed.Perturb = 1;

  TracePair Pair;
  Pair.Strings = std::make_shared<StringInterner>();
  auto Left = compileSource(generateProgram(Base), Pair.Strings);
  auto Right = compileSource(generateProgram(Perturbed), Pair.Strings);
  EXPECT_TRUE(bool(Left));
  EXPECT_TRUE(bool(Right));
  RunOptions RunOpts;
  Pair.Left = runProgram(*Left, RunOpts).ExecTrace;
  Pair.Right = runProgram(*Right, RunOpts).ExecTrace;
  return Pair;
}

/// Parses the recorder's export and returns the traceEvents array.
JsonValue parseTrace(const std::string &Text,
                     const JsonValue **EventsOut = nullptr) {
  Expected<JsonValue> Doc = parseJson(Text);
  EXPECT_TRUE(bool(Doc)) << (Doc ? "" : Doc.error().render());
  if (!Doc)
    return JsonValue();
  const JsonValue *Events = Doc->find("traceEvents");
  EXPECT_NE(Events, nullptr);
  EXPECT_TRUE(Events && Events->isArray());
  if (EventsOut)
    *EventsOut = nullptr; // Caller must re-find on the returned copy.
  return Doc.take();
}

//===----------------------------------------------------------------------===//
// Disarmed mode
//===----------------------------------------------------------------------===//

TEST(TraceEventRecorder, DisarmedEmitsNothingAndRegistersNoRing) {
  TraceEventRecorder &R = TraceEventRecorder::get();
  R.disarm();
  uint64_t EventsBefore = R.eventCount();
  size_t RingsBefore = R.numThreadBuffers();

  // A brand-new thread exercising every entry point while disarmed must
  // not register a ring (the zero-allocation contract).
  std::thread([] {
    TraceEventRecorder::begin("x");
    TraceEventRecorder::end("x");
    TraceEventRecorder::instant("mark");
    TraceEventRecorder::counter("c", 1.0);
    uint64_t Id = TraceEventRecorder::flowBegin("f");
    EXPECT_EQ(Id, 0u);
    TraceEventRecorder::flowEnd("f", Id);
    TraceEventRecorder::setThreadName("ghost");
    TraceEventRecorder::poolQueueAdd(1);
  }).join();

  EXPECT_EQ(R.eventCount(), EventsBefore);
  EXPECT_EQ(R.numThreadBuffers(), RingsBefore);
}

TEST(TraceEventRecorder, SpansEmitNoEventsWhenDisarmed) {
  TraceEventRecorder &R = TraceEventRecorder::get();
  R.disarm();
  // Spans must not leave timeline events behind even with telemetry on.
  Telemetry::get().setEnabled(true);
  uint64_t Before = R.eventCount();
  {
    TelemetrySpan Outer("outer");
    TelemetrySpan Inner("inner");
  }
  Telemetry::get().setEnabled(false);
  Telemetry::get().reset();
  EXPECT_EQ(R.eventCount(), Before);
}

//===----------------------------------------------------------------------===//
// Export structure
//===----------------------------------------------------------------------===//

TEST(TraceEventRecorder, ExportParsesAndEventsCarryRequiredFields) {
  {
    RecorderWindow Window(noSampler());
    TelemetrySpan Outer("outer");
    {
      TelemetrySpan Inner("inner");
    }
    TraceEventRecorder::instant("mark");
    TraceEventRecorder::counter("depth", 2.0);
  }
  std::string Text = TraceEventRecorder::get().renderChromeTrace();
  JsonValue Doc = parseTrace(Text);
  const JsonValue *Events = Doc.find("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_TRUE(Events->isArray());
  EXPECT_GE(Events->array().size(), 5u); // metadata + B/E/B/E + i + C

  std::set<std::string> Phases;
  for (const JsonValue &E : Events->array()) {
    // Every event carries ph/pid/tid; non-metadata events carry ts too.
    const JsonValue *Ph = E.find("ph");
    ASSERT_NE(Ph, nullptr);
    ASSERT_TRUE(Ph->isString());
    EXPECT_NE(E.find("pid"), nullptr);
    EXPECT_NE(E.find("tid"), nullptr);
    if (Ph->str() != "M") {
      const JsonValue *Ts = E.find("ts");
      ASSERT_NE(Ts, nullptr);
      EXPECT_TRUE(Ts->isNumber());
      EXPECT_GE(Ts->number(), 0.0);
    }
    Phases.insert(Ph->str());
  }
  EXPECT_TRUE(Phases.count("M"));
  EXPECT_TRUE(Phases.count("B"));
  EXPECT_TRUE(Phases.count("E"));
  EXPECT_TRUE(Phases.count("i"));
  EXPECT_TRUE(Phases.count("C"));

  // A counter event carries args.value.
  for (const JsonValue &E : Events->array())
    if (E.stringOr("ph", "") == "C") {
      const JsonValue *ArgsV = E.find("args");
      ASSERT_NE(ArgsV, nullptr);
      EXPECT_EQ(ArgsV->numberOr("value", -1), 2.0);
    }
}

TEST(TraceEventRecorder, BeginEndNestingBalancesPerThread) {
  TracePair Pair = makePair(30);
  {
    RecorderWindow Window(noSampler());
    ViewsDiffOptions Options;
    Options.Jobs = 4;
    viewsDiff(Pair.Left, Pair.Right, Options);
  }
  std::string Text = TraceEventRecorder::get().renderChromeTrace();
  JsonValue Doc = parseTrace(Text);
  const JsonValue *Events = Doc.find("traceEvents");
  ASSERT_NE(Events, nullptr);

  // Per thread lane: stack depth from B/E never goes negative and ends
  // balanced (the run quiesced before disarm, and no ring overflowed).
  EXPECT_EQ(TraceEventRecorder::get().droppedCount(), 0u);
  std::map<double, int> Depth;
  for (const JsonValue &E : Events->array()) {
    std::string Ph = E.stringOr("ph", "");
    double Tid = E.numberOr("tid", -1);
    if (Ph == "B")
      ++Depth[Tid];
    else if (Ph == "E") {
      --Depth[Tid];
      EXPECT_GE(Depth[Tid], 0) << "unbalanced E on tid " << Tid;
    }
  }
  for (const auto &[Tid, D] : Depth)
    EXPECT_EQ(D, 0) << "unclosed B on tid " << Tid;
}

TEST(TraceEventRecorder, StageEventSetIsJobsInvariant) {
  TracePair Pair = makePair(30);
  // The slice *name set* (cat != pool/flow: the stage taxonomy) must be
  // identical for every jobs value; pool slices exist only when a pool
  // does, and timestamps/lanes legitimately differ.
  auto StageNames = [&](unsigned Jobs) {
    TraceEventRecorder::get().arm(noSampler());
    ViewsDiffOptions Options;
    Options.Jobs = Jobs;
    viewsDiff(Pair.Left, Pair.Right, Options);
    TraceEventRecorder::get().disarm();
    std::string Text = TraceEventRecorder::get().renderChromeTrace();
    JsonValue Doc = parseTrace(Text);
    std::set<std::string> Names;
    const JsonValue *Events = Doc.find("traceEvents");
    if (!Events)
      return Names;
    for (const JsonValue &E : Events->array()) {
      std::string Cat = E.stringOr("cat", "");
      if (E.stringOr("ph", "") == "B" && Cat != "pool" && Cat != "flow")
        Names.insert(E.stringOr("name", ""));
    }
    return Names;
  };
  std::set<std::string> Jobs1 = StageNames(1);
  std::set<std::string> Jobs4 = StageNames(4);
  std::set<std::string> Jobs8 = StageNames(8);
  EXPECT_FALSE(Jobs1.empty());
  EXPECT_EQ(Jobs1, Jobs4);
  EXPECT_EQ(Jobs4, Jobs8);
}

TEST(TraceEventRecorder, RingOverflowDropsOldestAndStillRenders) {
  TraceEventRecorderOptions Options;
  Options.RingCapacity = 16;
  Options.SamplePeriodMicros = 0;
  {
    RecorderWindow Window(Options);
    for (int I = 0; I != 100; ++I)
      TraceEventRecorder::instant("spin");
  }
  TraceEventRecorder &R = TraceEventRecorder::get();
  EXPECT_GT(R.droppedCount(), 0u);
  EXPECT_LE(R.eventCount(), 16u + 1u); // +1: arm() names this thread later?
  std::string Text = R.renderChromeTrace();
  JsonValue Doc = parseTrace(Text);
  // The drop count is surfaced in otherData.
  const JsonValue *Other = Doc.find("otherData");
  ASSERT_NE(Other, nullptr);
  EXPECT_GT(Other->numberOr("dropped_events", 0), 0.0);
}

TEST(TraceEventRecorder, PoolFlowEventsPairAcrossThreads) {
  {
    RecorderWindow Window(noSampler());
    ThreadPool Pool(2);
    for (int I = 0; I != 16; ++I)
      Pool.submit([] {});
    Pool.wait();
  }
  std::string Text = TraceEventRecorder::get().renderChromeTrace();
  JsonValue Doc = parseTrace(Text);
  const JsonValue *Events = Doc.find("traceEvents");
  ASSERT_NE(Events, nullptr);

  std::map<double, int> Starts, Ends;
  size_t PoolSlices = 0;
  for (const JsonValue &E : Events->array()) {
    std::string Ph = E.stringOr("ph", "");
    if (Ph == "s")
      ++Starts[E.numberOr("id", 0)];
    else if (Ph == "f") {
      ++Ends[E.numberOr("id", 0)];
      EXPECT_EQ(E.stringOr("bp", ""), "e");
    } else if (Ph == "B" && E.stringOr("cat", "") == "pool")
      ++PoolSlices;
  }
  EXPECT_EQ(Starts.size(), 16u);
  EXPECT_EQ(PoolSlices, 16u);
  for (const auto &[Id, N] : Starts) {
    EXPECT_EQ(N, 1) << "flow id " << Id << " started twice";
    EXPECT_EQ(Ends[Id], 1) << "flow id " << Id << " unmatched";
  }
}

TEST(TraceEventRecorder, InlinePoolEmitsNoFlowEvents) {
  {
    RecorderWindow Window(noSampler());
    ThreadPool Pool(1); // Inline mode: no cross-thread handoff to stitch.
    for (int I = 0; I != 4; ++I)
      Pool.submit([] {});
    Pool.wait();
  }
  std::string Text = TraceEventRecorder::get().renderChromeTrace();
  JsonValue Doc = parseTrace(Text);
  const JsonValue *Events = Doc.find("traceEvents");
  ASSERT_NE(Events, nullptr);
  for (const JsonValue &E : Events->array()) {
    EXPECT_NE(E.stringOr("ph", ""), "s");
    EXPECT_NE(E.stringOr("ph", ""), "f");
  }
}

TEST(TraceEventRecorder, SamplerEmitsCounterTracks) {
  TraceEventRecorder &R = TraceEventRecorder::get();
  TraceEventRecorderOptions Options;
  Options.SamplePeriodMicros = 500;
  {
    RecorderWindow Window(Options);
    // The first tick fires immediately on arm; give periodic ticks a
    // moment too.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::string Text = R.renderChromeTrace();
  JsonValue Doc = parseTrace(Text);
  const JsonValue *Events = Doc.find("traceEvents");
  ASSERT_NE(Events, nullptr);

  std::set<std::string> CounterNames;
  std::set<std::string> ThreadNames;
  for (const JsonValue &E : Events->array()) {
    if (E.stringOr("ph", "") == "C")
      CounterNames.insert(E.stringOr("name", ""));
    if (E.stringOr("ph", "") == "M" &&
        E.stringOr("name", "") == "thread_name")
      if (const JsonValue *ArgsV = E.find("args"))
        ThreadNames.insert(ArgsV->stringOr("name", ""));
  }
  EXPECT_TRUE(CounterNames.count("pool.queue_depth"));
#if defined(__linux__)
  EXPECT_TRUE(CounterNames.count("rss_bytes"));
#endif
#if defined(__unix__)
  EXPECT_TRUE(CounterNames.count("cpu_time_ms"));
#endif
  EXPECT_TRUE(ThreadNames.count("main"));
  EXPECT_TRUE(ThreadNames.count("sampler"));
}

//===----------------------------------------------------------------------===//
// Json parser
//===----------------------------------------------------------------------===//

TEST(Json, ParsesScalarsArraysAndObjects) {
  Expected<JsonValue> Doc = parseJson(
      " {\"a\": [1, 2.5, -3e2], \"b\": {\"c\": true, \"d\": null}, "
      "\"s\": \"x\\n\\u0041\"} ");
  ASSERT_TRUE(bool(Doc));
  const JsonValue *A = Doc->find("a");
  ASSERT_NE(A, nullptr);
  ASSERT_TRUE(A->isArray());
  ASSERT_EQ(A->array().size(), 3u);
  EXPECT_EQ(A->array()[0].number(), 1.0);
  EXPECT_EQ(A->array()[1].number(), 2.5);
  EXPECT_EQ(A->array()[2].number(), -300.0);
  const JsonValue *B = Doc->find("b");
  ASSERT_NE(B, nullptr);
  EXPECT_TRUE(B->find("c")->boolean());
  EXPECT_TRUE(B->find("d")->isNull());
  EXPECT_EQ(Doc->stringOr("s", ""), "x\nA");
  EXPECT_EQ(Doc->find("missing"), nullptr);
}

TEST(Json, RejectsMalformedDocuments) {
  const char *Bad[] = {
      "",          "{",         "[1,]",      "{\"a\" 1}",  "{\"a\": 1} x",
      "\"unterminated", "{\"a\": tru}", "[1, 2,,]", "nul",  "\"bad\\q\"",
  };
  for (const char *Text : Bad) {
    Expected<JsonValue> Doc = parseJson(Text);
    EXPECT_FALSE(bool(Doc)) << "accepted: " << Text;
    if (!Doc) {
      EXPECT_EQ(Doc.error().Class, ErrClass::Corrupt);
    }
  }
}

TEST(Json, RejectsDepthBombs) {
  std::string Deep(1000, '[');
  Deep += std::string(1000, ']');
  EXPECT_FALSE(bool(parseJson(Deep)));
}

//===----------------------------------------------------------------------===//
// Histogram quantiles
//===----------------------------------------------------------------------===//

TEST(Histogram, QuantilesReturnBucketBounds) {
  Histogram H = makePow2Histogram();
  // 90 values in the <=4 bucket, 10 in the <=16 bucket.
  for (int I = 0; I != 90; ++I)
    H.add(3);
  for (int I = 0; I != 10; ++I)
    H.add(11);
  EXPECT_EQ(H.quantile(0.50), 4.0);
  EXPECT_EQ(H.quantile(0.90), 4.0);
  EXPECT_EQ(H.quantile(0.95), 16.0);
  EXPECT_EQ(H.quantile(0.99), 16.0);
  EXPECT_EQ(H.quantile(1.0), 16.0);
  EXPECT_EQ(H.quantile(0.0), 4.0); // Min rank 1: the first bucket.
}

TEST(Histogram, QuantileOfEmptyHistogramIsZero) {
  Histogram H = makePow2Histogram();
  EXPECT_EQ(H.quantile(0.5), 0.0);
}

//===----------------------------------------------------------------------===//
// MetricsDiff
//===----------------------------------------------------------------------===//

std::string metricsDoc(uint64_t CompareOps, double PoolBusy,
                       uint64_t HistTotal) {
  return "{\"schema\": \"rprism-metrics-v1\", \"tool\": \"t\", "
         "\"command\": \"c\", \"wall_ns\": 1000, \"spans\": [], "
         "\"counters\": {\"diff.compare_ops\": " +
         std::to_string(CompareOps) +
         "}, \"gauges\": {\"pool.busy_ns\": " + std::to_string(PoolBusy) +
         "}, \"histograms\": {\"seq\": {\"total\": " +
         std::to_string(HistTotal) +
         ", \"p50\": 4, \"p95\": 16, \"p99\": 16, \"buckets\": []}}}";
}

TEST(MetricsDiff, IdenticalDocumentsPass) {
  std::string Doc = metricsDoc(100, 5.0, 7);
  Expected<MetricsDiffResult> R = diffMetricsJson(Doc, Doc, {});
  ASSERT_TRUE(bool(R));
  EXPECT_FALSE(R->regressed());
  EXPECT_EQ(R->RegressedCount, 0u);
  EXPECT_TRUE(R->Missing.empty());
}

TEST(MetricsDiff, CounterGrowthRegressesAtZeroTolerance) {
  Expected<MetricsDiffResult> R =
      diffMetricsJson(metricsDoc(100, 5.0, 7), metricsDoc(101, 5.0, 7), {});
  ASSERT_TRUE(bool(R));
  EXPECT_TRUE(R->regressed());
  ASSERT_EQ(R->RegressedCount, 1u);
  for (const MetricDelta &D : R->Deltas)
    if (D.Regressed) {
      EXPECT_EQ(D.Name, "diff.compare_ops");
    }
}

TEST(MetricsDiff, ToleranceBandAbsorbsSmallGrowth) {
  MetricsDiffOptions Options;
  Options.Rules.push_back({"diff.compare_ops", 5.0});
  Expected<MetricsDiffResult> R = diffMetricsJson(
      metricsDoc(100, 5.0, 7), metricsDoc(104, 5.0, 7), Options);
  ASSERT_TRUE(bool(R));
  EXPECT_FALSE(R->regressed());
  // Beyond the band it regresses again.
  R = diffMetricsJson(metricsDoc(100, 5.0, 7), metricsDoc(106, 5.0, 7),
                      Options);
  ASSERT_TRUE(bool(R));
  EXPECT_TRUE(R->regressed());
}

TEST(MetricsDiff, DecreasesPassUnlessTwoSided) {
  Expected<MetricsDiffResult> R =
      diffMetricsJson(metricsDoc(100, 5.0, 7), metricsDoc(90, 5.0, 7), {});
  ASSERT_TRUE(bool(R));
  EXPECT_FALSE(R->regressed()) << "an improvement is not a regression";

  MetricsDiffOptions TwoSided;
  TwoSided.TwoSided = true;
  R = diffMetricsJson(metricsDoc(100, 5.0, 7), metricsDoc(90, 5.0, 7),
                      TwoSided);
  ASSERT_TRUE(bool(R));
  EXPECT_TRUE(R->regressed());
}

TEST(MetricsDiff, GaugesSkippedByDefaultButGateWithTolerance) {
  // A 10x gauge change passes silently by default (timing-class)...
  Expected<MetricsDiffResult> R =
      diffMetricsJson(metricsDoc(100, 5.0, 7), metricsDoc(100, 50.0, 7), {});
  ASSERT_TRUE(bool(R));
  EXPECT_FALSE(R->regressed());
  // ...and regresses once a gauge tolerance is set.
  MetricsDiffOptions Options;
  Options.GaugeTolerancePct = 100;
  R = diffMetricsJson(metricsDoc(100, 5.0, 7), metricsDoc(100, 50.0, 7),
                      Options);
  ASSERT_TRUE(bool(R));
  EXPECT_TRUE(R->regressed());
}

TEST(MetricsDiff, HistogramQuantilesAndTotalsGate) {
  Expected<MetricsDiffResult> R =
      diffMetricsJson(metricsDoc(100, 5.0, 7), metricsDoc(100, 5.0, 9), {});
  ASSERT_TRUE(bool(R));
  EXPECT_TRUE(R->regressed());
  for (const MetricDelta &D : R->Deltas)
    if (D.Regressed) {
      EXPECT_EQ(D.Name, "histogram.seq.total");
    }
}

TEST(MetricsDiff, MissingMetricGatesOnlyWithFailOnMissing) {
  std::string Base =
      "{\"schema\": \"rprism-metrics-v1\", \"counters\": {\"a\": 1, "
      "\"b\": 2}, \"gauges\": {}, \"histograms\": {}}";
  std::string Cur =
      "{\"schema\": \"rprism-metrics-v1\", \"counters\": {\"a\": 1}, "
      "\"gauges\": {}, \"histograms\": {}}";
  Expected<MetricsDiffResult> R = diffMetricsJson(Base, Cur, {});
  ASSERT_TRUE(bool(R));
  EXPECT_FALSE(R->regressed());
  ASSERT_EQ(R->Missing.size(), 1u);
  EXPECT_EQ(R->Missing[0], "b");

  MetricsDiffOptions Options;
  Options.FailOnMissing = true;
  R = diffMetricsJson(Base, Cur, Options);
  ASSERT_TRUE(bool(R));
  EXPECT_TRUE(R->regressed());
}

TEST(MetricsDiff, WildcardRulesMatchByPrefixFirstWins) {
  MetricsDiffOptions Options;
  Options.Rules.push_back({"histogram.*", -1}); // Skip all histogram metrics.
  Expected<MetricsDiffResult> R =
      diffMetricsJson(metricsDoc(100, 5.0, 7), metricsDoc(100, 5.0, 999),
                      Options);
  ASSERT_TRUE(bool(R));
  EXPECT_FALSE(R->regressed());
}

TEST(MetricsDiff, RejectsGarbageAndWrongSchema) {
  Expected<MetricsDiffResult> R =
      diffMetricsJson("not json", metricsDoc(1, 1, 1), {});
  ASSERT_FALSE(bool(R));
  EXPECT_EQ(R.error().Class, ErrClass::Corrupt);

  R = diffMetricsJson("{\"schema\": \"something-else\"}",
                      metricsDoc(1, 1, 1), {});
  ASSERT_FALSE(bool(R));
  EXPECT_EQ(R.error().Class, ErrClass::Corrupt);
}

} // namespace
