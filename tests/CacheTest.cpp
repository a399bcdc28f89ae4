//===- tests/CacheTest.cpp - View-index persistence and DiffCache tests ---===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the two warm-path contracts of the repeat-diff machinery:
///
///   1. A view web reconstructed from a trace's ViewIndex — computed in
///      memory or round-tripped through a trace file — and one built by
///      scanning the entries both match the Fig. 7 reference partition of
///      ViewOracle.h (randomized over generated workloads), and damaged
///      index sections are rejected, never half-used.
///   2. DiffCache returns the exact web it built for a trace (hits
///      observable via counters), and cachedViewsDiff produces
///      byte-identical reports and identical compare-op totals across
///      {cold, warm, uncached} × jobs values.
///
//===----------------------------------------------------------------------===//

#include "TraceFileLayout.h"
#include "ViewOracle.h"

#include "cache/DiffCache.h"
#include "runtime/Compiler.h"
#include "runtime/Vm.h"
#include "support/Telemetry.h"
#include "trace/Serialize.h"
#include "trace/ViewIndex.h"
#include "workload/Generator.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <random>

using namespace rprism;
using namespace tracelayout;

namespace {

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

std::string tempPath(const std::string &Tag) {
  return "/tmp/rprism_cachetest_" + Tag + "_" + std::to_string(::getpid());
}

/// Counter window: counters are only recorded while telemetry is enabled.
struct TelemetryWindow {
  TelemetryWindow() {
    Telemetry::get().reset();
    Telemetry::get().setEnabled(true);
  }
  ~TelemetryWindow() {
    Telemetry::get().setEnabled(false);
    Telemetry::get().reset();
  }
  uint64_t counter(const char *Name) const {
    return Telemetry::get().snapshot().counter(Name);
  }
};

/// Structural equality of two webs over the same trace: same views in the
/// same order with the same identities and entry lists.
void expectWebsEqual(const ViewWeb &A, const ViewWeb &B) {
  ASSERT_EQ(A.numViews(), B.numViews());
  for (uint32_t Id = 0; Id != A.numViews(); ++Id) {
    const View &VA = A.view(Id);
    const View &VB = B.view(Id);
    EXPECT_EQ(VA.Type, VB.Type) << "view " << Id;
    EXPECT_EQ(VA.Id, VB.Id) << "view " << Id;
    EXPECT_EQ(VA.Tid, VB.Tid) << "view " << Id;
    EXPECT_EQ(VA.MethodName.Id, VB.MethodName.Id) << "view " << Id;
    EXPECT_EQ(VA.Loc, VB.Loc) << "view " << Id;
    // Both builds copy the endpoint representations out of the same
    // columns, so they must agree bit for bit (ObjRepr is a packed POD).
    EXPECT_EQ(0, std::memcmp(&VA.FirstRepr, &VB.FirstRepr, sizeof(ObjRepr)))
        << "view " << Id;
    EXPECT_EQ(0, std::memcmp(&VA.LastRepr, &VB.LastRepr, sizeof(ObjRepr)))
        << "view " << Id;
    ASSERT_EQ(VA.Entries.size(), VB.Entries.size()) << "view " << Id;
    EXPECT_TRUE(std::equal(VA.Entries.begin(), VA.Entries.end(),
                           VB.Entries.begin()))
        << "view " << Id;
  }
  EXPECT_EQ(A.numThreadViews(), B.numThreadViews());
  EXPECT_EQ(A.numMethodViews(), B.numMethodViews());
  EXPECT_EQ(A.numTargetObjectViews(), B.numTargetObjectViews());
  EXPECT_EQ(A.numActiveObjectViews(), B.numActiveObjectViews());
}

/// A generated-workload trace for one drawn configuration.
Trace generatedTrace(std::mt19937_64 &Rng,
                     std::shared_ptr<StringInterner> Strings = nullptr) {
  return traceOf(generateProgram(vieworacle::drawGeneratorOptions(Rng)),
                 std::move(Strings));
}

const char *ObjectsProgram = R"(
  class Acc {
    Int total;
    Acc(Int start) { this.total = start; }
    Int add(Int v) { this.total = this.total + v; return this.total; }
  }
  main {
    var a = new Acc(0);
    var b = new Acc(10);
    a.add(1); b.add(2); a.add(3);
    print(a.total + b.total);
  }
)";

//===----------------------------------------------------------------------===//
// Property: scanned and index-reconstructed webs match the Fig. 7 oracle
//===----------------------------------------------------------------------===//

TEST(ViewIndexProperty, ReconstructedWebMatchesFreshBuild) {
  // Randomized but reproducible: each drawn workload varies classes,
  // iterations, thread count, perturbation, and reordering.
  std::mt19937_64 Rng(20260807);
  for (int Round = 0; Round != 8; ++Round) {
    Trace T = generatedTrace(Rng);
    ASSERT_GT(T.size(), 0u) << "round " << Round;
    T.ViewIdx = computeViewIndex(T);
    ASSERT_TRUE(T.ViewIdx.Present);
    EXPECT_TRUE(viewIndexIsValid(T.ViewIdx, T.size())) << "round " << Round;

    std::string Label = "round " + std::to_string(Round);
    ViewWeb Fresh(T, nullptr, /*UseIndex=*/false);
    ViewWeb FromIndex(T, nullptr, /*UseIndex=*/true);
    vieworacle::expectWebMatchesOracle(Fresh, Label + " scanned");
    vieworacle::expectWebMatchesOracle(FromIndex, Label + " from index");
  }
}

TEST(ViewIndexProperty, RoundTripThroughTraceFileMatchesFreshBuild) {
  std::mt19937_64 Rng(42);
  for (int Round = 0; Round != 4; ++Round) {
    Trace T = generatedTrace(Rng);
    std::string Path = tempPath("prop_" + std::to_string(Round));
    ASSERT_TRUE(writeTrace(T, Path));

    Expected<Trace> Loaded = readTrace(Path, nullptr);
    ASSERT_TRUE(bool(Loaded)) << Loaded.error().render();
    ASSERT_TRUE(Loaded->ViewIdx.Present);
    EXPECT_TRUE(viewIndexIsValid(Loaded->ViewIdx, Loaded->size()));

    std::string Label = "round " + std::to_string(Round);
    ViewWeb Fresh(*Loaded, nullptr, /*UseIndex=*/false);
    ViewWeb FromIndex(*Loaded, nullptr, /*UseIndex=*/true);
    vieworacle::expectWebMatchesOracle(Fresh, Label + " scanned");
    vieworacle::expectWebMatchesOracle(FromIndex, Label + " from index");
    std::remove(Path.c_str());
  }
}

TEST(ViewIndexProperty, IndexSurvivesSymbolRemapIntoBusyInterner) {
  Trace T = traceOf(ObjectsProgram);
  std::string Path = tempPath("remap");
  ASSERT_TRUE(writeTrace(T, Path));
  // A pre-occupied interner shifts every symbol id: the loader takes the
  // remap path, rewrites the index's method-view keys, and the
  // reconstructed web must still match the oracle over the remapped
  // columns.
  auto Busy = std::make_shared<StringInterner>();
  Busy->intern("occupying-symbol-id-one");
  Busy->intern("occupying-symbol-id-two");
  Expected<Trace> Loaded = readTrace(Path, Busy);
  ASSERT_TRUE(bool(Loaded)) << Loaded.error().render();
  ASSERT_TRUE(Loaded->ViewIdx.Present);

  ViewWeb Fresh(*Loaded, nullptr, /*UseIndex=*/false);
  ViewWeb FromIndex(*Loaded, nullptr, /*UseIndex=*/true);
  vieworacle::expectWebMatchesOracle(Fresh, "remapped, scanned");
  vieworacle::expectWebMatchesOracle(FromIndex, "remapped, from index");
  std::remove(Path.c_str());
}

TEST(ViewIndexProperty, AppendingInvalidatesTheIndex) {
  Trace T = traceOf(ObjectsProgram);
  T.ViewIdx = computeViewIndex(T);
  ASSERT_TRUE(T.ViewIdx.Present);
  // Any append makes the index stale; the trace must drop it rather than
  // let a web be reconstructed without the new entries.
  T.append(T.entry(0));
  EXPECT_FALSE(T.ViewIdx.Present);
}

//===----------------------------------------------------------------------===//
// Serialization: optional sections, rejection of damage
//===----------------------------------------------------------------------===//

TEST(ViewIndexSerialize, FileWithoutIndexLoadsWithNoIndex) {
  Trace T = traceOf(ObjectsProgram);
  std::string Path = tempPath("noindex");
  ASSERT_TRUE(writeTrace(T, Path, /*WithViewIndex=*/false));
  Expected<Trace> Loaded = readTrace(Path, nullptr);
  ASSERT_TRUE(bool(Loaded)) << Loaded.error().render();
  EXPECT_FALSE(Loaded->ViewIdx.Present);
  // The cold path still works and web-building is unaffected.
  ViewWeb Fresh(T, nullptr, /*UseIndex=*/false);
  ViewWeb Web(*Loaded);
  expectWebsEqual(Fresh, Web);
  std::remove(Path.c_str());
}

TEST(ViewIndexSerialize, IndexedFileIsBiggerButSameTrace) {
  Trace T = traceOf(ObjectsProgram);
  std::string WithPath = tempPath("with_idx");
  std::string WithoutPath = tempPath("without_idx");
  ASSERT_TRUE(writeTrace(T, WithPath, /*WithViewIndex=*/true));
  ASSERT_TRUE(writeTrace(T, WithoutPath, /*WithViewIndex=*/false));

  auto FileSize = [](const std::string &P) -> long {
    std::FILE *F = std::fopen(P.c_str(), "rb");
    EXPECT_TRUE(F != nullptr);
    std::fseek(F, 0, SEEK_END);
    long Size = std::ftell(F);
    std::fclose(F);
    return Size;
  };
  EXPECT_GT(FileSize(WithPath), FileSize(WithoutPath));

  Expected<Trace> A = readTrace(WithPath, nullptr);
  Expected<Trace> B = readTrace(WithoutPath, nullptr);
  ASSERT_TRUE(bool(A) && bool(B));
  ASSERT_EQ(A->size(), B->size());
  for (uint32_t Eid = 0; Eid != A->size(); ++Eid)
    EXPECT_EQ(A->renderEntry(Eid), B->renderEntry(Eid));
  std::remove(WithPath.c_str());
  std::remove(WithoutPath.c_str());
}

TEST(ViewIndexSerialize, CorruptIndexPayloadDegradesToColumnRebuild) {
  Trace T = traceOf(ObjectsProgram);
  std::string Path = tempPath("badidx");
  ASSERT_TRUE(writeTrace(T, Path));
  // Flipping the last byte of the view-entries payload trips the section
  // checksum. The index is derived data: the load must succeed without it
  // (first rung of the degradation ladder) and count the drop.
  std::vector<uint8_t> Bytes = readAll(Path);
  SectionRec Entries = section(Bytes, 23);
  ASSERT_GT(Entries.Length, 0u);
  Bytes[static_cast<size_t>(Entries.Offset + Entries.Length - 1)] ^= 0xff;
  ASSERT_TRUE(writeAll(Path, Bytes));

  TelemetryWindow W;
  TraceReadReport Report;
  Expected<Trace> Loaded = readTrace(Path, nullptr, &Report);
  ASSERT_TRUE(bool(Loaded)) << Loaded.error().render();
  EXPECT_FALSE(Loaded->ViewIdx.Present);
  EXPECT_TRUE(Report.ViewIndexDropped);
  EXPECT_FALSE(Report.FingerprintsDropped);
  EXPECT_EQ(W.counter("robust.view_index_dropped"), 1u);
  // The web rebuilt from the columns matches a fresh build exactly.
  ViewWeb Fresh(T, nullptr, /*UseIndex=*/false);
  ViewWeb Web(*Loaded);
  expectWebsEqual(Fresh, Web);
  std::remove(Path.c_str());
}

TEST(ViewIndexSerialize, MetaWithoutEntriesDropsIndex) {
  Trace T = traceOf(ObjectsProgram);
  std::string Path = tempPath("halfidx");
  ASSERT_TRUE(writeTrace(T, Path));

  // Rewrite the view-entries section record's id (23) to an unknown id:
  // the reader skips unknown sections for forward compatibility, so it
  // sees view-meta without view-entries — a structurally damaged index,
  // which must be dropped whole, never half-used. The header checksum
  // seals the section table, so it is resealed to let the edit through.
  std::vector<uint8_t> Bytes = readAll(Path);
  SectionRec Entries = section(Bytes, 23);
  ASSERT_EQ(Entries.Id, 23u) << "view-entries section not found";
  storeLE<uint32_t>(Bytes.data() + Entries.RecordPos, 63);
  ASSERT_TRUE(resealHeader(Bytes));
  ASSERT_TRUE(writeAll(Path, Bytes));

  TelemetryWindow W;
  TraceReadReport Report;
  Expected<Trace> Loaded = readTrace(Path, nullptr, &Report);
  ASSERT_TRUE(bool(Loaded)) << Loaded.error().render();
  EXPECT_FALSE(Loaded->ViewIdx.Present);
  EXPECT_TRUE(Report.ViewIndexDropped);
  EXPECT_EQ(W.counter("robust.view_index_dropped"), 1u);
  EXPECT_EQ(Loaded->size(), T.size());
  std::remove(Path.c_str());
}

TEST(ViewIndexSerialize, TruncatedIndexedFiles) {
  Trace T = traceOf(ObjectsProgram);
  std::string Path = tempPath("truncidx");
  ASSERT_TRUE(writeTrace(T, Path));
  std::vector<uint8_t> Bytes = readAll(Path);
  SectionRec Entries = section(Bytes, 23);
  ASSERT_GT(Entries.Length, 8u);
  long IndexEnd = static_cast<long>(Entries.Offset + Entries.Length);
  long Size = static_cast<long>(Bytes.size());
  // Cuts inside the file's trailing index sections: the index is dropped
  // and the trace still loads in full.
  for (long Cut : {IndexEnd - 1, IndexEnd - 9}) {
    ASSERT_TRUE(truncate(Path.c_str(), Cut) == 0);
    TraceReadReport Report;
    Expected<Trace> Loaded = readTrace(Path, nullptr, &Report);
    ASSERT_TRUE(bool(Loaded)) << "cut at " << Cut << ": "
                              << Loaded.error().render();
    EXPECT_FALSE(Loaded->ViewIdx.Present) << "cut at " << Cut;
    EXPECT_TRUE(Report.ViewIndexDropped) << "cut at " << Cut;
    EXPECT_EQ(Loaded->size(), T.size()) << "cut at " << Cut;
  }
  // Cuts inside the core payloads or the section table still fail cleanly.
  for (long Cut : {Size / 2, long(24)}) {
    ASSERT_TRUE(truncate(Path.c_str(), Cut) == 0);
    Expected<Trace> Loaded = readTrace(Path, nullptr);
    ASSERT_FALSE(bool(Loaded)) << "cut at " << Cut;
    EXPECT_EQ(Loaded.error().Class, ErrClass::Corrupt) << "cut at " << Cut;
  }
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// DiffCache
//===----------------------------------------------------------------------===//

TEST(DiffCache, WebHitsReturnTheSameObject) {
  Trace T = traceOf(ObjectsProgram);
  DiffCache Cache;
  TelemetryWindow W;
  std::shared_ptr<const ViewWeb> First = Cache.web(T);
  std::shared_ptr<const ViewWeb> Second = Cache.web(T);
  EXPECT_EQ(First.get(), Second.get());
  EXPECT_EQ(W.counter("web.cache.miss"), 1u);
  EXPECT_EQ(W.counter("web.cache.hit"), 1u);
}

TEST(DiffCache, DamagedCopyOfALoadedTraceIsRejected) {
  // A copy whose value column no longer matches its checksum records the
  // same checksums, and so the same file digest, as its intact twin. Each
  // load reads and verifies its own file, so the copy is refused whether
  // or not the twin is already loaded.
  Trace T = traceOf(ObjectsProgram);
  std::string Good = tempPath("load_good");
  std::string Bad = tempPath("load_bad");
  ASSERT_TRUE(writeTrace(T, Good));
  std::vector<uint8_t> Bytes = readAll(Good);
  SectionRec Value = section(Bytes, 16);
  ASSERT_GT(Value.Length, 0u);
  Bytes[static_cast<size_t>(Value.Offset + Value.Length / 2)] ^= 0x01;
  ASSERT_TRUE(writeAll(Bad, Bytes));

  auto Strings = std::make_shared<StringInterner>();
  DiffCache Cache;
  Err Error;
  ASSERT_TRUE(Cache.load(Good, Strings, &Error) != nullptr) << Error.render();
  EXPECT_EQ(Cache.load(Bad, Strings, &Error), nullptr);
  EXPECT_EQ(Error.Class, ErrClass::Corrupt);
  EXPECT_EQ(Error.Code, "trace.section_checksum");
  // A second load of the intact file reads it again into a new trace.
  auto Again = Cache.load(Good, Strings, &Error);
  ASSERT_TRUE(Again != nullptr) << Error.render();
  EXPECT_EQ(Again->size(), T.size());
  std::remove(Good.c_str());
  std::remove(Bad.c_str());
}

TEST(DiffCache, LoadReportsErrors) {
  DiffCache Cache;
  Err Error;
  EXPECT_EQ(Cache.load("/tmp/definitely/not/here", nullptr, &Error), nullptr);
  EXPECT_FALSE(Error.Message.empty());
  EXPECT_EQ(Error.Class, ErrClass::Io);
  EXPECT_EQ(Error.Code, "trace.not_found");
}

//===----------------------------------------------------------------------===//
// cachedViewsDiff determinism
//===----------------------------------------------------------------------===//

TEST(CachedViewsDiff, ColdWarmAndUncachedAgreeAcrossJobs) {
  auto Strings = std::make_shared<StringInterner>();
  std::mt19937_64 Rng(7);
  Trace Left = generatedTrace(Rng, Strings);
  GeneratorOptions G;
  G.NumClasses = 3;
  G.OuterIters = 16;
  G.NumThreads = 2;
  G.Perturb = 1;
  Trace Right = traceOf(generateProgram(G), Strings);

  for (unsigned Jobs : {1u, 4u}) {
    ViewsDiffOptions Options;
    Options.Jobs = Jobs;
    DiffResult Reference = viewsDiff(Left, Right, Options);

    DiffCache Cache;
    DiffResult Cold = cachedViewsDiff(Left, Right, Options, Cache);
    DiffResult Warm = cachedViewsDiff(Left, Right, Options, Cache);

    EXPECT_EQ(Reference.render(50, 12), Cold.render(50, 12)) << Jobs;
    EXPECT_EQ(Reference.render(50, 12), Warm.render(50, 12)) << Jobs;
    EXPECT_EQ(Reference.Stats.CompareOps, Cold.Stats.CompareOps) << Jobs;
    EXPECT_EQ(Reference.Stats.CompareOps, Warm.Stats.CompareOps) << Jobs;
  }
}

TEST(CachedViewsDiff, WarmRepeatSkipsWebBuild) {
  auto Strings = std::make_shared<StringInterner>();
  Trace Left = traceOf(ObjectsProgram, Strings);
  Trace Right = traceOf(ObjectsProgram, Strings);
  DiffCache Cache;
  TelemetryWindow W;
  (void)cachedViewsDiff(Left, Right, ViewsDiffOptions(), Cache);
  EXPECT_EQ(W.counter("web.cache.miss"), 2u);
  (void)cachedViewsDiff(Left, Right, ViewsDiffOptions(), Cache);
  EXPECT_EQ(W.counter("web.cache.miss"), 2u) << "warm repeat rebuilt a web";
  EXPECT_EQ(W.counter("web.cache.hit"), 2u);
}

TEST(CachedViewsDiff, SelfDiffBuildsOneWeb) {
  Trace T = traceOf(ObjectsProgram);
  DiffCache Cache;
  TelemetryWindow W;
  (void)cachedViewsDiff(T, T, ViewsDiffOptions(), Cache);
  EXPECT_EQ(W.counter("web.cache.miss"), 1u);
  EXPECT_EQ(W.counter("web.cache.hit"), 1u);
}

} // namespace
