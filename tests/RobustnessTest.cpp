//===- tests/RobustnessTest.cpp - Fault injection and degradation tests ---===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the ingestion hardening contracts (docs/ROBUSTNESS.md):
///
///   1. The fault injector is deterministic per seed and free when
///      disarmed.
///   2. Every section of a one-segment file, and its directory and
///      trailer, survives the corruption matrix — truncation, payload bit
///      flips, checksum-record tampering, oversized lengths — with a typed
///      Corrupt error (core sections, directory, trailer) or a dropped
///      view index (derived sections), never a crash.
///   3. The degradation ladder: transient I/O retries, view-index drop,
///      cache-insert fallback, pool-dispatch stalls — each leaves results
///      correct and increments its `robust.*` counter.
///   4. Salvage mode recovers a byte-identical entry prefix from damaged
///      files and refuses when the side tables are gone; a file with a
///      second segment is refused in strict and salvage reads alike.
///
//===----------------------------------------------------------------------===//

#include "TraceFileLayout.h"

#include "cache/DiffCache.h"
#include "robustness/FaultInjector.h"
#include "robustness/Retry.h"
#include "runtime/Compiler.h"
#include "runtime/Vm.h"
#include "support/Telemetry.h"
#include "trace/Serialize.h"
#include "diff/ViewsDiff.h"
#include "trace/TraceError.h"
#include "trace/ViewIndex.h"
#include "views/Views.h"
#include "workload/Generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <vector>

using namespace rprism;
using namespace tracelayout;

namespace {

Trace traceOf(const std::string &Source,
              std::shared_ptr<StringInterner> Strings = nullptr) {
  auto Prog = compileSource(Source, std::move(Strings));
  EXPECT_TRUE(bool(Prog)) << (Prog ? "" : Prog.error().render());
  if (!Prog)
    return Trace();
  RunResult Result = runProgram(*Prog, RunOptions());
  EXPECT_TRUE(Result.Completed) << Result.Error;
  return std::move(Result.ExecTrace);
}

/// A generated workload with threads, arguments, and a few hundred
/// entries: every section comes out nonempty.
Trace workloadTrace(std::shared_ptr<StringInterner> Strings) {
  GeneratorOptions G;
  G.NumClasses = 3;
  G.OuterIters = 12;
  G.NumThreads = 2;
  G.Seed = 42;
  return traceOf(generateProgram(G), std::move(Strings));
}

std::string tempPath(const std::string &Tag) {
  return "/tmp/rprism_robust_" + Tag + "_" + std::to_string(::getpid());
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

/// The section table of a one-segment file's only segment.
std::vector<SectionRec> onlySegmentSections(const std::vector<uint8_t> &Bytes) {
  FileLayout L = fileLayout(Bytes);
  EXPECT_TRUE(L.Ok && L.Segments.size() == 1);
  if (!L.Ok || L.Segments.size() != 1)
    return {};
  return segSections(Bytes, L.Segments[0].Offset);
}

SectionRec findSection(const std::vector<SectionRec> &Table, uint32_t Id) {
  auto It = std::find_if(Table.begin(), Table.end(),
                         [Id](const SectionRec &R) { return R.Id == Id; });
  EXPECT_TRUE(It != Table.end()) << "section " << Id;
  return It != Table.end() ? *It : SectionRec();
}

//===----------------------------------------------------------------------===//
// FaultInjector
//===----------------------------------------------------------------------===//

TEST(FaultInjector, DisarmedHooksAreInertAndCountNothing) {
  FaultInjector &FI = FaultInjector::get();
  ASSERT_FALSE(FaultInjector::enabled());
  EXPECT_FALSE(FaultInjector::fire(FaultSite::FileOpen));
  uint8_t Byte = 0xab;
  EXPECT_FALSE(FaultInjector::corruptByte(FaultSite::FileRead, &Byte, 1));
  EXPECT_EQ(Byte, 0xab);
  FaultInjector::maybeStall(FaultSite::PoolDispatch);
  // Arming clears counts, and the disarmed calls above left none behind.
  ScopedFaultInjection Arm(1);
  for (unsigned S = 0; S != NumFaultSites; ++S)
    EXPECT_EQ(FI.occurrences(static_cast<FaultSite>(S)), 0u)
        << faultSiteName(static_cast<FaultSite>(S));
}

TEST(FaultInjector, SameSeedReplaysTheSameSchedule) {
  auto Schedule = [](uint64_t Seed) {
    ScopedFaultInjection Arm(Seed);
    FaultInjector::get().configure(FaultSite::FileRead, 0.5);
    std::vector<bool> Fired;
    for (int I = 0; I != 64; ++I)
      Fired.push_back(FaultInjector::fire(FaultSite::FileRead));
    return Fired;
  };
  std::vector<bool> A = Schedule(123);
  std::vector<bool> B = Schedule(123);
  std::vector<bool> C = Schedule(456);
  EXPECT_EQ(A, B) << "same seed must replay the same fault schedule";
  EXPECT_NE(A, C) << "different seeds should differ (64 draws at p=0.5)";
  // p=0.5 over 64 draws: both outcomes occur.
  EXPECT_NE(std::count(A.begin(), A.end(), true), 0);
  EXPECT_NE(std::count(A.begin(), A.end(), false), 0);
}

TEST(FaultInjector, OneShotFiresExactlyThatOccurrence) {
  ScopedFaultInjection Arm(1);
  FaultInjector &FI = FaultInjector::get();
  FI.configure(FaultSite::FileOpen, 0.0, /*OneShotAt=*/2);
  std::vector<bool> Fired;
  for (int I = 0; I != 8; ++I)
    Fired.push_back(FaultInjector::fire(FaultSite::FileOpen));
  std::vector<bool> Expect = {false, false, true,  false,
                              false, false, false, false};
  EXPECT_EQ(Fired, Expect);
  EXPECT_EQ(FI.occurrences(FaultSite::FileOpen), 8u);
  EXPECT_EQ(FI.injected(FaultSite::FileOpen), 1u);
}

//===----------------------------------------------------------------------===//
// Corruption matrix: every section, directory and trailer record x every
// mutation
//===----------------------------------------------------------------------===//

TEST(CorruptionMatrix, EverySectionEveryMutation) {
  auto Strings = std::make_shared<StringInterner>();
  Trace T = workloadTrace(Strings);
  ASSERT_GT(T.size(), 0u);
  std::string Base = tempPath("matrix_base");
  ASSERT_TRUE(writeTrace(T, Base, /*WithViewIndex=*/true));
  std::vector<uint8_t> Good = readAll(Base);
  std::vector<SectionRec> Table = onlySegmentSections(Good);
  ASSERT_GE(Table.size(), 19u) << "expected all sections present";
  // Among them the three representation-id columns (self, target, value),
  // the argument-id slice and both representation-table deltas.
  for (uint32_t Id : {12u, 15u, 16u, 26u, 27u, 28u})
    findSection(Table, Id);

  std::string Mutant = tempPath("matrix_mut");
  enum Mutation { Truncate, FlipPayload, FlipChecksum, OversizeLength };
  for (const SectionRec &Sec : Table) {
    bool IsView = Sec.Id == 22 || Sec.Id == 23; // view-meta / view-entries
    for (Mutation M : {Truncate, FlipPayload, FlipChecksum, OversizeLength}) {
      if ((M == Truncate || M == FlipPayload) && Sec.Length == 0)
        continue; // Nothing to cut or flip.
      std::vector<uint8_t> Bytes = Good;
      switch (M) {
      case Truncate:
        Bytes.resize(static_cast<size_t>(Sec.Offset + Sec.Length / 2));
        break;
      case FlipPayload:
        Bytes[static_cast<size_t>(Sec.Offset + Sec.Length / 2)] ^= 0x40;
        break;
      case FlipChecksum:
        Bytes[Sec.RecordPos + 24] ^= 0x01; // Checksum field of the record.
        break;
      case OversizeLength: {
        uint64_t Huge = Good.size(); // Offset + Huge always overruns.
        std::memcpy(Bytes.data() + Sec.RecordPos + 16, &Huge, 8);
        break;
      }
      }
      // The directory digests the section table; reseal it after a record
      // edit so the edit reaches the per-section checks (unsealed, the
      // directory check alone rejects the file).
      if (M == FlipChecksum || M == OversizeLength)
        resealDirectory(Bytes);
      ASSERT_TRUE(writeAll(Mutant, Bytes));
      SCOPED_TRACE("section " + std::to_string(Sec.Id) + " mutation " +
                   std::to_string(M));
      Expected<Trace> Loaded = readTrace(Mutant, nullptr);
      if (IsView && M != Truncate) {
        // Damage confined to the derived index: the load degrades.
        ASSERT_TRUE(bool(Loaded)) << Loaded.error().render();
        EXPECT_FALSE(Loaded->ViewIdx.Present);
        EXPECT_EQ(Loaded->size(), T.size());
      } else if (IsView) {
        // Truncating at a view-section payload may also cut the other
        // view section, and always takes the footer; either way only
        // derived data is lost.
        ASSERT_TRUE(bool(Loaded)) << Loaded.error().render();
        EXPECT_FALSE(Loaded->ViewIdx.Present);
        EXPECT_EQ(Loaded->size(), T.size());
      } else {
        // Core and side sections: a typed Corrupt error, never a crash
        // and never a partially-valid trace.
        ASSERT_FALSE(bool(Loaded));
        EXPECT_EQ(Loaded.error().Class, ErrClass::Corrupt)
            << Loaded.error().render();
        EXPECT_FALSE(Loaded.error().Code.empty());
      }
    }
  }

  // The directory record and the trailer: a cut or a flipped byte in
  // either is a typed Corrupt error on a strict read.
  FileLayout L = fileLayout(Good);
  ASSERT_TRUE(L.Ok);
  size_t Trailer = Good.size() - 24;
  for (size_t Pos : {L.Segments[0].RecordPos, L.Segments[0].RecordPos + 8,
                     L.Segments[0].RecordPos + 24, Trailer, Trailer + 8,
                     Trailer + 16}) {
    for (bool Cut : {false, true}) {
      SCOPED_TRACE("byte " + std::to_string(Pos) + (Cut ? " cut" : " flip"));
      std::vector<uint8_t> Bytes = Good;
      if (Cut)
        Bytes.resize(Pos + 4);
      else
        Bytes[Pos] ^= 0x40;
      ASSERT_TRUE(writeAll(Mutant, Bytes));
      Expected<Trace> Loaded = readTrace(Mutant, nullptr);
      ASSERT_FALSE(bool(Loaded));
      EXPECT_EQ(Loaded.error().Class, ErrClass::Corrupt)
          << Loaded.error().render();
    }
  }
  std::remove(Base.c_str());
  std::remove(Mutant.c_str());
}

//===----------------------------------------------------------------------===//
// Untrusted ids: representation rows, argument ids, tids, view keys
//===----------------------------------------------------------------------===//

void expectByteIdenticalPrefix(const Trace &T, const Trace &S);

/// Overwrites u32 element \p Index of section \p Id's payload (after a
/// \p Header-byte prefix) in the segment headered at \p SegOffset, and
/// reseals the checksums, so only the reader's value checks can object.
void patchU32(std::vector<uint8_t> &Bytes, uint64_t SegOffset, uint32_t Id,
              size_t Header, size_t Index, uint32_t Value) {
  SectionRec R = segSection(Bytes, SegOffset, Id);
  ASSERT_EQ(R.Id, Id);
  ASSERT_GE(R.Length, Header + 4 * (Index + 1));
  storeLE(Bytes.data() + R.Offset + Header + 4 * Index, Value);
  resealSection(Bytes, R);
  resealDirectory(Bytes);
}

TEST(RowIds, OutOfRangeIdIsCorruptWhenStrictAndEndsThePrefixInSalvage) {
  auto Strings = std::make_shared<StringInterner>();
  Trace T = workloadTrace(Strings);
  std::string Base = tempPath("ids_base"), Path = tempPath("ids_mut");
  ASSERT_TRUE(writeTrace(T, Base));
  std::vector<uint8_t> Good = readAll(Base);
  FileLayout L = fileLayout(Good);
  ASSERT_TRUE(L.Ok);
  uint32_t K = static_cast<uint32_t>(T.size() / 2);

  // Per column, the first value past the loaded rows (for tids, the
  // loaded threads); a near-maximal and the maximal value are tried too.
  struct IdColumn {
    uint32_t Id;
    uint32_t FirstBad;
  } Columns[] = {
      {10, static_cast<uint32_t>(T.Threads.size())},   // tid
      {12, static_cast<uint32_t>(T.ObjReprs.size())},  // self id
      {15, static_cast<uint32_t>(T.ObjReprs.size())},  // target id
      {16, static_cast<uint32_t>(T.ValueReprs.size())}, // value id
  };
  for (const IdColumn &C : Columns) {
    for (uint32_t Bad : {C.FirstBad, ~0u - 15, ~0u}) {
      SCOPED_TRACE("section " + std::to_string(C.Id) + " id " +
                   std::to_string(Bad));
      std::vector<uint8_t> Bytes = Good;
      patchU32(Bytes, L.Segments[0].Offset, C.Id, 0, K, Bad);
      ASSERT_TRUE(writeAll(Path, Bytes));
      Expected<Trace> Strict = readTrace(Path, Strings);
      ASSERT_FALSE(bool(Strict));
      EXPECT_EQ(Strict.error().Code, "trace.section");

      TraceReadReport Report;
      ReadOptions Options;
      Options.Salvage = true;
      Options.Report = &Report;
      Expected<Trace> Salvaged = readTrace(Path, Strings, Options);
      ASSERT_TRUE(bool(Salvaged)) << Salvaged.error().render();
      ASSERT_EQ(Salvaged->size(), K);
      EXPECT_EQ(Report.EntriesDropped, T.size() - K);
      expectByteIdenticalPrefix(T, *Salvaged);
    }
  }
  std::remove(Base.c_str());
  std::remove(Path.c_str());
}

TEST(RowIds, OutOfRangeArgumentIdIsUnsalvageable) {
  // Argument ids travel in the argument pool, a side table: one out of
  // range discredits the pool, which every entry's argument slice points
  // into, so salvage has nothing to recover, like any other damaged side
  // table.
  auto Strings = std::make_shared<StringInterner>();
  Trace T = workloadTrace(Strings);
  std::string Path = tempPath("ids_args");
  ASSERT_TRUE(writeTrace(T, Path));
  std::vector<uint8_t> Bytes = readAll(Path);
  FileLayout L = fileLayout(Bytes);
  ASSERT_TRUE(L.Ok);
  ASSERT_GT(segSection(Bytes, L.Segments[0].Offset, 26).Length, 8u)
      << "the trace passes no arguments";
  patchU32(Bytes, L.Segments[0].Offset, 26, 8, 0,
           static_cast<uint32_t>(T.ValueReprs.size()));
  ASSERT_TRUE(writeAll(Path, Bytes));

  Expected<Trace> Strict = readTrace(Path, Strings);
  ASSERT_FALSE(bool(Strict));
  EXPECT_EQ(Strict.error().Code, "trace.section");
  ReadOptions Options;
  Options.Salvage = true;
  Expected<Trace> Salvaged = readTrace(Path, Strings, Options);
  ASSERT_FALSE(bool(Salvaged));
  EXPECT_EQ(Salvaged.error().Code, "trace.unsalvageable");
  std::remove(Path.c_str());
}

TEST(RowIds, RowsAreCheckedOnceAndRowZeroIsEmpty) {
  auto Strings = std::make_shared<StringInterner>();
  Trace T = workloadTrace(Strings);
  std::string Base = tempPath("rows_base"), Path = tempPath("rows_mut");
  ASSERT_TRUE(writeTrace(T, Base));
  std::vector<uint8_t> Good = readAll(Base);
  FileLayout L = fileLayout(Good);
  ASSERT_TRUE(L.Ok);
  // Table deltas: a u64 base, then 24-byte ObjRepr rows (ClassName at +12)
  // or 16-byte ValueRepr rows (Text at +8, Kind at +12).
  struct Patch {
    const char *What;
    uint32_t Id;
    size_t Byte; ///< Offset of the u32 patched, from the first row.
    uint32_t Value;
  } Patches[] = {
      {"object row 0 not empty", 27, 4, 7},       // Row 0's Loc.
      {"value row 0 not empty", 28, 12, 3},      // Row 0's kind: Int.
      {"class symbol out of range", 27, 24 + 12, ~0u},
      {"text symbol out of range", 28, 16 + 8, ~0u},
      {"kind out of range", 28, 16 + 12, 0xff},
  };
  for (const Patch &P : Patches) {
    SCOPED_TRACE(P.What);
    std::vector<uint8_t> Bytes = Good;
    ASSERT_EQ(P.Byte % 4, 0u);
    patchU32(Bytes, L.Segments[0].Offset, P.Id, 8, P.Byte / 4, P.Value);
    ASSERT_TRUE(writeAll(Path, Bytes));
    Expected<Trace> Strict = readTrace(Path, Strings);
    ASSERT_FALSE(bool(Strict));
    EXPECT_EQ(Strict.error().Code, "trace.section");
    EXPECT_NE(Strict.error().render().find("representation-table"),
              std::string::npos)
        << Strict.error().render();
  }
  std::remove(Base.c_str());
  std::remove(Path.c_str());
}

/// A hand-built three-entry trace whose middle entry runs on thread \p Tid
/// and sets a field of the object at location \p Loc.
Trace hostileKeyTrace(std::shared_ptr<StringInterner> Strings, uint32_t Tid,
                      uint32_t Loc) {
  Trace T;
  T.Strings = Strings;
  T.Name = "hostile";
  ThreadInfo Main;
  Main.EntryMethod = Strings->intern("main");
  T.Threads.push_back(Main);
  for (uint32_t I = 0; I != 3; ++I) {
    TraceEntry E;
    E.Tid = I == 1 ? Tid : 0;
    E.Method = Main.EntryMethod;
    E.Ev.Kind = EventKind::FieldSet;
    E.Ev.Name = Strings->intern("x");
    E.Ev.Target.ClassName = Strings->intern("A");
    E.Ev.Target.Loc = I == 1 ? Loc : 0;
    E.Ev.Target.CreationSeq = I == 1 ? 2 : 1;
    E.Ev.Value.Kind = ReprKind::Int;
    E.Ev.Value.Hash = I;
    E.Ev.Value.Text = Strings->intern(std::to_string(I));
    T.append(E);
  }
  T.computeFingerprints();
  return T;
}

TEST(HostileKeys, TidNamingNoThreadIsCorrupt) {
  auto Strings = std::make_shared<StringInterner>();
  std::string Path = tempPath("hostile_tid");
  ASSERT_TRUE(writeTrace(hostileKeyTrace(Strings, 0xFFFFFFF0u, 0), Path,
                         /*WithViewIndex=*/false));
  Expected<Trace> Strict = readTrace(Path, Strings);
  ASSERT_FALSE(bool(Strict));
  EXPECT_EQ(Strict.error().Code, "trace.section");
  // Under salvage the bad tid ends the validating prefix.
  ReadOptions Options;
  Options.Salvage = true;
  Expected<Trace> Salvaged = readTrace(Path, Strings, Options);
  ASSERT_TRUE(bool(Salvaged)) << Salvaged.error().render();
  EXPECT_EQ(Salvaged->size(), 1u);
  std::remove(Path.c_str());
}

TEST(HostileKeys, HugeObjectLocationDiffsWithBoundedKeyMaps) {
  // A location far beyond the trace size must not size any direct-indexed
  // key map (it would ask for 16 GiB): the view web and the view index
  // key it through their hash-map fallback and partition exactly as for a
  // small location.
  auto Strings = std::make_shared<StringInterner>();
  std::string Path = tempPath("hostile_loc");
  ASSERT_TRUE(writeTrace(hostileKeyTrace(Strings, 0, 0xFFFFFFF0u), Path,
                         /*WithViewIndex=*/false));
  Expected<Trace> Loaded = readTrace(Path, Strings);
  ASSERT_TRUE(bool(Loaded)) << Loaded.error().render();
  ASSERT_FALSE(Loaded->ViewIdx.Present);
  ViewWeb Web(*Loaded);
  const View *Huge = Web.targetObjectView(0xFFFFFFF0u);
  ASSERT_NE(Huge, nullptr);
  EXPECT_EQ(Huge->size(), 1u);
  EXPECT_EQ(Web.numTargetObjectViews(), 2u);
  // The same views, in the same order, as the persisted index describes.
  ViewIndex Idx = computeViewIndex(*Loaded);
  ASSERT_EQ(Idx.Keys[2].size(), 2u);
  EXPECT_EQ(Idx.Keys[2][0], 0u);
  EXPECT_EQ(Idx.Keys[2][1], 0xFFFFFFF0u);
  EXPECT_EQ(Web.targetObjectView(0)->Id + 1, Huge->Id);
  DiffResult D = viewsDiff(*Loaded, *Loaded);
  EXPECT_EQ(D.numLeftDiffs() + D.numRightDiffs(), 0u);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Degradation ladder: I/O retry, view-index drop, cache fallback, stalls
//===----------------------------------------------------------------------===//

TEST(DegradationLadder, TransientOpenFailureIsRetried) {
  Trace T = traceOf("class A { } main { var a = new A(); }");
  std::string Path = tempPath("retry_open");
  ASSERT_TRUE(writeTrace(T, Path));
  TelemetryWindow W;
  {
    ScopedFaultInjection Arm(7);
    // Fail exactly the first open; the bounded retry must recover.
    FaultInjector::get().configure(FaultSite::FileOpen, 0.0, /*OneShotAt=*/0);
    Expected<Trace> Loaded = readTrace(Path, nullptr);
    ASSERT_TRUE(bool(Loaded)) << Loaded.error().render();
    EXPECT_EQ(Loaded->size(), T.size());
  }
  EXPECT_GE(W.counter("robust.io_retry"), 1u);
  std::remove(Path.c_str());
}

TEST(DegradationLadder, PersistentOpenFailureIsTypedIoError) {
  Trace T = traceOf("class A { } main { var a = new A(); }");
  std::string Path = tempPath("eio");
  ASSERT_TRUE(writeTrace(T, Path));
  ScopedFaultInjection Arm(7);
  FaultInjector::get().configure(FaultSite::FileOpen, 1.0);
  Expected<Trace> Loaded = readTrace(Path, nullptr);
  ASSERT_FALSE(bool(Loaded));
  EXPECT_EQ(Loaded.error().Class, ErrClass::Io);
  EXPECT_EQ(Loaded.error().Code, "trace.open");
  std::remove(Path.c_str());
}

TEST(DegradationLadder, MmapFailureFallsBackToArenaAndShortReadRetries) {
  auto Strings = std::make_shared<StringInterner>();
  Trace T = workloadTrace(Strings);
  std::string Path = tempPath("arena");
  ASSERT_TRUE(writeTrace(T, Path));
  TelemetryWindow W;
  {
    ScopedFaultInjection Arm(11);
    // Every mmap fails -> arena path; the first arena read comes up short
    // -> one retry succeeds.
    FaultInjector::get().configure(FaultSite::FileMmap, 1.0);
    FaultInjector::get().configure(FaultSite::FileRead, 0.0, /*OneShotAt=*/0);
    Expected<Trace> Loaded = readTrace(Path, Strings);
    ASSERT_TRUE(bool(Loaded)) << Loaded.error().render();
    ASSERT_EQ(Loaded->size(), T.size());
    for (uint32_t I = 0; I != Loaded->size(); ++I)
      ASSERT_EQ(Loaded->renderEntry(I), T.renderEntry(I)) << I;
  }
  EXPECT_GE(W.counter("robust.io_retry"), 1u);
  EXPECT_EQ(W.counter("load.mmap"), 0u) << "mmap should have been denied";
  std::remove(Path.c_str());
}

TEST(DegradationLadder, InFlightBitFlipIsCaughtByChecksums) {
  auto Strings = std::make_shared<StringInterner>();
  Trace T = workloadTrace(Strings);
  std::string Path = tempPath("bitflip");
  ASSERT_TRUE(writeTrace(T, Path));
  // The arena-read path corrupts one seeded bit after the read (occurrence
  // 1 of the FileRead site is the corruptByte call). Nearly every byte of
  // a trace file is covered by a section checksum or validated header/table
  // field, so across seeds the flip must be either *detected* (typed
  // Corrupt error) or provably harmless (the loaded trace is identical) —
  // never a crash, never silent data damage.
  unsigned Detected = 0;
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    ScopedFaultInjection Arm(Seed);
    FaultInjector::get().configure(FaultSite::FileMmap, 1.0);
    FaultInjector::get().configure(FaultSite::FileRead, 0.0, /*OneShotAt=*/1);
    Expected<Trace> Loaded = readTrace(Path, Strings);
    if (!Loaded) {
      EXPECT_EQ(Loaded.error().Class, ErrClass::Corrupt)
          << "seed " << Seed << ": " << Loaded.error().render();
      ++Detected;
      continue;
    }
    ASSERT_EQ(Loaded->size(), T.size()) << "seed " << Seed;
    for (uint32_t I = 0; I != Loaded->size(); ++I)
      ASSERT_EQ(Loaded->renderEntry(I), T.renderEntry(I))
          << "seed " << Seed << " entry " << I;
  }
  EXPECT_GE(Detected, 1u) << "no seed's flip landed in checksummed bytes";
  std::remove(Path.c_str());
}

TEST(DegradationLadder, ViewIndexBorrowFaultDropsIndexOnly) {
  auto Strings = std::make_shared<StringInterner>();
  Trace T = workloadTrace(Strings);
  std::string Path = tempPath("borrowfault");
  ASSERT_TRUE(writeTrace(T, Path, /*WithViewIndex=*/true));
  TelemetryWindow W;
  {
    ScopedFaultInjection Arm(5);
    FaultInjector::get().configure(FaultSite::ViewIndexBorrow, 1.0);
    TraceReadReport Report;
    ReadOptions Options;
    Options.Report = &Report;
    Expected<Trace> Loaded = readTrace(Path, Strings, Options);
    ASSERT_TRUE(bool(Loaded)) << Loaded.error().render();
    EXPECT_FALSE(Loaded->ViewIdx.Present);
    EXPECT_TRUE(Report.ViewIndexDropped);
    EXPECT_EQ(Loaded->size(), T.size());
  }
  EXPECT_EQ(W.counter("robust.view_index_dropped"), 1u);
  std::remove(Path.c_str());
}

TEST(DegradationLadder, CacheInsertFaultServesResultsUncached) {
  auto Strings = std::make_shared<StringInterner>();
  Trace Left = workloadTrace(Strings);
  GeneratorOptions G;
  G.NumClasses = 3;
  G.OuterIters = 12;
  G.NumThreads = 2;
  G.Seed = 42;
  G.Perturb = 1;
  Trace Right = traceOf(generateProgram(G), Strings);
  DiffResult Reference = viewsDiff(Left, Right, ViewsDiffOptions());

  DiffCache Cache;
  TelemetryWindow W;
  {
    ScopedFaultInjection Arm(13);
    FaultInjector::get().configure(FaultSite::CacheInsert, 1.0);
    DiffResult Result = cachedViewsDiff(Left, Right, ViewsDiffOptions(), Cache);
    // Every insert was dropped: results identical, nothing retained.
    EXPECT_EQ(Reference.render(50, 12), Result.render(50, 12));
    EXPECT_EQ(Reference.Stats.CompareOps, Result.Stats.CompareOps);
    EXPECT_EQ(Cache.numEntries(), 0u);
    EXPECT_EQ(Cache.bytes(), 0u);
  }
  EXPECT_GE(W.counter("robust.cache_insert_dropped"), 3u)
      << "two webs and one correlation should all have been dropped";
}

TEST(DegradationLadder, PoolDispatchStallsNeverChangeResults) {
  auto Strings = std::make_shared<StringInterner>();
  Trace Left = workloadTrace(Strings);
  GeneratorOptions G;
  G.NumClasses = 3;
  G.OuterIters = 12;
  G.NumThreads = 2;
  G.Seed = 42;
  G.Perturb = 2;
  Trace Right = traceOf(generateProgram(G), Strings);
  ViewsDiffOptions Options;
  Options.Jobs = 4;
  Options.ParallelCutoffEntries = 0; // Force the parallel machinery.
  DiffResult Reference = viewsDiff(Left, Right, Options);
  {
    ScopedFaultInjection Arm(17);
    FaultInjector::get().configure(FaultSite::PoolDispatch, 1.0);
    FaultInjector::get().setStallMicros(100);
    DiffResult Stalled = viewsDiff(Left, Right, Options);
    EXPECT_EQ(Reference.render(50, 12), Stalled.render(50, 12));
    EXPECT_EQ(Reference.Stats.CompareOps, Stalled.Stats.CompareOps);
  }
}

//===----------------------------------------------------------------------===//
// Salvage
//===----------------------------------------------------------------------===//

/// Asserts that every entry of \p S is a byte-identical prefix of \p T's
/// (the --salvage acceptance criterion: recovered entries are the original
/// bytes, not a reconstruction) — the plain columns, and the
/// representations each entry names.
void expectByteIdenticalPrefix(const Trace &T, const Trace &S) {
  size_t N = S.size();
  ASSERT_LE(N, T.size());
  EXPECT_EQ(0, std::memcmp(T.Tids.data(), S.Tids.data(), N * 4));
  EXPECT_EQ(0, std::memcmp(T.Methods.data(), S.Methods.data(), N * 4));
  EXPECT_EQ(0, std::memcmp(T.Kinds.data(), S.Kinds.data(), N));
  EXPECT_EQ(0, std::memcmp(T.Names.data(), S.Names.data(), N * 4));
  for (uint32_t Eid = 0; Eid != N; ++Eid) {
    EXPECT_EQ(0, std::memcmp(&T.self(Eid), &S.self(Eid), 24));
    EXPECT_EQ(0, std::memcmp(&T.target(Eid), &S.target(Eid), 24));
    EXPECT_EQ(0, std::memcmp(&T.value(Eid), &S.value(Eid), 16));
  }
  EXPECT_EQ(0, std::memcmp(T.ArgsBegins.data(), S.ArgsBegins.data(), N * 4));
  EXPECT_EQ(0, std::memcmp(T.ArgsEnds.data(), S.ArgsEnds.data(), N * 4));
  EXPECT_EQ(0, std::memcmp(T.ChildTids.data(), S.ChildTids.data(), N * 4));
  EXPECT_EQ(0, std::memcmp(T.Provs.data(), S.Provs.data(), N * 4));
}

TEST(Salvage, TruncatedFileRecoversByteIdenticalPrefix) {
  auto Strings = std::make_shared<StringInterner>();
  Trace T = workloadTrace(Strings);
  ASSERT_GT(T.size(), 50u);
  std::string Base = tempPath("salvage_base");
  ASSERT_TRUE(writeTrace(T, Base, /*WithViewIndex=*/true));
  std::vector<uint8_t> Good = readAll(Base);

  // Cut points derived from the segment's section table, not guessed
  // fractions. In the columnar layout a truncation mid-column leaves every
  // *later* column absent, so only cuts in the trailing sections — the
  // last entry column (Prov, id 20) and the derived fingerprint lane
  // (Fp, id 21) — can recover entries. An earlier cut is refused.
  std::vector<SectionRec> Table = onlySegmentSections(Good);
  SectionRec Prov = findSection(Table, 20), Fp = findSection(Table, 21),
             Value = findSection(Table, 16);

  TelemetryWindow W;
  struct Cut {
    const char *What;
    size_t Bytes;
    bool Recoverable;
    bool Shrinks; ///< Recovered prefix must be strictly shorter.
  } Cuts[] = {
      // Mid-Prov: entries up to the cut survive, the rest drop.
      {"mid-prov", size_t(Prov.Offset + Prov.Length / 2), true, true},
      // Mid-fingerprints: all entries survive, fps are recomputed.
      {"mid-fp", size_t(Fp.Offset + Fp.Length / 2), true, false},
      // Mid-Value: ArgsBegin onward is gone entirely — refused.
      {"mid-value", size_t(Value.Offset + Value.Length / 2), false, false},
  };
  std::string CutPath = tempPath("salvage_cut");
  for (const Cut &C : Cuts) {
    std::vector<uint8_t> Bytes = Good;
    Bytes.resize(C.Bytes);
    ASSERT_TRUE(writeAll(CutPath, Bytes));
    SCOPED_TRACE(C.What);

    Expected<Trace> Strict = readTrace(CutPath, Strings);
    ASSERT_FALSE(bool(Strict));
    EXPECT_EQ(Strict.error().Code, "trace.truncated");

    TraceReadReport Report;
    ReadOptions Options;
    Options.Salvage = true;
    Options.Report = &Report;
    Expected<Trace> Salvaged = readTrace(CutPath, Strings, Options);
    if (!C.Recoverable) {
      ASSERT_FALSE(bool(Salvaged));
      EXPECT_EQ(Salvaged.error().Code, "trace.unsalvageable");
      continue;
    }
    ASSERT_TRUE(bool(Salvaged)) << Salvaged.error().render();
    EXPECT_TRUE(Report.Salvaged);
    EXPECT_EQ(Report.EntriesRecovered, Salvaged->size());
    EXPECT_EQ(Report.EntriesRecovered + Report.EntriesDropped, T.size());
    if (C.Shrinks) {
      EXPECT_LT(Salvaged->size(), T.size());
      EXPECT_GT(Salvaged->size(), 0u);
    } else {
      EXPECT_EQ(Salvaged->size(), T.size());
    }
    expectByteIdenticalPrefix(T, *Salvaged);
    // The recovered prefix renders identically entry for entry.
    for (uint32_t I = 0; I != Salvaged->size(); ++I)
      ASSERT_EQ(Salvaged->renderEntry(I), T.renderEntry(I)) << I;
  }
  EXPECT_GE(W.counter("robust.salvage.used"), 2u);
  EXPECT_GE(W.counter("robust.salvage.dropped_entries"), 1u);
  std::remove(Base.c_str());
  std::remove(CutPath.c_str());
}

TEST(Salvage, DamagedSideTableIsUnsalvageable) {
  auto Strings = std::make_shared<StringInterner>();
  Trace T = workloadTrace(Strings);
  std::string Path = tempPath("unsalvageable");
  ASSERT_TRUE(writeTrace(T, Path));
  std::vector<uint8_t> Bytes = readAll(Path);
  // Flip a byte inside the string delta (the whole string table of a
  // one-segment file): entries are meaningless without it, so salvage
  // must refuse rather than return garbage symbols.
  SectionRec Strs = findSection(onlySegmentSections(Bytes), 24);
  ASSERT_GT(Strs.Length, 0u);
  Bytes[static_cast<size_t>(Strs.Offset + Strs.Length / 2)] ^= 0x10;
  ASSERT_TRUE(writeAll(Path, Bytes));

  ReadOptions Options;
  Options.Salvage = true;
  Expected<Trace> Salvaged = readTrace(Path, Strings, Options);
  ASSERT_FALSE(bool(Salvaged));
  EXPECT_EQ(Salvaged.error().Class, ErrClass::Corrupt);
  EXPECT_EQ(Salvaged.error().Code, "trace.unsalvageable");
  std::remove(Path.c_str());
}

TEST(Salvage, IntactFilesReadIdenticallyWithSalvageOn) {
  auto Strings = std::make_shared<StringInterner>();
  Trace T = workloadTrace(Strings);
  std::string Path = tempPath("salvage_noop");
  ASSERT_TRUE(writeTrace(T, Path));
  TraceReadReport Report;
  ReadOptions Options;
  Options.Salvage = true;
  Options.Report = &Report;
  Expected<Trace> Loaded = readTrace(Path, Strings, Options);
  ASSERT_TRUE(bool(Loaded)) << Loaded.error().render();
  EXPECT_FALSE(Report.Salvaged) << "salvage must be a no-op on clean files";
  EXPECT_FALSE(Report.ViewIndexDropped);
  EXPECT_EQ(Loaded->size(), T.size());
  EXPECT_TRUE(Loaded->ViewIdx.Present);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// One-segment salvage and the one-segment rule
//===----------------------------------------------------------------------===//

/// The mid-column salvage floor: a section checksum covers the whole
/// column, so one flipped byte anywhere in an entry column discredits all
/// of it — no prefix is trustworthy, the segment keeps nothing, and with
/// nothing else to recover salvage refuses rather than return an empty
/// trace that looks legitimately empty.
TEST(SalvageV4, OneSegmentColumnFlipIsUnsalvageable) {
  auto Strings = std::make_shared<StringInterner>();
  Trace T = workloadTrace(Strings);
  ASSERT_GT(T.size(), 50u);
  std::string Path = tempPath("one_segment_flip");
  ASSERT_TRUE(writeTrace(T, Path));
  std::vector<uint8_t> Bytes = readAll(Path);
  SectionRec Value = findSection(onlySegmentSections(Bytes), 16);
  ASSERT_GT(Value.Length, 0u);
  Bytes[static_cast<size_t>(Value.Offset + Value.Length / 2)] ^= 0x40;
  ASSERT_TRUE(writeAll(Path, Bytes));

  Expected<Trace> Strict = readTrace(Path, Strings);
  ASSERT_FALSE(bool(Strict));
  EXPECT_EQ(Strict.error().Code, "trace.section_checksum");

  ReadOptions Options;
  Options.Salvage = true;
  Expected<Trace> Salvaged = readTrace(Path, Strings, Options);
  ASSERT_FALSE(bool(Salvaged));
  EXPECT_EQ(Salvaged.error().Code, "trace.unsalvageable");
  std::remove(Path.c_str());
}

TEST(SalvageV4, TruncatedDirectoryChainScansTheSegment) {
  auto Strings = std::make_shared<StringInterner>();
  Trace T = workloadTrace(Strings);
  std::string Path = tempPath("v4_tail");
  ASSERT_TRUE(writeTrace(T, Path));
  std::vector<uint8_t> Good = readAll(Path);
  FileLayout L = fileLayout(Good);
  ASSERT_TRUE(L.Ok);

  // Cut inside the trailer, then inside the footer: either way the
  // directory is gone but the segment is intact.
  for (size_t Cut : {Good.size() - 10, size_t(L.FooterOffset) + 12}) {
    SCOPED_TRACE("cut at " + std::to_string(Cut));
    std::vector<uint8_t> Bytes = Good;
    Bytes.resize(Cut);
    ASSERT_TRUE(writeAll(Path, Bytes));

    Expected<Trace> Strict = readTrace(Path, Strings);
    ASSERT_FALSE(bool(Strict));
    EXPECT_EQ(Strict.error().Class, ErrClass::Corrupt);

    TraceReadReport Report;
    ReadOptions Options;
    Options.Salvage = true;
    Options.Report = &Report;
    Expected<Trace> Salvaged = readTrace(Path, Strings, Options);
    ASSERT_TRUE(bool(Salvaged)) << Salvaged.error().render();
    // The header scan finds the segment and recovers everything; the read
    // still reports salvage so callers know the file needs rewriting.
    EXPECT_TRUE(Report.Salvaged);
    EXPECT_EQ(Report.EntriesDropped, 0u);
    ASSERT_EQ(Salvaged->size(), T.size());
    for (uint32_t I = 0; I != Salvaged->size(); ++I)
      ASSERT_EQ(Salvaged->renderEntry(I), T.renderEntry(I)) << I;
  }
  std::remove(Path.c_str());
}

TEST(SalvageV4, CutInsideViewIndexLoadsStrictly) {
  auto Strings = std::make_shared<StringInterner>();
  Trace T = workloadTrace(Strings);
  std::string Path = tempPath("v4_viewcut");
  ASSERT_TRUE(writeTrace(T, Path));
  std::vector<uint8_t> Bytes = readAll(Path);

  // The cut takes the view entries and the directory, but no entry data:
  // a strict read loads every entry and drops the derived index.
  SectionRec Entries = findSection(onlySegmentSections(Bytes), 23);
  ASSERT_GT(Entries.Length, 4u);
  Bytes.resize(static_cast<size_t>(Entries.Offset + Entries.Length - 4));
  ASSERT_TRUE(writeAll(Path, Bytes));

  TelemetryWindow W;
  TraceReadReport Report;
  ReadOptions Options;
  Options.Report = &Report;
  Expected<Trace> Loaded = readTrace(Path, Strings, Options);
  ASSERT_TRUE(bool(Loaded)) << Loaded.error().render();
  EXPECT_EQ(Loaded->size(), T.size());
  EXPECT_FALSE(Loaded->ViewIdx.Present);
  EXPECT_TRUE(Report.ViewIndexDropped);
  EXPECT_FALSE(Report.Salvaged);
  EXPECT_EQ(W.counter("robust.view_index_dropped"), 1u);
  for (uint32_t I = 0; I != Loaded->size(); ++I)
    ASSERT_EQ(Loaded->renderEntry(I), T.renderEntry(I)) << I;
  std::remove(Path.c_str());
}

TEST(SalvageV4, DamagedSideDeltaIsUnsalvageable) {
  auto Strings = std::make_shared<StringInterner>();
  Trace T = workloadTrace(Strings);
  std::string Path = tempPath("v4_side");
  ASSERT_TRUE(writeTrace(T, Path));
  std::vector<uint8_t> Good = readAll(Path);
  std::vector<SectionRec> Table = onlySegmentSections(Good);

  // Damage each side table: the strings, threads, argument pool, object
  // rows or value rows. Every entry refers into them and no prefix of one
  // is usable, so salvage has nothing to recover.
  for (uint32_t Id : {24u, 25u, 26u, 27u, 28u}) {
    SCOPED_TRACE("side delta " + std::to_string(Id));
    std::vector<uint8_t> Bytes = Good;
    SectionRec Delta = findSection(Table, Id);
    ASSERT_GT(Delta.Length, 8u);
    Bytes[static_cast<size_t>(Delta.Offset + Delta.Length / 2)] ^= 0x10;
    ASSERT_TRUE(writeAll(Path, Bytes));

    Expected<Trace> Strict = readTrace(Path, Strings);
    ASSERT_FALSE(bool(Strict));
    EXPECT_EQ(Strict.error().Class, ErrClass::Corrupt);
    ReadOptions Options;
    Options.Salvage = true;
    Expected<Trace> Salvaged = readTrace(Path, Strings, Options);
    ASSERT_FALSE(bool(Salvaged));
    EXPECT_EQ(Salvaged.error().Class, ErrClass::Corrupt);
    EXPECT_EQ(Salvaged.error().Code, "trace.unsalvageable");
  }
  std::remove(Path.c_str());
}

/// A two-segment file built from the one-segment file \p One: the segment
/// twice, the copy numbered 1 and starting at entry N, then a two-record
/// directory and the trailer, with the directory digests and the footer
/// checksum resealed.
std::vector<uint8_t> twoSegmentFile(const std::vector<uint8_t> &One) {
  FileLayout L = fileLayout(One);
  EXPECT_TRUE(L.Ok && L.Segments.size() == 1);
  if (!L.Ok || L.Segments.size() != 1)
    return {};
  const SegDirRec &Seg = L.Segments[0];
  size_t Footer = static_cast<size_t>(L.FooterOffset);
  size_t Second = Footer; // The copy starts where the footer was.
  std::vector<uint8_t> Two(One.begin(), One.begin() + Footer);
  Two.insert(Two.end(), One.begin() + Seg.Offset, One.begin() + Footer);
  storeLE<uint32_t>(Two.data() + Second + 4, 1);             // Index.
  storeLE<uint64_t>(Two.data() + Second + 8, Seg.NumEntries); // First eid.
  size_t NewFooter = Two.size();
  // Footer magic and count, then segment 0's record twice.
  Two.insert(Two.end(), One.begin() + Footer, One.begin() + Footer + 8);
  for (int K = 0; K != 2; ++K)
    Two.insert(Two.end(), One.begin() + Seg.RecordPos,
               One.begin() + Seg.RecordPos + 32);
  storeLE<uint32_t>(Two.data() + NewFooter + 4, 2);
  storeLE<uint64_t>(Two.data() + NewFooter + 40, Second);
  storeLE<uint32_t>(Two.data() + NewFooter + 40 + 24, Seg.NumEntries);
  // Trailer: footer offset, footer checksum, segment count, magic.
  Two.insert(Two.end(), One.end() - 24, One.end());
  storeLE<uint64_t>(Two.data() + Two.size() - 24, NewFooter);
  storeLE<uint32_t>(Two.data() + Two.size() - 8, 2);
  resealDirectory(Two);
  return Two;
}

TEST(SegmentCount, SecondSegmentIsRefusedStrictAndSalvage) {
  auto Strings = std::make_shared<StringInterner>();
  Trace T = workloadTrace(Strings);
  std::string Base = tempPath("segcount_base"), Path = tempPath("segcount");
  ASSERT_TRUE(writeTrace(T, Base));
  std::vector<uint8_t> Two = twoSegmentFile(readAll(Base));
  FileLayout L = fileLayout(Two);
  ASSERT_TRUE(L.Ok);
  ASSERT_EQ(L.Segments.size(), 2u);

  // With the directory, which lists the second segment, and with the
  // footer cut off, so the header scan is what finds it.
  for (bool CutFooter : {false, true}) {
    SCOPED_TRACE(CutFooter ? "footer cut off" : "directory intact");
    std::vector<uint8_t> Bytes = Two;
    if (CutFooter)
      Bytes.resize(static_cast<size_t>(L.FooterOffset));
    ASSERT_TRUE(writeAll(Path, Bytes));
    for (bool Salvage : {false, true}) {
      ReadOptions Options;
      Options.Salvage = Salvage;
      Expected<Trace> Loaded = readTrace(Path, Strings, Options);
      ASSERT_FALSE(bool(Loaded)) << "salvage " << Salvage;
      EXPECT_EQ(Loaded.error().Code, "trace.section");
      EXPECT_NE(Loaded.error().render().find("segment-count"),
                std::string::npos)
          << Loaded.error().render();
    }
  }
  std::remove(Base.c_str());
  std::remove(Path.c_str());
}

TEST(Salvage, HostileViewCountIsNeverReserved) {
  // The segment header and directory record declare 0xF0000000 entries,
  // and the view meta 0xE0000000 views in its first family, every
  // checksum resealed. Salvage keeps the entries the columns hold, and the
  // index, which no longer describes the kept entries, is dropped without
  // being parsed — so its view count never sizes an allocation.
  auto Strings = std::make_shared<StringInterner>();
  Trace T = workloadTrace(Strings);
  std::string Path = tempPath("hostile_views");
  ASSERT_TRUE(writeTrace(T, Path));
  std::vector<uint8_t> Bytes = readAll(Path);
  FileLayout L = fileLayout(Bytes);
  ASSERT_TRUE(L.Ok);
  const uint32_t Declared = 0xF0000000u;
  storeLE<uint32_t>(Bytes.data() + L.Segments[0].Offset + 16, Declared);
  storeLE<uint32_t>(Bytes.data() + L.Segments[0].RecordPos + 28, Declared);
  patchU32(Bytes, L.Segments[0].Offset, 22, 0, 0, 0xE0000000u);
  ASSERT_TRUE(writeAll(Path, Bytes));

  Expected<Trace> Strict = readTrace(Path, Strings);
  ASSERT_FALSE(bool(Strict));
  EXPECT_EQ(Strict.error().Code, "trace.section");

  TelemetryWindow W;
  TraceReadReport Report;
  ReadOptions Options;
  Options.Salvage = true;
  Options.Report = &Report;
  Expected<Trace> Salvaged = readTrace(Path, Strings, Options);
  ASSERT_TRUE(bool(Salvaged)) << Salvaged.error().render();
  ASSERT_EQ(Salvaged->size(), T.size());
  EXPECT_TRUE(Report.Salvaged);
  EXPECT_TRUE(Report.ViewIndexDropped);
  EXPECT_FALSE(Salvaged->ViewIdx.Present);
  EXPECT_EQ(Report.EntriesDropped, Declared - T.size());
  EXPECT_EQ(W.counter("robust.view_index_dropped"), 1u);
  expectByteIdenticalPrefix(T, *Salvaged);
  std::remove(Path.c_str());
}

TEST(SalvageV4, WrappingFooterOffsetNeverReadsOutsideTheFile) {
  // A 184-byte v4 file: the real file header's magic and version, zeros,
  // then a trailer whose footer offset is 2^64 - 8. With 5 segments the
  // footer is 168 bytes, so offset + footer bytes wraps to exactly the
  // trailer position (184 - 24) — a bounds test written as that sum
  // passes and hashes from 8 bytes before the mapping.
  Trace T = traceOf("class A { } main { var a = new A(); }");
  std::string Path = tempPath("v4_wrap");
  ASSERT_TRUE(writeTrace(T, Path));
  std::vector<uint8_t> Real = readAll(Path);
  ASSERT_GE(Real.size(), 8u);
  std::vector<uint8_t> Bytes(184, 0);
  std::copy(Real.begin(), Real.begin() + 8, Bytes.begin());
  uint64_t FooterOffset = ~uint64_t{0} - 7;
  uint32_t NumSegments = 5, TrailerMagic = 0x52505445; // "RPTE"
  std::memcpy(Bytes.data() + 160, &FooterOffset, 8);
  std::memcpy(Bytes.data() + 176, &NumSegments, 4);
  std::memcpy(Bytes.data() + 180, &TrailerMagic, 4);
  ASSERT_TRUE(writeAll(Path, Bytes));

  Expected<uint64_t> Digest = traceFileDigest(Path);
  EXPECT_TRUE(bool(Digest)) << Digest.error().render();
  for (bool Salvage : {false, true}) {
    ReadOptions Options;
    Options.Salvage = Salvage;
    Expected<Trace> Loaded = readTrace(Path, nullptr, Options);
    ASSERT_FALSE(bool(Loaded)) << "salvage " << Salvage;
    EXPECT_EQ(Loaded.error().Class, ErrClass::Corrupt);
    EXPECT_EQ(Loaded.error().Code,
              Salvage ? "trace.unsalvageable" : "trace.section");
  }
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Retry policy (the --retry-policy / RPRISM_RETRY_POLICY surface)
//===----------------------------------------------------------------------===//

TEST(RetryPolicy, ParseAcceptsEitherKeyAloneOrBoth) {
  RetryPolicy P;
  std::string Error;
  ASSERT_TRUE(parseRetryPolicy("attempts=5", P, &Error)) << Error;
  EXPECT_EQ(P.MaxAttempts, 5u);
  EXPECT_EQ(P.BackoffMicros, 100u); // Unmentioned key keeps its value.
  ASSERT_TRUE(parseRetryPolicy("base_ms=2", P, &Error)) << Error;
  EXPECT_EQ(P.MaxAttempts, 5u);
  EXPECT_EQ(P.BackoffMicros, 2000u);
  ASSERT_TRUE(parseRetryPolicy("attempts=1,base_ms=0", P, &Error)) << Error;
  EXPECT_EQ(P.MaxAttempts, 1u);
  EXPECT_EQ(P.BackoffMicros, 0u);
}

TEST(RetryPolicy, MalformedSpecsAreAllOrNothing) {
  RetryPolicy P;
  P.MaxAttempts = 9;
  P.BackoffMicros = 350;
  const RetryPolicy Before = P;
  for (const char *Bad :
       {"", "attempts=0", "attempts=", "attempts=x", "attempts",
        "bogus=1", "attempts=2,attempts=3", "base_ms=7,base_ms=8",
        "attempts=2,", "attempts=2,,base_ms=1", "base_ms=4294968",
        "attempts=99999999999"}) {
    SCOPED_TRACE(Bad);
    std::string Error;
    EXPECT_FALSE(parseRetryPolicy(Bad, P, &Error));
    EXPECT_FALSE(Error.empty());
    // The mirror of the fault-spec contract: failure leaves P untouched.
    EXPECT_EQ(P.MaxAttempts, Before.MaxAttempts);
    EXPECT_EQ(P.BackoffMicros, Before.BackoffMicros);
  }
}

TEST(RetryPolicy, ProcessWidePolicyRoundTripsAndGovernsLoads) {
  const RetryPolicy Saved = ioRetryPolicy();
  RetryPolicy Custom;
  Custom.MaxAttempts = 7;
  Custom.BackoffMicros = 250;
  setIoRetryPolicy(Custom);
  RetryPolicy Got = ioRetryPolicy();
  EXPECT_EQ(Got.MaxAttempts, 7u);
  EXPECT_EQ(Got.BackoffMicros, 250u);

  // attempts=1 means "no retries": the transient open failure that the
  // default policy absorbs (DegradationLadder.TransientOpenFailureIsRetried)
  // now surfaces as a typed I/O error, and no retry is counted.
  Trace T = traceOf("class A { } main { var a = new A(); }");
  std::string Path = tempPath("retry_policy");
  ASSERT_TRUE(writeTrace(T, Path));
  RetryPolicy One;
  One.MaxAttempts = 1;
  One.BackoffMicros = 0;
  setIoRetryPolicy(One);
  TelemetryWindow W;
  {
    ScopedFaultInjection Arm(7);
    FaultInjector::get().configure(FaultSite::FileOpen, 0.0, /*OneShotAt=*/0);
    Expected<Trace> Loaded = readTrace(Path, nullptr);
    ASSERT_FALSE(bool(Loaded));
    EXPECT_EQ(Loaded.error().Class, ErrClass::Io);
  }
  EXPECT_EQ(W.counter("robust.io_retry"), 0u);
  setIoRetryPolicy(Saved);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// armFromSpec (the --fault-spec / RPRISM_FAULT_SPEC surface)
//===----------------------------------------------------------------------===//

TEST(FaultSpec, ValidSpecArmsExactlyLikeArmPlusConfigure) {
  FaultInjector &FI = FaultInjector::get();
  std::string Error;
  ASSERT_TRUE(FI.armFromSpec("seed=7,file-open:1.0", &Error)) << Error;
  EXPECT_TRUE(FaultInjector::enabled());
  EXPECT_TRUE(FaultInjector::fire(FaultSite::FileOpen));
  // Unconfigured sites stay quiet.
  EXPECT_FALSE(FaultInjector::fire(FaultSite::CacheInsert));
  FI.disarm();
}

TEST(FaultSpec, OneShotClauseFiresExactlyThatOccurrence) {
  FaultInjector &FI = FaultInjector::get();
  std::string Error;
  ASSERT_TRUE(FI.armFromSpec("seed=1,cache-insert:0@2", &Error)) << Error;
  EXPECT_FALSE(FaultInjector::fire(FaultSite::CacheInsert));
  EXPECT_FALSE(FaultInjector::fire(FaultSite::CacheInsert));
  EXPECT_TRUE(FaultInjector::fire(FaultSite::CacheInsert));
  EXPECT_FALSE(FaultInjector::fire(FaultSite::CacheInsert));
  EXPECT_EQ(FI.injected(FaultSite::CacheInsert), 1u);
  FI.disarm();
}

TEST(FaultSpec, SameSpecSeedReplaysTheSameSchedule) {
  FaultInjector &FI = FaultInjector::get();
  auto Schedule = [&] {
    std::vector<bool> Fires;
    for (unsigned I = 0; I != 64; ++I)
      Fires.push_back(FaultInjector::fire(FaultSite::FileRead));
    return Fires;
  };
  ASSERT_TRUE(FI.armFromSpec("seed=42,file-read:0.3"));
  std::vector<bool> First = Schedule();
  ASSERT_TRUE(FI.armFromSpec("seed=42,file-read:0.3"));
  EXPECT_EQ(Schedule(), First);
  FI.disarm();
}

TEST(FaultSpec, MalformedSpecsNeverArm) {
  FaultInjector &FI = FaultInjector::get();
  FI.disarm();
  const char *Bad[] = {
      "bogus",                    // not a clause at all
      "nope:0.5",                 // unknown site
      "file-open:2.0",            // probability out of range
      "file-open:x",              // probability not a number
      "seed=z",                   // bad seed
      "stall=z",                  // bad stall
      "file-open:0.5@y",          // bad occurrence index
      "seed=3,file-open:0.5,junk" // valid prefix, malformed tail
  };
  for (const char *Spec : Bad) {
    std::string Error;
    EXPECT_FALSE(FI.armFromSpec(Spec, &Error)) << Spec;
    EXPECT_FALSE(Error.empty()) << Spec;
    EXPECT_FALSE(FaultInjector::enabled())
        << "malformed spec '" << Spec << "' must not leave the injector armed";
  }
}

TEST(FaultSpec, EmptyAndWhitespaceFreeClausesAreTolerated) {
  // Empty spec and stray commas arm with defaults (seed 0, nothing
  // configured) — a no-op injector, not an error.
  FaultInjector &FI = FaultInjector::get();
  ASSERT_TRUE(FI.armFromSpec(""));
  EXPECT_TRUE(FaultInjector::enabled());
  EXPECT_FALSE(FaultInjector::fire(FaultSite::FileOpen));
  ASSERT_TRUE(FI.armFromSpec("seed=5,,file-mmap:1.0"));
  EXPECT_TRUE(FaultInjector::fire(FaultSite::FileMmap));
  FI.disarm();
}

} // namespace
