//===- tests/RobustnessTest.cpp - Hostile trace files and derived sections ===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the ingestion hardening contracts (docs/ROBUSTNESS.md):
///
///   1. Every section of a trace file, and its header and section table,
///      survives the corruption matrix — truncation, payload bit flips,
///      checksum-record tampering, oversized lengths — never with a crash:
///      damage to a primary section, the header or the table is a typed
///      Corrupt error, and damage to a derived section (the fingerprint
///      lane, the view index) loads the undamaged trace.
///   2. Untrusted ids and keys (representation rows, argument ids, tids,
///      store locations) are range-checked or bounded.
///   3. Only a regular file is read: a directory or a FIFO is a typed Io
///      error, and a missing or empty file keeps its own code.
///   4. Derived sections: a damaged fingerprint lane is recomputed and a
///      damaged view index dropped, each reported and counted, and no
///      hostile view count sizes an allocation.
///
//===----------------------------------------------------------------------===//

#include "TraceFileLayout.h"

#include "runtime/Compiler.h"
#include "runtime/Vm.h"
#include "support/Telemetry.h"
#include "trace/Serialize.h"
#include "diff/ViewsDiff.h"
#include "trace/TraceError.h"
#include "trace/ValueHash.h"
#include "trace/ViewIndex.h"
#include "views/Views.h"
#include "workload/Generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

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

SectionRec findSection(const std::vector<SectionRec> &Table, uint32_t Id) {
  auto It = std::find_if(Table.begin(), Table.end(),
                         [Id](const SectionRec &R) { return R.Id == Id; });
  EXPECT_TRUE(It != Table.end()) << "section " << Id;
  return It != Table.end() ? *It : SectionRec();
}

/// Asserts that \p Got holds \p Want's entries: the same renderings and
/// the same fingerprints, entry for entry.
void expectSameEntries(const Trace &Want, const Trace &Got) {
  ASSERT_EQ(Got.size(), Want.size());
  for (uint32_t I = 0; I != Want.size(); ++I) {
    ASSERT_EQ(Got.renderEntry(I), Want.renderEntry(I)) << I;
    ASSERT_EQ(Got.fp(I), Want.fp(I)) << I;
  }
}

//===----------------------------------------------------------------------===//
// Corruption matrix: every section, the header and the table x every
// mutation
//===----------------------------------------------------------------------===//

TEST(CorruptionMatrix, EverySectionEveryMutation) {
  auto Strings = std::make_shared<StringInterner>();
  Trace T = workloadTrace(Strings);
  ASSERT_GT(T.size(), 0u);
  std::string Base = tempPath("matrix_base");
  ASSERT_TRUE(writeTrace(T, Base, /*WithViewIndex=*/true));
  std::vector<uint8_t> Good = readAll(Base);
  std::vector<SectionRec> Table = sections(Good);
  ASSERT_GE(Table.size(), 19u) << "expected all sections present";
  // Among them the three representation-id columns (self, target, value),
  // the argument-id slice and both representation-table deltas.
  for (uint32_t Id : {12u, 15u, 16u, 26u, 27u, 28u})
    findSection(Table, Id);

  // The undamaged trace as loaded, to hold every derived-section mutant
  // to: the same entries, renderings and fingerprints.
  Expected<Trace> Ref = readTrace(Base, nullptr);
  ASSERT_TRUE(bool(Ref)) << Ref.error().render();

  std::string Mutant = tempPath("matrix_mut");
  enum Mutation { Truncate, FlipPayload, FlipChecksum, OversizeLength };
  // The typed error each mutation gives a primary section.
  const char *const PrimaryCode[] = {
      "trace.truncated", "trace.section_checksum", "trace.section_checksum",
      "trace.section_bounds"};
  for (const SectionRec &Sec : Table) {
    // The fingerprint lane (21) and the view index (22, 23) are derived.
    bool IsDerived = Sec.Id >= 21 && Sec.Id <= 23;
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
      // The header checksum seals the section table; reseal it after a
      // record edit so the edit reaches the per-section checks (unsealed,
      // the header check alone rejects the file).
      if (M == FlipChecksum || M == OversizeLength)
        resealHeader(Bytes);
      ASSERT_TRUE(writeAll(Mutant, Bytes));
      SCOPED_TRACE("section " + std::to_string(Sec.Id) + " mutation " +
                   std::to_string(M));
      Expected<Trace> Loaded = readTrace(Mutant, nullptr);
      if (!IsDerived) {
        // A typed Corrupt error, never a crash and never a partial trace.
        ASSERT_FALSE(bool(Loaded));
        EXPECT_EQ(Loaded.error().Class, ErrClass::Corrupt)
            << Loaded.error().render();
        EXPECT_EQ(Loaded.error().Code, PrimaryCode[M])
            << Loaded.error().render();
        continue;
      }
      // Damage confined to derived data: the read drops what is damaged
      // and rebuilds it from the columns. The index survives only damage
      // to the lane alone (the lane comes first, so a cut there takes the
      // index too).
      ASSERT_TRUE(bool(Loaded)) << Loaded.error().render();
      EXPECT_EQ(Loaded->ViewIdx.Present, Sec.Id == 21 && M != Truncate);
      expectSameEntries(*Ref, *Loaded);
    }
  }

  // The header fields and the table records: a flipped byte is damage
  // to the header (its checksum seals them all), a cut there truncates
  // the file, and a byte past the declared length is refused too.
  const SectionRec &First = Table.front();
  for (size_t Pos : {ChecksumAt, EntriesAt, SectionsAt, LengthAt,
                     First.RecordPos, First.RecordPos + 4,
                     First.RecordPos + 8, First.RecordPos + 16,
                     First.RecordPos + 24}) {
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
      if (Cut) {
        EXPECT_EQ(Loaded.error().Code, "trace.truncated");
      } else {
        // Even a flipped entry count or record pad, which leaves every
        // section intact, is refused: nothing about the file is trusted
        // past a header that fails its checksum.
        EXPECT_EQ(Loaded.error().Code, "trace.section");
        EXPECT_NE(Loaded.error().render().find("header"), std::string::npos)
            << Loaded.error().render();
      }
    }
  }
  std::vector<uint8_t> Longer = Good;
  Longer.push_back(0);
  ASSERT_TRUE(writeAll(Mutant, Longer));
  Expected<Trace> Loaded = readTrace(Mutant, nullptr);
  ASSERT_FALSE(bool(Loaded));
  EXPECT_EQ(Loaded.error().Code, "trace.section");
  EXPECT_NE(Loaded.error().render().find("file-size"), std::string::npos)
      << Loaded.error().render();
  std::remove(Base.c_str());
  std::remove(Mutant.c_str());
}

TEST(CorruptionMatrix, WrappingHeaderNeverReadsOutsideTheFile) {
  // A 184-byte file: the real magic and version, then a header declaring
  // a length of 2^64 - 8 and 0x07FFFFFF sections, whose table ends at
  // 32 + 0x07FFFFFF * 32 = 2^32 bytes — a bound computed in 32 bits wraps
  // to 0 and lets the table be read from outside the file.
  Trace T = traceOf("class A { } main { var a = new A(); }");
  std::string Path = tempPath("wrap");
  ASSERT_TRUE(writeTrace(T, Path));
  std::vector<uint8_t> Real = readAll(Path);
  ASSERT_GE(Real.size(), 8u);
  std::vector<uint8_t> Bytes(184, 0);
  std::copy(Real.begin(), Real.begin() + 8, Bytes.begin());
  storeLE<uint32_t>(Bytes.data() + SectionsAt, 0x07FFFFFFu);
  storeLE<uint64_t>(Bytes.data() + LengthAt, ~uint64_t{0} - 7);
  ASSERT_TRUE(writeAll(Path, Bytes));

  Expected<uint64_t> Digest = traceFileDigest(Path);
  EXPECT_TRUE(bool(Digest)) << Digest.error().render();
  Expected<Trace> Loaded = readTrace(Path, nullptr);
  ASSERT_FALSE(bool(Loaded));
  EXPECT_EQ(Loaded.error().Class, ErrClass::Corrupt);
  EXPECT_EQ(Loaded.error().Code, "trace.section");
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Untrusted ids: representation rows, argument ids, tids, view keys
//===----------------------------------------------------------------------===//

/// Overwrites u32 element \p Index of section \p Id's payload and reseals
/// the checksums, so only the reader's value checks can object.
void patchU32(std::vector<uint8_t> &Bytes, uint32_t Id, size_t Index,
              uint32_t Value) {
  SectionRec R = section(Bytes, Id);
  ASSERT_EQ(R.Id, Id);
  ASSERT_GE(R.Length, 4 * (Index + 1));
  storeLE(Bytes.data() + R.Offset + 4 * Index, Value);
  resealSection(Bytes, R);
}

TEST(RowIds, OutOfRangeIdIsCorrupt) {
  auto Strings = std::make_shared<StringInterner>();
  Trace T = workloadTrace(Strings);
  std::string Base = tempPath("ids_base"), Path = tempPath("ids_mut");
  ASSERT_TRUE(writeTrace(T, Base));
  std::vector<uint8_t> Good = readAll(Base);
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
      patchU32(Bytes, C.Id, K, Bad);
      ASSERT_TRUE(writeAll(Path, Bytes));
      Expected<Trace> Loaded = readTrace(Path, Strings);
      ASSERT_FALSE(bool(Loaded));
      EXPECT_EQ(Loaded.error().Code, "trace.section");
    }
  }
  std::remove(Base.c_str());
  std::remove(Path.c_str());
}

TEST(RowIds, OutOfRangeArgumentIdIsCorrupt) {
  // Argument ids travel in the argument pool, a side table that every
  // entry's argument slice points into: one out of range fails the read.
  auto Strings = std::make_shared<StringInterner>();
  Trace T = workloadTrace(Strings);
  std::string Path = tempPath("ids_args");
  ASSERT_TRUE(writeTrace(T, Path));
  std::vector<uint8_t> Bytes = readAll(Path);
  ASSERT_GT(section(Bytes, 26).Length, 0u) << "the trace passes no arguments";
  patchU32(Bytes, 26, 0, static_cast<uint32_t>(T.ValueReprs.size()));
  ASSERT_TRUE(writeAll(Path, Bytes));

  Expected<Trace> Loaded = readTrace(Path, Strings);
  ASSERT_FALSE(bool(Loaded));
  EXPECT_EQ(Loaded.error().Code, "trace.section");
  EXPECT_NE(Loaded.error().render().find("argument-pool"), std::string::npos)
      << Loaded.error().render();
  std::remove(Path.c_str());
}

TEST(RowIds, RowsAreCheckedOnceAndRowZeroIsEmpty) {
  auto Strings = std::make_shared<StringInterner>();
  Trace T = workloadTrace(Strings);
  std::string Base = tempPath("rows_base"), Path = tempPath("rows_mut");
  ASSERT_TRUE(writeTrace(T, Base));
  std::vector<uint8_t> Good = readAll(Base);
  // Tables: 24-byte ObjRepr rows (ClassName at +12) or 16-byte ValueRepr
  // rows (Text at +8, Kind at +12).
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
    patchU32(Bytes, P.Id, P.Byte / 4, P.Value);
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
    E.Ev.Value.Hash = intValueHash(I);
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
  Expected<Trace> Loaded = readTrace(Path, Strings);
  ASSERT_FALSE(bool(Loaded));
  EXPECT_EQ(Loaded.error().Code, "trace.section");
  EXPECT_NE(Loaded.error().render().find("corrupt tid section"),
            std::string::npos)
      << Loaded.error().render();
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
// Opening: only a regular file is read
//===----------------------------------------------------------------------===//

TEST(TraceOpen, OnlyARegularFileIsRead) {
  // A directory and a FIFO without a writer are refused with trace.open,
  // by the read and by the digest alike: neither blocks, and no size taken
  // from them sizes an allocation.
  std::string Dir = tempPath("dir");
  std::string Fifo = tempPath("fifo");
  std::string Empty = tempPath("empty");
  ::rmdir(Dir.c_str());
  std::remove(Fifo.c_str());
  ASSERT_EQ(::mkdir(Dir.c_str(), 0700), 0);
  ASSERT_EQ(::mkfifo(Fifo.c_str(), 0600), 0);
  ASSERT_TRUE(writeAll(Empty, {}));
  struct Case {
    std::string Path;
    ErrClass Class;
    const char *Code;
  };
  const Case Cases[] = {
      {Dir, ErrClass::Io, "trace.open"},
      {Fifo, ErrClass::Io, "trace.open"},
      {tempPath("missing"), ErrClass::Io, "trace.not_found"},
      {Empty + "/t.rpt", ErrClass::Io, "trace.not_found"},
      {Empty, ErrClass::Corrupt, "trace.magic"},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Path);
    Expected<Trace> Loaded = readTrace(C.Path, nullptr);
    ASSERT_FALSE(bool(Loaded));
    EXPECT_EQ(Loaded.error().Class, C.Class);
    EXPECT_EQ(Loaded.error().Code, C.Code);
    Expected<uint64_t> Digest = traceFileDigest(C.Path);
    ASSERT_FALSE(bool(Digest));
    EXPECT_EQ(Digest.error().Class, C.Class);
    EXPECT_EQ(Digest.error().Code, C.Code);
  }
  ::rmdir(Dir.c_str());
  std::remove(Fifo.c_str());
  std::remove(Empty.c_str());
}

//===----------------------------------------------------------------------===//
// Derived sections: the fingerprint lane and the view index
//===----------------------------------------------------------------------===//

TEST(DerivedSections, DamagedFingerprintLaneIsRecomputed) {
  // A flipped lane byte, and a resealed lane one entry short: either way
  // the stored fingerprints cannot be trusted, so the read drops the lane,
  // recomputes it from the columns, reports the drop and counts the
  // recompute. The view index is intact and kept.
  auto Strings = std::make_shared<StringInterner>();
  Trace T = workloadTrace(Strings);
  std::string Path = tempPath("fp_lane");
  ASSERT_TRUE(writeTrace(T, Path));
  std::vector<uint8_t> Good = readAll(Path);
  SectionRec Fp = section(Good, 21);
  ASSERT_EQ(Fp.Length, T.size() * 8);
  for (bool Short : {false, true}) {
    SCOPED_TRACE(Short ? "short lane" : "flipped byte");
    std::vector<uint8_t> Bytes = Good;
    if (Short) {
      SectionRec Lane = Fp;
      Lane.Length -= 8;
      storeLE<uint64_t>(Bytes.data() + Lane.RecordPos + 16, Lane.Length);
      resealSection(Bytes, Lane);
    } else {
      Bytes[static_cast<size_t>(Fp.Offset + Fp.Length / 2)] ^= 0x40;
    }
    ASSERT_TRUE(writeAll(Path, Bytes));

    TelemetryWindow W;
    TraceReadReport Report;
    Expected<Trace> Loaded = readTrace(Path, nullptr, &Report);
    ASSERT_TRUE(bool(Loaded)) << Loaded.error().render();
    EXPECT_TRUE(Report.FingerprintsDropped);
    EXPECT_FALSE(Report.ViewIndexDropped);
    EXPECT_TRUE(Loaded->ViewIdx.Present);
    EXPECT_FALSE(Loaded->Fps.borrowed());
    EXPECT_EQ(W.counter("load.fp_recompute"), 1u);
    EXPECT_EQ(W.counter("robust.view_index_dropped"), 0u);
    expectSameEntries(T, *Loaded);
  }
  std::remove(Path.c_str());
}

TEST(DerivedSections, OnlyACutThroughDerivedSectionsLoads) {
  auto Strings = std::make_shared<StringInterner>();
  Trace T = workloadTrace(Strings);
  std::string Base = tempPath("cut_base");
  ASSERT_TRUE(writeTrace(T, Base, /*WithViewIndex=*/true));
  std::vector<uint8_t> Good = readAll(Base);

  // Cut points from the file's section table. The derived sections — the
  // fingerprint lane, then the view index — are the last payloads, so a
  // cut inside one of them takes only derived data: every entry loads and
  // the lost sections are rebuilt. A cut that takes only the final
  // padding loses nothing. A cut into any primary payload is
  // trace.truncated.
  std::vector<SectionRec> Table = sections(Good);
  SectionRec Value = findSection(Table, 16), Prov = findSection(Table, 20),
             Fp = findSection(Table, 21), Entries = findSection(Table, 23);
  const uint64_t EntriesEnd = Entries.Offset + Entries.Length;
  ASSERT_LT(EntriesEnd, Good.size()) << "the file has no final padding";
  struct Cut {
    const char *What;
    uint64_t Bytes;
    bool Loads;
    bool LaneDropped;
    bool IndexDropped;
  } Cuts[] = {
      {"mid-value", Value.Offset + Value.Length / 2, false, false, false},
      {"mid-prov", Prov.Offset + Prov.Length / 2, false, false, false},
      {"mid-fp", Fp.Offset + Fp.Length / 2, true, true, true},
      {"view-entries tail", EntriesEnd - 4, true, false, true},
      {"final padding", EntriesEnd, true, false, false},
  };
  std::string CutPath = tempPath("cut");
  for (const Cut &C : Cuts) {
    SCOPED_TRACE(C.What);
    std::vector<uint8_t> Bytes = Good;
    Bytes.resize(static_cast<size_t>(C.Bytes));
    ASSERT_TRUE(writeAll(CutPath, Bytes));

    TelemetryWindow W;
    TraceReadReport Report;
    Expected<Trace> Loaded = readTrace(CutPath, Strings, &Report);
    if (!C.Loads) {
      ASSERT_FALSE(bool(Loaded));
      EXPECT_EQ(Loaded.error().Code, "trace.truncated");
      continue;
    }
    ASSERT_TRUE(bool(Loaded)) << Loaded.error().render();
    EXPECT_EQ(Report.FingerprintsDropped, C.LaneDropped);
    EXPECT_EQ(Report.ViewIndexDropped, C.IndexDropped);
    EXPECT_EQ(Loaded->ViewIdx.Present, !C.IndexDropped);
    EXPECT_EQ(W.counter("load.fp_recompute"), C.LaneDropped ? 1u : 0u);
    EXPECT_EQ(W.counter("robust.view_index_dropped"),
              C.IndexDropped ? 1u : 0u);
    expectSameEntries(T, *Loaded);
  }
  std::remove(Base.c_str());
  std::remove(CutPath.c_str());
}

TEST(DerivedSections, HostileViewCountIsNeverReserved) {
  // The view meta declares 0xE0000000 views in its first family, its
  // checksum and the header resealed, the entry count the real one. The
  // strict read reaches the index's bounds and drops it without reserving
  // the view count; every entry loads.
  auto Strings = std::make_shared<StringInterner>();
  Trace T = workloadTrace(Strings);
  std::string Path = tempPath("hostile_views");
  ASSERT_TRUE(writeTrace(T, Path));
  std::vector<uint8_t> Bytes = readAll(Path);
  patchU32(Bytes, 22, 0, 0xE0000000u);
  ASSERT_TRUE(writeAll(Path, Bytes));

  TelemetryWindow W;
  TraceReadReport Report;
  Expected<Trace> Loaded = readTrace(Path, Strings, &Report);
  ASSERT_TRUE(bool(Loaded)) << Loaded.error().render();
  EXPECT_TRUE(Report.ViewIndexDropped);
  EXPECT_FALSE(Report.FingerprintsDropped);
  EXPECT_FALSE(Loaded->ViewIdx.Present);
  EXPECT_EQ(W.counter("robust.view_index_dropped"), 1u);
  expectSameEntries(T, *Loaded);
  std::remove(Path.c_str());
}

} // namespace
