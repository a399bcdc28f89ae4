//===- tests/TraceTest.cpp - Trace model and serialization tests ----------===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//

#include "TraceFileLayout.h"

#include "diff/ViewsDiff.h"
#include "runtime/Compiler.h"
#include "support/Telemetry.h"
#include "runtime/Vm.h"
#include "support/Rng.h"
#include "trace/Serialize.h"
#include "trace/ValueHash.h"
#include "trace/ViewIndex.h"
#include "workload/Corpus.h"
#include "workload/Generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <unistd.h>

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

/// A unique temp path per test.
std::string tempPath(const std::string &Tag) {
  return "/tmp/rprism_test_" + Tag + "_" +
         std::to_string(::getpid());
}

//===----------------------------------------------------------------------===//
// Object / value representation equality
//===----------------------------------------------------------------------===//

TEST(Repr, ObjReprEqualityUsesValueHashWhenPresent) {
  ObjRepr A;
  A.ClassName = Symbol{3};
  A.HasRepr = true;
  A.ValueHash = 111;
  A.CreationSeq = 1;
  ObjRepr B = A;
  B.Loc = 999; // Locations never participate in equality.
  EXPECT_TRUE(reprEquals(A, B));

  B.ValueHash = 222;
  EXPECT_FALSE(reprEquals(A, B));

  // Different classes never correlate.
  B = A;
  B.ClassName = Symbol{4};
  EXPECT_FALSE(reprEquals(A, B));
}

TEST(Repr, ObjReprFallsBackToCreationSeq) {
  ObjRepr A;
  A.ClassName = Symbol{3};
  A.HasRepr = false;
  A.CreationSeq = 5;
  A.ValueHash = 1;
  ObjRepr B = A;
  B.ValueHash = 2; // Irrelevant without HasRepr.
  EXPECT_TRUE(reprEquals(A, B));
  B.CreationSeq = 6;
  EXPECT_FALSE(reprEquals(A, B));
}

TEST(Repr, MixedHasReprFallsBackToSeq) {
  ObjRepr A;
  A.ClassName = Symbol{3};
  A.HasRepr = true;
  A.ValueHash = 42;
  A.CreationSeq = 2;
  ObjRepr B = A;
  B.HasRepr = false;
  EXPECT_TRUE(reprEquals(A, B)); // Seq 2 == 2.
}

TEST(Repr, ValueReprEquality) {
  ValueRepr A;
  A.Kind = ReprKind::Int;
  A.Hash = 10;
  A.Text = Symbol{1};
  ValueRepr B = A;
  B.Text = Symbol{2}; // Text not compared.
  EXPECT_TRUE(reprEquals(A, B));
  B.Hash = 11;
  EXPECT_FALSE(reprEquals(A, B));
  B = A;
  B.Kind = ReprKind::Float;
  EXPECT_FALSE(reprEquals(A, B));
}

//===----------------------------------------------------------------------===//
// eventEquals (=e)
//===----------------------------------------------------------------------===//

TEST(EventEquals, CountsCompareOps) {
  auto Strings = std::make_shared<StringInterner>();
  Trace T = traceOf("class A { Int m() { return 1; } } "
                    "main { print(new A().m()); }",
                    Strings);
  ASSERT_GE(T.size(), 2u);
  CompareCounter Ops;
  eventEquals(T, 0u, T, 0u, &Ops);
  eventEquals(T, 0u, T, 1u, &Ops);
  EXPECT_EQ(Ops.Count, 2u);
}

TEST(EventEquals, SelfEqualityHoldsForEveryEntry) {
  auto Strings = std::make_shared<StringInterner>();
  Trace T = traceOf(R"(
    class W { Int v; W(Int v) { this.v = v; }
      Unit go() { this.v = this.v * 2; return unit; } }
    main { var w = new W(3); w.go(); spawn w.go(); }
  )",
                    Strings);
  for (uint32_t Eid = 0; Eid != T.size(); ++Eid)
    EXPECT_TRUE(eventEquals(T, Eid, T, Eid)) << T.renderEntry(Eid);
}

TEST(EventEquals, DistinguishesValues) {
  auto Strings = std::make_shared<StringInterner>();
  Trace A = traceOf("class B { Int v; B(Int v) { this.v = v; } } "
                    "main { var b = new B(1); }",
                    Strings);
  Trace B = traceOf("class B { Int v; B(Int v) { this.v = v; } } "
                    "main { var b = new B(2); }",
                    Strings);
  // Init events differ (argument 1 vs 2).
  EXPECT_FALSE(eventEquals(A, 0u, B, 0u));
}

TEST(EventEquals, IndexAndEntryOverloadsAgree) {
  auto Strings = std::make_shared<StringInterner>();
  Trace T = traceOf(R"(
    class W { Int v; W(Int v) { this.v = v; }
      Unit go() { this.v = this.v + 1; return unit; } }
    main { var w = new W(3); w.go(); w.go(); spawn w.go(); }
  )",
                    Strings);
  for (uint32_t A = 0; A != T.size(); ++A)
    for (uint32_t B = 0; B != T.size(); ++B)
      EXPECT_EQ(eventEquals(T, A, T, B),
                eventEquals(T, T.entry(A), T, T.entry(B)))
          << T.renderEntry(A) << " vs " << T.renderEntry(B);
}

//===----------------------------------------------------------------------===//
// Columnar storage
//===----------------------------------------------------------------------===//

TEST(Columnar, EntryMaterializationScattersAndGathers) {
  auto Strings = std::make_shared<StringInterner>();
  Trace T = traceOf(R"(
    class P { Int x; P(Int x) { this.x = x; } }
    main { var p = new P(9); print(p.x); }
  )",
                    Strings);
  ASSERT_GT(T.size(), 0u);
  for (uint32_t Eid = 0; Eid != T.size(); ++Eid) {
    TraceEntry Entry = T.entry(Eid);
    EXPECT_EQ(Entry.Eid, Eid);
    EXPECT_EQ(Entry.Tid, T.tid(Eid));
    EXPECT_EQ(Entry.Method, T.method(Eid));
    EXPECT_EQ(Entry.Ev.Kind, T.kind(Eid));
    EXPECT_EQ(Entry.Ev.Name, T.name(Eid));
    EXPECT_EQ(Entry.Ev.ArgsEnd - Entry.Ev.ArgsBegin, T.numArgs(Eid));
    EXPECT_TRUE(reprEquals(Entry.Ev.Target, T.target(Eid)));
    EXPECT_EQ(Entry.Fp, T.fp(Eid));
  }
  // Appending a materialized entry scatters it back unchanged. Its
  // argument slice indexes the copy's pool, so that is rebuilt first.
  Trace Copy;
  Copy.Strings = T.Strings;
  Copy.Threads = T.Threads;
  for (uint32_t Eid = 0; Eid != T.size(); ++Eid)
    for (uint32_t I = 0; I != T.numArgs(Eid); ++I)
      Copy.ArgIds.push_back(Copy.addValueRepr(T.arg(Eid, I)));
  for (uint32_t Eid = 0; Eid != T.size(); ++Eid)
    Copy.append(T.entry(Eid));
  ASSERT_EQ(Copy.size(), T.size());
  Copy.computeFingerprints();
  for (uint32_t Eid = 0; Eid != T.size(); ++Eid) {
    EXPECT_TRUE(eventEquals(T, Eid, Copy, Eid));
    EXPECT_EQ(T.fp(Eid), Copy.fp(Eid));
  }
}

/// Lines of /proc/self/maps, one per mapping of this process (0 where the
/// file is missing).
size_t mappingCount() {
  std::FILE *Maps = std::fopen("/proc/self/maps", "r");
  if (!Maps)
    return 0;
  size_t Lines = 0;
  for (int C; (C = std::fgetc(Maps)) != EOF;)
    Lines += C == '\n';
  std::fclose(Maps);
  return Lines;
}

TEST(Columnar, HugeColumnKeepsItsBytesAndReleasesItsMapping) {
  // Past one huge page from its first allocation, so every buffer this
  // column and its copies own is a mapping where huge pages are available.
  const size_t N = detail::HugeColumnBytes / sizeof(uint64_t) + 1000;
  auto Value = [](size_t I) { return I * 0x9E3779B97F4A7C15ull; };
  auto Holds = [&](const Column<uint64_t> &C, size_t Len) {
    if (C.size() != Len || C.borrowed())
      return false;
    for (size_t I = 0; I != Len; ++I)
      if (C[I] != Value(I))
        return false;
    return true;
  };
  size_t Before = 0;
  for (int Warm = 0; Warm != 2; ++Warm)
    Before = mappingCount();
  {
    Column<uint64_t> C;
    C.resize(N);
    uint64_t *Data = C.mutData();
    for (size_t I = 0; I != N; ++I)
      Data[I] = Value(I);
    if (detail::hugeColumnsAvailable()) {
      EXPECT_EQ(reinterpret_cast<uintptr_t>(C.data()) %
                    detail::HugeColumnBytes,
                0u)
          << "a huge column starts on a huge-page boundary";
    }
    // Growth past the capacity copies into a larger buffer.
    for (size_t I = N; I != 2 * N; ++I)
      C.push_back(Value(I));
    EXPECT_TRUE(Holds(C, 2 * N));

    Column<uint64_t> Copy(C);
    EXPECT_NE(Copy.data(), C.data());
    EXPECT_TRUE(Holds(Copy, 2 * N));
    Column<uint64_t> Moved(std::move(Copy));
    EXPECT_TRUE(Holds(Moved, 2 * N));
    EXPECT_TRUE(Copy.empty());
    Column<uint64_t> Assigned;
    Assigned = Moved;
    EXPECT_TRUE(Holds(Assigned, 2 * N));

    // A borrowed view detaches into storage of its own.
    Column<uint64_t> Borrowed;
    Borrowed.borrow(C.data(), C.size());
    EXPECT_TRUE(Borrowed.borrowed());
    Borrowed.detach();
    EXPECT_NE(Borrowed.data(), C.data());
    EXPECT_TRUE(Holds(Borrowed, 2 * N));

    // clear empties the column; refilled, it holds the new bytes.
    C.clear();
    EXPECT_TRUE(C.empty());
    for (size_t I = 0; I != N; ++I)
      C.push_back(Value(I));
    EXPECT_TRUE(Holds(C, N));
  }
  if (detail::hugeColumnsAvailable()) {
    EXPECT_EQ(mappingCount(), Before) << "a released column kept its mapping";
  }
}

TEST(Columnar, RecordedTraceOnHugeColumnsRoundTrips) {
  // ~600K entries: every 4- and 8-byte entry column and the view index
  // pass 2 MiB, so recording, fingerprinting, writing and rewriting all run
  // on huge columns.
  GeneratorOptions Options;
  Options.OuterIters = 21500;
  Trace T = traceOf(generateProgram(Options));
  ASSERT_GT(T.Tids.byteSize(), detail::HugeColumnBytes);
  ASSERT_GT(T.Fps.byteSize(), detail::HugeColumnBytes);

  // The recorder's fingerprints are a recomputation's, and a deep copy
  // writes the same file.
  Trace Copy = T;
  Copy.computeFingerprints();
  EXPECT_TRUE(std::equal(T.Fps.begin(), T.Fps.end(), Copy.Fps.begin(),
                         Copy.Fps.end()));

  std::string Direct = tempPath("huge_direct");
  std::string Copied = tempPath("huge_copied");
  std::string Rewritten = tempPath("huge_rewritten");
  ASSERT_TRUE(writeTrace(T, Direct));
  ASSERT_TRUE(writeTrace(Copy, Copied));
  Expected<Trace> Loaded = readTrace(Direct, nullptr);
  ASSERT_TRUE(bool(Loaded)) << Loaded.error().render();
  ASSERT_TRUE(writeTrace(*Loaded, Rewritten));
  std::vector<uint8_t> Want = readAll(Direct);
  ASSERT_FALSE(Want.empty());
  EXPECT_TRUE(Want == readAll(Copied)) << "a copy writes other bytes";
  EXPECT_TRUE(Want == readAll(Rewritten)) << "bytes diverge after a reload";
  std::remove(Direct.c_str());
  std::remove(Copied.c_str());
  std::remove(Rewritten.c_str());
}

//===----------------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------------===//

/// Structural equality of traces via =e plus metadata.
void expectTracesEqual(const Trace &A, const Trace &B) {
  ASSERT_EQ(A.size(), B.size());
  for (uint32_t I = 0; I != A.size(); ++I) {
    EXPECT_TRUE(eventEquals(A, I, B, I))
        << "entry " << I << ": " << A.renderEntry(I) << " vs "
        << B.renderEntry(I);
    EXPECT_EQ(A.tid(I), B.tid(I));
    EXPECT_EQ(A.prov(I), B.prov(I));
    // Context strings must survive re-interning.
    EXPECT_EQ(A.Strings->text(A.method(I)), B.Strings->text(B.method(I)));
  }
  ASSERT_EQ(A.Threads.size(), B.Threads.size());
  for (size_t I = 0; I != A.Threads.size(); ++I) {
    EXPECT_EQ(A.Threads[I].ParentTid, B.Threads[I].ParentTid);
    EXPECT_EQ(A.Threads[I].AncestryHash, B.Threads[I].AncestryHash);
    EXPECT_EQ(A.Strings->text(A.Threads[I].EntryMethod),
              B.Strings->text(B.Threads[I].EntryMethod));
  }
}

TEST(Serialize, RoundTripPreservesEverything) {
  Trace T = traceOf(R"(
    class Node { Int v; Node next; Node(Int v) { this.v = v; this.next = null; } }
    class List { Node head; List() { this.head = null; }
      Unit push(Int v) { var n = new Node(v); n.next = this.head;
        this.head = n; return unit; } }
    main {
      var l = new List();
      var i = 0;
      while (i < 10) { l.push(i * i); i = i + 1; }
      spawn l.push(999);
    }
  )");
  std::string Path = tempPath("roundtrip");
  ASSERT_TRUE(writeTrace(T, Path));
  // Reload into a *fresh* interner: symbol ids will differ, text must not.
  Expected<Trace> Loaded = readTrace(Path, nullptr);
  ASSERT_TRUE(bool(Loaded)) << Loaded.error().render();
  expectTracesEqual(T, *Loaded);
  std::remove(Path.c_str());
}

TEST(Serialize, ColumnsLoadByteIdenticalAndZeroCopy) {
  Trace T = traceOf(R"(
    class A { Int x; A(Int x) { this.x = x; }
      Int bump() { this.x = this.x + 1; return this.x; } }
    main { var a = new A(7); a.bump(); a.bump(); spawn a.bump(); }
  )");
  ASSERT_TRUE(T.HasFingerprints);
  ASSERT_FALSE(T.ArgIds.empty());
  std::string Path = tempPath("column_bytes");
  ASSERT_TRUE(writeTrace(T, Path));

  // A fresh interner re-interns the file's strings in order, so symbol
  // ids are preserved and the loader takes the zero-copy borrow path:
  // Backing holds the file bytes, and every column — the fingerprints,
  // the argument pool, both representation tables and the view index
  // included — is borrowed, byte-identical, and nothing is
  // re-fingerprinted.
  Telemetry::get().reset();
  Telemetry::get().setEnabled(true);
  Expected<Trace> Loaded = readTrace(Path, nullptr);
  uint64_t Recomputes =
      Telemetry::get().snapshot().counter("load.fp_recompute");
  Telemetry::get().setEnabled(false);
  Telemetry::get().reset();
  ASSERT_TRUE(bool(Loaded)) << Loaded.error().render();
  EXPECT_EQ(Recomputes, 0u);
  EXPECT_TRUE(Loaded->Backing != nullptr);
  EXPECT_TRUE(Loaded->HasFingerprints);
  for (bool Borrowed :
       {Loaded->Tids.borrowed(), Loaded->Methods.borrowed(),
        Loaded->SelfIds.borrowed(), Loaded->Kinds.borrowed(),
        Loaded->Names.borrowed(), Loaded->TargetIds.borrowed(),
        Loaded->ValueIds.borrowed(), Loaded->ArgsBegins.borrowed(),
        Loaded->ArgsEnds.borrowed(), Loaded->ChildTids.borrowed(),
        Loaded->Provs.borrowed(), Loaded->Fps.borrowed(),
        Loaded->ArgIds.borrowed(), Loaded->ObjReprs.borrowed(),
        Loaded->ValueReprs.borrowed(), Loaded->ViewIdx.Entries.borrowed()})
    EXPECT_TRUE(Borrowed);
  ASSERT_TRUE(Loaded->ViewIdx.Present);

  ASSERT_EQ(Loaded->size(), T.size());
  auto ExpectColumnBytes = [](const auto &Want, const auto &Got) {
    ASSERT_EQ(Want.size(), Got.size());
    EXPECT_EQ(std::memcmp(Want.data(), Got.data(), Want.byteSize()), 0);
  };
  ExpectColumnBytes(T.Tids, Loaded->Tids);
  ExpectColumnBytes(T.Methods, Loaded->Methods);
  ExpectColumnBytes(T.SelfIds, Loaded->SelfIds);
  ExpectColumnBytes(T.Kinds, Loaded->Kinds);
  ExpectColumnBytes(T.Names, Loaded->Names);
  ExpectColumnBytes(T.TargetIds, Loaded->TargetIds);
  ExpectColumnBytes(T.ValueIds, Loaded->ValueIds);
  ExpectColumnBytes(T.ArgsBegins, Loaded->ArgsBegins);
  ExpectColumnBytes(T.ArgsEnds, Loaded->ArgsEnds);
  ExpectColumnBytes(T.ChildTids, Loaded->ChildTids);
  ExpectColumnBytes(T.Provs, Loaded->Provs);
  ExpectColumnBytes(T.Fps, Loaded->Fps);
  ExpectColumnBytes(T.ArgIds, Loaded->ArgIds);
  ExpectColumnBytes(T.ObjReprs, Loaded->ObjReprs);
  ExpectColumnBytes(T.ValueReprs, Loaded->ValueReprs);
  ViewIndex Want = computeViewIndex(T);
  ExpectColumnBytes(Want.Entries, Loaded->ViewIdx.Entries);
  for (size_t F = 0; F != NumViewFamilies; ++F) {
    ExpectColumnBytes(Want.Keys[F], Loaded->ViewIdx.Keys[F]);
    ExpectColumnBytes(Want.Counts[F], Loaded->ViewIdx.Counts[F]);
  }

  // Mutating a borrowed column detaches it without touching the mapping:
  // the loaded trace keeps working after the original is gone.
  Trace Detached = *Loaded;
  Detached.Tids.mut(0) = 77;
  EXPECT_EQ(Loaded->tid(0), T.tid(0));
  EXPECT_EQ(Detached.tid(0), 77u);
  std::remove(Path.c_str());
}

TEST(Serialize, RefusesUnsupportedVersions) {
  Trace T = traceOf(R"(
    class A { Int x; A(Int x) { this.x = x; }
      Int bump() { this.x = this.x + 1; return this.x; } }
    main { var a = new A(3); a.bump(); spawn a.bump(); print(a.x); }
  )");
  // Bytes 4-7 hold the version; readers accept exactly 8. The retired
  // v1/v2 stream formats, the FNV-1a-checksummed layouts (versions 3 and
  // 4), the retired whole-trace layout (version 5), the segmented layouts
  // (versions 6 and 7) and any future version must be refused up front
  // with the typed version error, whatever the rest of the file looks
  // like.
  std::string Path = tempPath("version");
  ASSERT_TRUE(writeTrace(T, Path));
  for (uint32_t Version : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 9u}) {
    std::FILE *F = std::fopen(Path.c_str(), "rb+");
    ASSERT_TRUE(F != nullptr);
    std::fseek(F, 4, SEEK_SET);
    std::fwrite(&Version, sizeof(Version), 1, F);
    std::fclose(F);
    Expected<Trace> Loaded = readTrace(Path, nullptr);
    ASSERT_FALSE(bool(Loaded)) << "version " << Version;
    EXPECT_EQ(Loaded.error().Class, ErrClass::Corrupt);
    EXPECT_EQ(Loaded.error().Code, "trace.version");
    Expected<uint64_t> Digest = traceFileDigest(Path);
    ASSERT_FALSE(bool(Digest)) << "version " << Version;
    EXPECT_EQ(Digest.error().Code, "trace.version");
  }
  std::remove(Path.c_str());
}

TEST(Serialize, ReloadedTraceDiffsCleanAgainstLive) {
  Trace T = traceOf(R"(
    class A { Int x; A(Int x) { this.x = x; }
      Int bump() { this.x = this.x + 1; return this.x; } }
    main { var a = new A(7); a.bump(); a.bump(); print(a.x); }
  )");
  std::string Path = tempPath("diffclean");
  ASSERT_TRUE(writeTrace(T, Path));
  Expected<Trace> Loaded = readTrace(Path, nullptr);
  ASSERT_TRUE(bool(Loaded));
  EXPECT_EQ(viewsDiff(T, *Loaded).numDiffs(), 0u);
  std::remove(Path.c_str());
}

TEST(Serialize, RejectsMissingAndCorruptFiles) {
  EXPECT_FALSE(bool(readTrace("/tmp/definitely/not/here", nullptr)));

  std::string Path = tempPath("corrupt");
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  ASSERT_TRUE(F != nullptr);
  std::fputs("this is not a trace file", F);
  std::fclose(F);
  Expected<Trace> Loaded = readTrace(Path, nullptr);
  ASSERT_FALSE(bool(Loaded));
  EXPECT_NE(Loaded.error().Message.find("not a trace"), std::string::npos);
  std::remove(Path.c_str());
}

TEST(Serialize, RejectsTruncatedFiles) {
  Trace T = traceOf("class A { } main { var a = new A(); }");
  std::string Path = tempPath("trunc");
  ASSERT_TRUE(writeTrace(T, Path));
  std::vector<uint8_t> Bytes = readAll(Path);
  SectionRec Value = section(Bytes, 16);
  ASSERT_GT(Value.Length, 0u);
  long Size = static_cast<long>(Bytes.size());
  long MidValue = static_cast<long>(Value.Offset + Value.Length / 2);
  // The file's last bytes belong to the view index: a cut there loses
  // only derived data, so the trace loads without the index.
  ASSERT_TRUE(truncate(Path.c_str(), Size - 1) == 0);
  TraceReadReport Report;
  Expected<Trace> Clipped = readTrace(Path, nullptr, &Report);
  ASSERT_TRUE(bool(Clipped)) << Clipped.error().render();
  EXPECT_EQ(Clipped->size(), T.size());
  EXPECT_FALSE(Clipped->ViewIdx.Present);
  EXPECT_TRUE(Report.ViewIndexDropped);
  // Every deeper truncation point must be rejected cleanly — the reader
  // validates the table and section bounds against the mapped size before
  // touching any payload byte, so no cut can cause out-of-bounds reads.
  for (long Cut : {MidValue, long(40), long(20), long(8)}) {
    ASSERT_TRUE(truncate(Path.c_str(), Cut) == 0);
    Expected<Trace> Loaded = readTrace(Path, nullptr);
    ASSERT_FALSE(bool(Loaded)) << "cut at " << Cut;
    EXPECT_EQ(Loaded.error().Class, ErrClass::Corrupt) << "cut at " << Cut;
    EXPECT_EQ(Loaded.error().Code, "trace.truncated") << "cut at " << Cut;
  }
  std::remove(Path.c_str());
}

TEST(Serialize, WriteFailureAtTheFinalFlushIsReported) {
  if (::access("/dev/full", W_OK) != 0)
    GTEST_SKIP() << "/dev/full is not available";
  // A small trace fits in the stdio buffer, so every write call succeeds
  // and the full device only fails the final flush.
  Trace T = traceOf("class A { } main { var a = new A(); }");
  EXPECT_FALSE(writeTrace(T, "/dev/full"));
}

TEST(Serialize, RejectsCorruptSectionBytes) {
  Trace T = traceOf(R"(
    class A { Int x; A(Int x) { this.x = x; } }
    main { var a = new A(5); print(a.x); }
  )");
  std::string Path = tempPath("badsec");
  ASSERT_TRUE(writeTrace(T, Path, /*WithViewIndex=*/false));

  // Flip the last byte of the provenance column, the last primary column:
  // the section checksum must catch it, and a damaged primary section is
  // a hard error.
  std::vector<uint8_t> Bytes = readAll(Path);
  SectionRec Prov = section(Bytes, 20);
  ASSERT_GT(Prov.Length, 0u);
  Bytes[static_cast<size_t>(Prov.Offset + Prov.Length - 1)] ^= 0xff;
  ASSERT_TRUE(writeAll(Path, Bytes));

  Expected<Trace> Loaded = readTrace(Path, nullptr);
  ASSERT_FALSE(bool(Loaded));
  EXPECT_EQ(Loaded.error().Class, ErrClass::Corrupt);
  EXPECT_EQ(Loaded.error().Code, "trace.section_checksum");
  std::remove(Path.c_str());
}

TEST(Serialize, CorruptViewIndexByteDegradesNotFails) {
  Trace T = traceOf(R"(
    class A { Int x; A(Int x) { this.x = x; } }
    main { var a = new A(5); print(a.x); }
  )");
  std::string Path = tempPath("badidx");
  // With the view index on, the file's last payload is the index's entry
  // list — derived data, so damage there must degrade (index
  // dropped, web rebuilt from the columns), never fail the load.
  ASSERT_TRUE(writeTrace(T, Path, /*WithViewIndex=*/true));
  std::vector<uint8_t> Bytes = readAll(Path);
  SectionRec Entries = section(Bytes, 23);
  ASSERT_GT(Entries.Length, 0u);
  Bytes[static_cast<size_t>(Entries.Offset + Entries.Length - 1)] ^= 0xff;
  ASSERT_TRUE(writeAll(Path, Bytes));

  TraceReadReport Report;
  Expected<Trace> Loaded = readTrace(Path, nullptr, &Report);
  ASSERT_TRUE(bool(Loaded)) << Loaded.error().render();
  EXPECT_FALSE(Loaded->ViewIdx.Present);
  EXPECT_TRUE(Report.ViewIndexDropped);
  EXPECT_EQ(Loaded->size(), T.size());
  std::remove(Path.c_str());
}

TEST(Serialize, EmptyTraceRoundTrips) {
  auto Strings = std::make_shared<StringInterner>();
  Trace T;
  T.Strings = Strings;
  T.Name = "empty";
  T.computeFingerprints();
  // Zero entries is a legal trace; both with and without the optional
  // index sections it must round-trip and diff cleanly.
  for (bool WithIndex : {false, true}) {
    std::string Path = tempPath(WithIndex ? "empty_idx" : "empty_plain");
    ASSERT_TRUE(writeTrace(T, Path, WithIndex)) << WithIndex;
    Expected<Trace> Loaded = readTrace(Path, Strings);
    ASSERT_TRUE(bool(Loaded)) << Loaded.error().render();
    EXPECT_EQ(Loaded->size(), 0u);
    EXPECT_EQ(Loaded->Name, "empty");
    DiffResult SelfDiff = viewsDiff(*Loaded, *Loaded);
    EXPECT_EQ(SelfDiff.numLeftDiffs() + SelfDiff.numRightDiffs(), 0u);
    // Empty against a real trace must not crash either direction.
    Trace Real = traceOf("class A { } main { var a = new A(); }", Strings);
    (void)viewsDiff(*Loaded, Real);
    (void)viewsDiff(Real, *Loaded);
    std::remove(Path.c_str());
  }
}

/// A hand-built one-entry trace (the smallest trace with any payload).
Trace singleEntryTrace(std::shared_ptr<StringInterner> Strings) {
  Trace T;
  T.Strings = Strings;
  T.Name = "single";
  ThreadInfo Main;
  Main.Tid = 0;
  Main.ParentTid = 0;
  Main.EntryMethod = Strings->intern("main");
  T.Threads.push_back(Main);
  TraceEntry E;
  E.Tid = 0;
  E.Method = Strings->intern("main");
  E.Ev.Kind = EventKind::Call;
  E.Ev.Name = Strings->intern("A.m");
  E.Ev.Target.ClassName = Strings->intern("A");
  E.Ev.Target.Loc = 1;
  E.Ev.Target.HasRepr = 1;
  E.Ev.Target.ValueHash = 42;
  T.append(E);
  T.computeFingerprints();
  return T;
}

TEST(Serialize, SingleEntryTraceRoundTrips) {
  auto Strings = std::make_shared<StringInterner>();
  Trace T = singleEntryTrace(Strings);
  for (bool WithIndex : {false, true}) {
    std::string Path = tempPath(WithIndex ? "one_idx" : "one_plain");
    ASSERT_TRUE(writeTrace(T, Path, WithIndex)) << WithIndex;
    // Same interner: symbol ids are preserved, so the columns borrow
    // zero-copy from the file bytes.
    Expected<Trace> Loaded = readTrace(Path, Strings);
    ASSERT_TRUE(bool(Loaded)) << Loaded.error().render();
    ASSERT_EQ(Loaded->size(), 1u);
    EXPECT_TRUE(Loaded->Kinds.borrowed());
    EXPECT_TRUE(Loaded->Backing != nullptr);
    EXPECT_EQ(Loaded->renderEntry(0u), T.renderEntry(0u));
    EXPECT_EQ(Loaded->fp(0), T.fp(0));
    DiffResult SelfDiff = viewsDiff(T, *Loaded);
    EXPECT_EQ(SelfDiff.numLeftDiffs() + SelfDiff.numRightDiffs(), 0u);
    std::remove(Path.c_str());
  }
}

TEST(Serialize, SharedInternerMergesSymbolSpaces) {
  Trace A = traceOf("class Foo { } main { var f = new Foo(); }");
  Trace B = traceOf("class Bar { } main { var b = new Bar(); }");
  std::string PathA = tempPath("mergeA");
  std::string PathB = tempPath("mergeB");
  ASSERT_TRUE(writeTrace(A, PathA));
  ASSERT_TRUE(writeTrace(B, PathB));

  auto Shared = std::make_shared<StringInterner>();
  Expected<Trace> LoadedA = readTrace(PathA, Shared);
  Expected<Trace> LoadedB = readTrace(PathB, Shared);
  ASSERT_TRUE(bool(LoadedA));
  ASSERT_TRUE(bool(LoadedB));
  EXPECT_EQ(LoadedA->Strings.get(), LoadedB->Strings.get());
  // "main" resolves to one symbol across both.
  EXPECT_EQ(LoadedA->Methods.back(), LoadedB->Methods.back());
  std::remove(PathA.c_str());
  std::remove(PathB.c_str());
}

//===----------------------------------------------------------------------===//
// Rewrites and file digests
//===----------------------------------------------------------------------===//

/// A small multi-thread trace with arguments and field traffic: every
/// section (side tables, columns, fingerprints, view index) comes out
/// nonempty.
Trace bumpTrace() {
  return traceOf(R"(
    class A { Int x; A(Int x) { this.x = x; }
      Int bump() { this.x = this.x + 1; return this.x; } }
    main { var a = new A(7); a.bump(); a.bump(); spawn a.bump(); }
  )");
}

TEST(Serialize, LoadedTraceRewritesByteIdentically) {
  Trace T = bumpTrace();
  std::string Direct = tempPath("direct");
  std::string Rewritten = tempPath("rewritten");
  ASSERT_TRUE(writeTrace(T, Direct));
  Expected<Trace> Loaded = readTrace(Direct, nullptr);
  ASSERT_TRUE(bool(Loaded)) << Loaded.error().render();
  // A load loses nothing: rewriting the loaded trace, whose columns and
  // view index are borrowed from the file, reproduces the direct write
  // byte for byte.
  ASSERT_TRUE(writeTrace(*Loaded, Rewritten));
  std::vector<uint8_t> Want = readAll(Direct);
  std::vector<uint8_t> Got = readAll(Rewritten);
  ASSERT_FALSE(Want.empty());
  EXPECT_TRUE(Want == Got) << "bytes diverge after a round trip";
  std::remove(Direct.c_str());
  std::remove(Rewritten.c_str());
}

TEST(Serialize, FileDigestStablePerContentDistinctAcrossContents) {
  Trace T = bumpTrace();
  std::string Path = tempPath("digest");
  std::string Again = tempPath("digest_b");
  std::string Plain = tempPath("digest_plain");
  ASSERT_TRUE(writeTrace(T, Path));
  ASSERT_TRUE(writeTrace(T, Again));
  ASSERT_TRUE(writeTrace(T, Plain, /*WithViewIndex=*/false));
  Expected<uint64_t> First = traceFileDigest(Path);
  Expected<uint64_t> Second = traceFileDigest(Again);
  Expected<uint64_t> NoIndex = traceFileDigest(Plain);
  ASSERT_TRUE(bool(First) && bool(Second) && bool(NoIndex));
  EXPECT_EQ(*First, *Second) << "identical writes must digest identically";
  EXPECT_NE(*First, *NoIndex) << "different sections are different bytes";
  std::remove(Path.c_str());
  std::remove(Again.c_str());
  std::remove(Plain.c_str());
}

/// Checks the frame of the trace file \p Bytes written from \p T: the
/// header's counts and length match the file, its checksum recomputes,
/// each payload's checksum recomputes, and the payloads, sorted by offset,
/// tile the file after the table with fewer than 8 zero bytes before each
/// payload and at the end.
void expectEveryByteAccountedFor(const std::vector<uint8_t> &Bytes,
                                 const Trace &T) {
  ASSERT_GE(Bytes.size(), HeaderBytes);
  const uint8_t *P = Bytes.data();
  EXPECT_EQ(loadLE<uint32_t>(P + EntriesAt), T.size());
  EXPECT_EQ(loadLE<uint64_t>(P + LengthAt), Bytes.size());
  std::vector<SectionRec> Table = sections(Bytes);
  ASSERT_FALSE(Table.empty());
  EXPECT_EQ(Table.size(), numSections(Bytes));
  size_t TableEnd = HeaderBytes + Table.size() * RecordBytes;
  EXPECT_EQ(loadLE<uint64_t>(P + ChecksumAt),
            rprism::checksumBytes(P + EntriesAt, TableEnd - EntriesAt));
  std::sort(Table.begin(), Table.end(),
            [](const SectionRec &A, const SectionRec &B) {
              // An empty payload shares its offset with the next one.
              return A.Offset != B.Offset ? A.Offset < B.Offset
                                          : A.Length < B.Length;
            });
  auto ExpectZeroGap = [&](size_t From, size_t To) {
    ASSERT_LE(From, To);
    EXPECT_LT(To - From, 8u) << "gap at " << From;
    for (size_t K = From; K != To; ++K)
      EXPECT_EQ(P[K], 0) << "padding byte " << K;
  };
  size_t Pos = TableEnd;
  for (const SectionRec &R : Table) {
    SCOPED_TRACE("section " + std::to_string(R.Id));
    EXPECT_EQ(R.Offset % 8, 0u);
    ASSERT_LE(R.Offset + R.Length, Bytes.size());
    ExpectZeroGap(Pos, static_cast<size_t>(R.Offset));
    EXPECT_EQ(loadLE<uint64_t>(P + R.RecordPos + 24),
              rprism::checksumBytes(P + R.Offset,
                                    static_cast<size_t>(R.Length)));
    Pos = static_cast<size_t>(R.Offset + R.Length);
  }
  ExpectZeroGap(Pos, Bytes.size());
}

TEST(Serialize, EveryByteIsHeaderTableOrPayload) {
  auto Strings = std::make_shared<StringInterner>();
  std::vector<Trace> Traces;
  Trace Empty;
  Empty.Strings = Strings;
  Empty.Name = "empty";
  Empty.computeFingerprints();
  Traces.push_back(std::move(Empty));
  Traces.push_back(singleEntryTrace(Strings));
  Expected<PreparedCase> Corpus = prepareCase(benchmarkCorpus().front());
  ASSERT_TRUE(bool(Corpus)) << Corpus.error().render();
  Traces.push_back(std::move(Corpus->NewRegr));
  for (unsigned Threads : {1u, 3u}) {
    GeneratorOptions G;
    G.NumClasses = 3;
    G.OuterIters = 6;
    G.NumThreads = Threads;
    G.Seed = 5 + Threads;
    Traces.push_back(traceOf(generateProgram(G)));
  }
  std::string Path = tempPath("frame");
  for (const Trace &T : Traces) {
    for (bool WithIndex : {true, false}) {
      SCOPED_TRACE(T.Name + (WithIndex ? " with index" : " without index"));
      ASSERT_TRUE(writeTrace(T, Path, WithIndex));
      expectEveryByteAccountedFor(readAll(Path), T);
    }
  }
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Corpus round trips (property over all benchmark cases)
//===----------------------------------------------------------------------===//

class CorpusSerializationTest
    : public ::testing::TestWithParam<BenchmarkCase> {};

TEST_P(CorpusSerializationTest, RegrTraceRoundTrips) {
  Expected<PreparedCase> Prepared = prepareCase(GetParam());
  ASSERT_TRUE(bool(Prepared)) << Prepared.error().render();
  std::string Path = tempPath("corpus_" + GetParam().Name);
  ASSERT_TRUE(writeTrace(Prepared->NewRegr, Path));
  Expected<Trace> Loaded = readTrace(Path, nullptr);
  ASSERT_TRUE(bool(Loaded)) << Loaded.error().render();
  ASSERT_EQ(Loaded->size(), Prepared->NewRegr.size());
  // Spot-check =e equality on a sample (full scan is O(n) but chatty).
  for (uint32_t I = 0; I < Loaded->size(); I += 97)
    EXPECT_TRUE(eventEquals(Prepared->NewRegr, I, *Loaded, I));
  std::remove(Path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, CorpusSerializationTest, ::testing::ValuesIn(benchmarkCorpus()),
    [](const ::testing::TestParamInfo<BenchmarkCase> &Info) {
      std::string Name = Info.param.Name;
      for (char &C : Name)
        if (C == '-')
          C = '_';
      return Name;
    });

//===----------------------------------------------------------------------===//
// Rendering
//===----------------------------------------------------------------------===//

TEST(Render, EntryRenderingShowsFig13Style) {
  auto Strings = std::make_shared<StringInterner>();
  Trace T = traceOf(R"(
    class NUM {
      Int minCharRange; Int maxCharRange;
      NUM(Int lo, Int hi) { this.minCharRange = lo; this.maxCharRange = hi; }
    }
    main { var n = new NUM(32, 127); print(n.minCharRange); }
  )",
                    Strings);
  std::string Dump = dumpTrace(T);
  EXPECT_NE(Dump.find("--> NUM-1.new(32, 127)"), std::string::npos) << Dump;
  EXPECT_NE(Dump.find("set NUM-1.minCharRange = 32"), std::string::npos);
  EXPECT_NE(Dump.find("<-- NUM-1.NUM.<init>(..) ret=unit"),
            std::string::npos);
  EXPECT_NE(Dump.find("get NUM-1.minCharRange = 32"), std::string::npos);
}

TEST(Render, StringValuesAreQuotedAndTruncated) {
  auto Strings = std::make_shared<StringInterner>();
  std::string Long(200, 'x');
  Trace T = traceOf("class S { Str v; S(Str v) { this.v = v; } } "
                    "main { var s = new S(\"" + Long + "\"); }",
                    Strings);
  std::string Dump = dumpTrace(T);
  EXPECT_NE(Dump.find("'"), std::string::npos);
  // Printable renderings are truncated to 128 chars (the paper's toString
  // cap); the 200-char literal must not appear whole.
  EXPECT_EQ(Dump.find(Long), std::string::npos);
  EXPECT_NE(Dump.find(std::string(128, 'x')), std::string::npos);
}

/// The text the recorder interned for a Float before scalar rows dropped
/// their text.
std::string printedFloat(double F) {
  char Buf[48];
  std::snprintf(Buf, sizeof(Buf), "%.6g", F);
  return Buf;
}

TEST(Render, ScalarTextIsRecoveredFromTheRowHash) {
  Trace T;
  auto Render = [&T](ReprKind Kind, uint64_t Hash) {
    ValueRepr Value;
    Value.Kind = Kind;
    Value.Hash = Hash;
    return T.renderValue(Value);
  };
  const int64_t Min = std::numeric_limits<int64_t>::min();
  const int64_t Max = std::numeric_limits<int64_t>::max();
  for (int64_t I : {int64_t{0}, int64_t{1}, int64_t{-1}, int64_t{1025},
                    int64_t{-1025}, Min, Max})
    EXPECT_EQ(Render(ReprKind::Int, intValueHash(I)), std::to_string(I));
  EXPECT_EQ(Render(ReprKind::Int, intValueHash(Min)), "-9223372036854775808");
  Rng R(7);
  for (int I = 0; I != 100000; ++I) {
    int64_t V = static_cast<int64_t>(R.next());
    ASSERT_EQ(Render(ReprKind::Int, intValueHash(V)), std::to_string(V));
  }

  EXPECT_EQ(Render(ReprKind::Bool, boolValueHash(true)), "true");
  EXPECT_EQ(Render(ReprKind::Bool, boolValueHash(false)), "false");
  EXPECT_EQ(Render(ReprKind::Unit, SeedUnit), "unit");
  EXPECT_EQ(Render(ReprKind::Null, SeedNull), "null");

  const double Inf = std::numeric_limits<double>::infinity();
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  for (double F : {0.0, -0.0, Inf, -Inf, NaN, -NaN, 4.9e-324, 1e308,
                   3.14159265358979, -3.14159265358979})
    EXPECT_EQ(Render(ReprKind::Float, floatValueHash(F)), printedFloat(F));
  EXPECT_EQ(Render(ReprKind::Float, floatValueHash(-0.0)), "-0");
  EXPECT_EQ(Render(ReprKind::Float, floatValueHash(4.9e-324)),
            "4.94066e-324");
  EXPECT_EQ(Render(ReprKind::Float, floatValueHash(3.14159265358979)),
            "3.14159");
}

TEST(Render, ScalarTextSymbolsOfOlderFilesAreIgnored) {
  // Recorders before render-on-demand interned every scalar's text and
  // stored its symbol in the row. Such a file loads, and renders the same
  // entries, whether its symbols keep their ids or are remapped.
  auto Strings = std::make_shared<StringInterner>();
  Trace T = traceOf(R"(
    class Box {
      Int i; Bool b; Float f;
      Unit put(Int i, Bool b, Float f) {
        this.i = i; this.b = b; this.f = f; return unit;
      }
    }
    main {
      var x = new Box();
      x.put(-9223372036854775807 - 1, true, -0.0);
      x.put(123456789012, false, 1.0 / 0.0);
      x.put(-7, true, 3.14159265358979);
    }
  )",
                    Strings);
  std::vector<std::string> Rendered;
  for (uint32_t Eid = 0; Eid != T.size(); ++Eid)
    Rendered.push_back(T.renderEntry(Eid));
  ValueRepr *Rows = T.ValueReprs.mutData();
  size_t ScalarRows = 0;
  for (size_t I = 1; I != T.ValueReprs.size(); ++I) {
    ValueRepr &Row = Rows[I];
    if (Row.Kind == ReprKind::Str || Row.Kind == ReprKind::Obj)
      continue;
    EXPECT_TRUE(Row.Text.empty()) << "a new scalar row carries text";
    Row.Text = Strings->intern(T.renderValue(Row));
    ++ScalarRows;
  }
  ASSERT_GT(ScalarRows, 8u);

  std::string Path = tempPath("old_scalar_text");
  ASSERT_TRUE(writeTrace(T, Path));
  for (auto Into : {Strings, std::make_shared<StringInterner>()}) {
    Expected<Trace> Loaded = readTrace(Path, Into);
    ASSERT_TRUE(bool(Loaded)) << Loaded.error().render();
    ASSERT_EQ(Loaded->size(), T.size());
    for (uint32_t Eid = 0; Eid != T.size(); ++Eid)
      EXPECT_EQ(Loaded->renderEntry(Eid), Rendered[Eid]);
    for (const ValueRepr &Row : Loaded->ValueReprs) {
      if (Row.Kind != ReprKind::None && Row.Kind != ReprKind::Str &&
          Row.Kind != ReprKind::Obj) {
        EXPECT_EQ(Loaded->Strings->text(Row.Text), Loaded->renderValue(Row));
      }
    }
  }
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Equality fingerprints
//===----------------------------------------------------------------------===//

TEST(Fingerprint, RecorderFinalizesWithFingerprints) {
  Trace T = traceOf("class A { Int m() { return 1; } } "
                    "main { print(new A().m()); }");
  EXPECT_TRUE(T.HasFingerprints);
  for (uint32_t Eid = 0; Eid != T.size(); ++Eid)
    EXPECT_EQ(T.fp(Eid), T.entryFingerprint(Eid));
}

/// The exactness contract over a randomized generated version pair: for
/// every cross-trace entry pair, fingerprint inequality must imply =e
/// inequality (never a false negative), and =e equality must imply equal
/// fingerprints. The =e side is computed with fingerprints disabled so the
/// check compares the fingerprints against the genuine slow path, not
/// against their own fast-reject.
TEST(Fingerprint, MirrorsEventEqualityOnGeneratedPair) {
  for (uint64_t Seed : {1u, 7u, 23u}) {
    GeneratorOptions Base;
    Base.OuterIters = 6;
    Base.NumThreads = 2;
    Base.Seed = Seed;
    GeneratorOptions Perturbed = Base;
    Perturbed.Perturb = 1;
    Perturbed.ReorderBlock = true;

    auto Strings = std::make_shared<StringInterner>();
    Trace L = traceOf(generateProgram(Base), Strings);
    Trace R = traceOf(generateProgram(Perturbed), Strings);
    ASSERT_TRUE(L.HasFingerprints);
    ASSERT_TRUE(R.HasFingerprints);
    Trace LSlow = L;
    Trace RSlow = R;
    LSlow.HasFingerprints = false;
    RSlow.HasFingerprints = false;

    size_t Checked = 0;
    for (uint32_t A = 0; A != L.size(); ++A)
      for (uint32_t B = 0; B != R.size(); ++B) {
        bool Equal = eventEquals(LSlow, A, RSlow, B);
        if (Equal) {
          EXPECT_EQ(L.fp(A), R.fp(B))
              << L.renderEntry(A) << " =e " << R.renderEntry(B);
        }
        if (L.fp(A) != R.fp(B)) {
          EXPECT_FALSE(Equal)
              << L.renderEntry(A) << " vs " << R.renderEntry(B);
        }
        ++Checked;
      }
    EXPECT_GT(Checked, 1000u);
  }
}

TEST(Fingerprint, SurvivesZeroCopyReloadVerbatim) {
  Trace T = traceOf(R"(
    class A { Int x; A(Int x) { this.x = x; }
      Int bump() { this.x = this.x + 1; return this.x; } }
    main { var a = new A(7); a.bump(); print(a.x); }
  )");
  std::string Path = tempPath("fp_reload");
  ASSERT_TRUE(writeTrace(T, Path));
  // Fresh interner: the file's strings re-intern to identical symbol ids,
  // so the stored fingerprints are loaded verbatim — and must equal a
  // from-scratch recomputation over the loaded columns.
  Expected<Trace> Loaded = readTrace(Path, nullptr);
  ASSERT_TRUE(bool(Loaded));
  EXPECT_TRUE(Loaded->HasFingerprints);
  for (uint32_t Eid = 0; Eid != Loaded->size(); ++Eid)
    EXPECT_EQ(Loaded->fp(Eid), Loaded->entryFingerprint(Eid));
  std::remove(Path.c_str());
}

TEST(Fingerprint, RecomputedAfterReinterningIntoBusyInterner) {
  Trace T = traceOf(R"(
    class A { Int x; A(Int x) { this.x = x; }
      Int bump() { this.x = this.x + 1; return this.x; } }
    main { var a = new A(7); a.bump(); print(a.x); }
  )");
  std::string Path = tempPath("fp_remap");
  ASSERT_TRUE(writeTrace(T, Path));
  // An interner that already holds other strings shifts the symbol ids, so
  // the loader must take the remap path and recompute fingerprints.
  auto Busy = std::make_shared<StringInterner>();
  Busy->intern("occupying-symbol-id-one");
  Busy->intern("occupying-symbol-id-two");
  Expected<Trace> Loaded = readTrace(Path, Busy);
  ASSERT_TRUE(bool(Loaded));
  EXPECT_TRUE(Loaded->HasFingerprints);
  // Symbol ids shift under the busy interner, so raw-symbol comparisons
  // (eventEquals, on-disk fingerprints) no longer apply across the two
  // traces. Semantic equality shows through the renders, and the
  // fingerprint lane must be consistent with the *remapped* symbols.
  ASSERT_EQ(T.size(), Loaded->size());
  for (uint32_t Eid = 0; Eid != Loaded->size(); ++Eid) {
    EXPECT_EQ(T.renderEntry(Eid), Loaded->renderEntry(Eid)) << "entry " << Eid;
    EXPECT_EQ(T.tid(Eid), Loaded->tid(Eid));
    EXPECT_EQ(T.prov(Eid), Loaded->prov(Eid));
    EXPECT_EQ(Loaded->fp(Eid), Loaded->entryFingerprint(Eid));
  }
  EXPECT_FALSE(Loaded->Fps.borrowed());
  std::remove(Path.c_str());
}

TEST(Fingerprint, RemapPathIsCountedAndZeroCopyPathIsNot) {
  Trace T = traceOf(R"(
    class A { Int x; A(Int x) { this.x = x; } }
    main { var a = new A(3); print(a.x); }
  )");
  std::string Path = tempPath("fp_counter");
  ASSERT_TRUE(writeTrace(T, Path));

  Telemetry::get().reset();
  Telemetry::get().setEnabled(true);
  // Fresh interner: symbols re-intern to identical ids, fingerprints are
  // borrowed verbatim — the recompute counter must stay untouched.
  Expected<Trace> Fresh = readTrace(Path, nullptr);
  ASSERT_TRUE(bool(Fresh));
  EXPECT_TRUE(Fresh->Fps.borrowed());
  EXPECT_EQ(Telemetry::get().snapshot().counter("load.fp_recompute"), 0u);
  // Busy interner: ids shift, so the loader recomputes — once per load.
  auto Busy = std::make_shared<StringInterner>();
  Busy->intern("occupying-symbol-id-one");
  ASSERT_TRUE(bool(readTrace(Path, Busy)));
  EXPECT_EQ(Telemetry::get().snapshot().counter("load.fp_recompute"), 1u);
  ASSERT_TRUE(bool(readTrace(Path, Busy)));
  EXPECT_EQ(Telemetry::get().snapshot().counter("load.fp_recompute"), 2u);
  Telemetry::get().setEnabled(false);
  Telemetry::get().reset();
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Dictionary-encoded representations
//===----------------------------------------------------------------------===//

/// \p A in trace \p TA is \p B in trace \p TB, symbols compared by text.
void expectSameObj(const Trace &TA, const ObjRepr &A, const Trace &TB,
                   const ObjRepr &B) {
  EXPECT_EQ(TA.Strings->text(A.ClassName), TB.Strings->text(B.ClassName));
  EXPECT_EQ(A.Loc, B.Loc);
  EXPECT_EQ(A.CreationSeq, B.CreationSeq);
  EXPECT_EQ(A.HasRepr, B.HasRepr);
  EXPECT_EQ(A.ValueHash, B.ValueHash);
}

void expectSameValue(const Trace &TA, const ValueRepr &A, const Trace &TB,
                     const ValueRepr &B) {
  EXPECT_EQ(A.Kind, B.Kind);
  EXPECT_EQ(A.Hash, B.Hash);
  EXPECT_EQ(TA.Strings->text(A.Text), TB.Strings->text(B.Text));
}

TEST(DictionaryEncoding, RoundTripPropertyOverGeneratorTraces) {
  // Generator traces x {a fresh interner (symbol identity), a busy one
  // (remap)}: every materialized entry and every fingerprint comes back as
  // recorded.
  for (uint64_t Seed : {3u, 17u, 29u}) {
    GeneratorOptions G;
    G.Seed = Seed;
    G.NumClasses = 3;
    G.OuterIters = 8;
    G.NumThreads = 1 + static_cast<unsigned>(Seed % 3);
    Trace T = traceOf(generateProgram(G));
    ASSERT_GT(T.size(), 64u);
    std::string Path = tempPath("dict_roundtrip");
    ASSERT_TRUE(writeTrace(T, Path));
    for (bool Busy : {false, true}) {
      SCOPED_TRACE("seed " + std::to_string(Seed) +
                   (Busy ? ", busy interner" : ", fresh interner"));
      auto Into = std::make_shared<StringInterner>();
      if (Busy)
        Into->intern("a string the file does not start with");
      Expected<Trace> Loaded = readTrace(Path, Into);
      ASSERT_TRUE(bool(Loaded)) << Loaded.error().render();
      const Trace &L = *Loaded;
      ASSERT_EQ(L.size(), T.size());
      ASSERT_TRUE(L.HasFingerprints);
      for (uint32_t Eid = 0; Eid != T.size(); ++Eid) {
        TraceEntry A = T.entry(Eid), B = L.entry(Eid);
        ASSERT_EQ(B.Tid, A.Tid) << Eid;
        EXPECT_EQ(L.Strings->text(B.Method), T.Strings->text(A.Method));
        expectSameObj(T, A.Self, L, B.Self);
        EXPECT_EQ(B.Ev.Kind, A.Ev.Kind);
        EXPECT_EQ(L.Strings->text(B.Ev.Name), T.Strings->text(A.Ev.Name));
        expectSameObj(T, A.Ev.Target, L, B.Ev.Target);
        expectSameValue(T, A.Ev.Value, L, B.Ev.Value);
        ASSERT_EQ(B.Ev.numArgs(), A.Ev.numArgs());
        for (uint32_t I = 0; I != A.Ev.numArgs(); ++I)
          expectSameValue(T, T.arg(Eid, I), L, L.arg(Eid, I));
        EXPECT_EQ(B.Ev.ChildTid, A.Ev.ChildTid);
        EXPECT_EQ(B.Prov, A.Prov);
        // Fingerprints hash symbol ids: verbatim under identity, and
        // under a remap what the reference formula gives the entry.
        if (Busy) {
          EXPECT_EQ(B.Fp, L.entryFingerprint(B));
        } else {
          EXPECT_EQ(B.Fp, A.Fp);
        }
        EXPECT_EQ(B.Fp, L.entryFingerprint(Eid));
        if (Eid + 1 != T.size()) {
          EXPECT_EQ(eventEquals(L, Eid, L, Eid + 1),
                    eventEquals(T, Eid, T, Eid + 1));
        }
      }
      // The remap rewrites only the symbol-bearing columns and the two
      // tables; the representation-id columns stay in the file.
      for (bool Borrowed :
           {L.SelfIds.borrowed(), L.TargetIds.borrowed(),
            L.ValueIds.borrowed(), L.ArgIds.borrowed(), L.Tids.borrowed(),
            L.Kinds.borrowed()})
        EXPECT_TRUE(Borrowed);
      EXPECT_EQ(L.ObjReprs.borrowed(), !Busy);
      EXPECT_EQ(L.ValueReprs.borrowed(), !Busy);
    }
    std::remove(Path.c_str());
  }
}

TEST(DictionaryEncoding, UnchangedObjectReadInALoopAddsOneRow) {
  // Node holds an object field, so every store write anywhere invalidates
  // its memoized representation; the recomputations land on the same
  // content and keep its row. The mutated counter object gets a row per
  // distinct state.
  auto Rows = [](int Iters, uint32_t CreationSeq) {
    Trace T = traceOf(R"(
      class Node { Int v; Node next; Node(Int v) { this.v = v; this.next = null; } }
      class Counter { Int n; Counter() { this.n = 0; } }
      main {
        var b = new Node(7);
        var c = new Counter();
        var s = 0;
        var i = 0;
        while (i < )" + std::to_string(Iters) + R"() {
          s = s + b.v;
          c.n = i;
          i = i + 1;
        }
        print(s);
      }
    )");
    size_t Count = 0, Reads = 0;
    for (const ObjRepr &Row : T.ObjReprs)
      Count += !Row.isNone() && T.Strings->text(Row.ClassName) == "Node" &&
               Row.CreationSeq == CreationSeq;
    for (uint32_t Eid = 0; Eid != T.size(); ++Eid)
      Reads += T.kind(Eid) == EventKind::FieldGet &&
               T.Strings->text(T.target(Eid).ClassName) == "Node";
    return std::make_pair(Count, Reads);
  };
  size_t Once = Rows(1, 1).first;
  EXPECT_GE(Once, 1u);
  for (int Iters : {10, 50}) {
    auto [Count, Reads] = Rows(Iters, 1);
    EXPECT_EQ(Reads, static_cast<size_t>(Iters));
    EXPECT_EQ(Count, Once) << Iters << " reads";
  }
}

TEST(DictionaryEncoding, GeneratedPairStaysWithin50To65BytesPerEntry) {
  // 49 B/entry of columns plus the two representation tables and the
  // argument ids: 56.4 B/entry on this version pair. The ceiling catches
  // a storage regression, the floor a storageBytes() that stops counting.
  GeneratorOptions Base;
  Base.OuterIters = 50;
  Base.NumThreads = 2;
  GeneratorOptions Perturbed = Base;
  Perturbed.Perturb = 1;
  Perturbed.ReorderBlock = true;
  auto Strings = std::make_shared<StringInterner>();
  Trace L = traceOf(generateProgram(Base), Strings);
  Trace R = traceOf(generateProgram(Perturbed), Strings);
  double BytesPerEntry = static_cast<double>(L.storageBytes() +
                                             R.storageBytes()) /
                         static_cast<double>(L.size() + R.size());
  EXPECT_GE(BytesPerEntry, 50.0);
  EXPECT_LE(BytesPerEntry, 65.0);
}

TEST(EventEquals, ForkChildTidOutOfBoundsIsNotEqual) {
  auto Strings = std::make_shared<StringInterner>();
  Trace T = traceOf(R"(
    class W { Unit go() { return unit; } }
    main { spawn new W().go(); }
  )",
                    Strings);
  // Find the fork entry and corrupt a copy's child tid past the thread
  // table (as a truncated or damaged trace file could). Equality must
  // reject it instead of indexing out of bounds.
  Trace Bad = T;
  bool FoundFork = false;
  for (uint32_t Eid = 0; Eid != Bad.size(); ++Eid)
    if (Bad.kind(Eid) == EventKind::Fork) {
      Bad.ChildTids.mut(Eid) = 1000;
      FoundFork = true;
    }
  ASSERT_TRUE(FoundFork);
  Bad.computeFingerprints();
  for (uint32_t I = 0; I != T.size(); ++I) {
    bool IsFork = T.kind(I) == EventKind::Fork;
    EXPECT_EQ(eventEquals(T, I, Bad, I), !IsFork);
  }
  // Same checks through the slow path (fingerprints off): the bounds check
  // itself must reject the pair rather than index past the thread table.
  Bad.HasFingerprints = false;
  for (uint32_t I = 0; I != T.size(); ++I) {
    bool IsFork = T.kind(I) == EventKind::Fork;
    EXPECT_EQ(eventEquals(T, I, Bad, I), !IsFork);
  }
}

} // namespace
