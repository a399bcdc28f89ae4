//===- tools/trace_fuzz.cpp - Seeded corruption harness for trace readers -===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic corruption fuzzer for the trace reader. Writes a small
/// corpus of base traces (empty, single-entry, generated workloads), each
/// with and without the view index, then applies seeded mutations —
/// truncation, bit flips, byte overwrites, section-table and header
/// tampering, zeroed ranges, appended garbage, and id and row values
/// rewritten with every checksum resealed so they reach the reader's value
/// checks — and requires every read and digest of the mutant to return
/// cleanly. A crash, hang, or sanitizer report is a failure, and so are
/// two breaches of the reader's one rule:
///   - a load the checksums should have refused: a mutant whose checksums
///     were not resealed must, when it loads, equal its base trace entry
///     for entry (tid, method, =e, fingerprint) and in its thread table;
///   - a refusal the rule forbids: a mutant whose changed or cut bytes all
///     lie outside the header, the section table and the primary payloads
///     — in the fingerprint lane, the view index or the padding between
///     payloads — must load, equal its base, and carry fingerprints equal
///     to entryFingerprint.
///
/// Runs as a tier-1 test and under ASan+UBSan in CI:
///   trace_fuzz --seed 20260807 --iters 1000
///
//===----------------------------------------------------------------------===//

#include "TraceFileLayout.h"

#include "runtime/Compiler.h"
#include "runtime/Vm.h"
#include "trace/Serialize.h"
#include "workload/Generator.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <random>
#include <string>
#include <vector>

using namespace rprism;
using namespace tracelayout;

namespace {

struct FuzzStats {
  uint64_t Iterations = 0;
  uint64_t ReadsOk = 0;
  uint64_t DerivedOnly = 0; ///< Mutants whose damage is all derived.
  uint64_t OracleFailures = 0;
  std::map<std::string, uint64_t> ErrorCodes;
};

Trace traceOf(const std::string &Source) {
  auto Prog = compileSource(Source, nullptr);
  if (!Prog) {
    std::fprintf(stderr, "fatal: base program failed to compile: %s\n",
                 Prog.error().render().c_str());
    std::exit(1);
  }
  RunResult Result = runProgram(*Prog, RunOptions());
  if (!Result.Completed) {
    std::fprintf(stderr, "fatal: base program failed to run: %s\n",
                 Result.Error.c_str());
    std::exit(1);
  }
  return std::move(Result.ExecTrace);
}

/// Rewrites one u32 of a value-bearing section — a tid, a
/// representation-id column, the argument pool, or a row of either
/// representation table — and reseals the section and header checksums,
/// so the value reaches the reader's id and row checks instead of failing
/// a checksum. False (nothing changed) when the framing it needs is not
/// intact.
bool sealedValueTamper(std::vector<uint8_t> &Bytes, std::mt19937_64 &Rng) {
  static const uint32_t Targets[] = {10, 12, 15, 16, 26, 27, 28};
  uint32_t Target = Targets[Rng() % std::size(Targets)];
  for (const SectionRec &R : sections(Bytes)) {
    if (R.Id != Target || R.Offset > Bytes.size() ||
        R.Length > Bytes.size() - R.Offset || R.Length < 4)
      continue;
    size_t At = static_cast<size_t>(R.Offset + 4 * (Rng() % (R.Length / 4)));
    static const uint32_t Values[] = {0, 1, 2, 0x7fffffffu, 0xfffffff0u,
                                      0xffffffffu};
    uint32_t Value = Rng() % 2 ? Values[Rng() % std::size(Values)]
                               : static_cast<uint32_t>(Rng());
    storeLE(Bytes.data() + At, Value);
    resealSection(Bytes, R);
    return true;
  }
  return false;
}

/// A value for a header field of \p Width bytes: one near a boundary
/// (0, 2^31, 2^32, 2^64), the field's current value nudged, or random.
uint64_t headerFieldValue(uint64_t Current, size_t Width,
                          std::mt19937_64 &Rng) {
  static const uint64_t Near[] = {0,
                                  1,
                                  0x7fffffffu,
                                  0x80000000u,
                                  0xfffffff8u,
                                  0xffffffffu,
                                  0x100000000u,
                                  0x100000008u,
                                  ~uint64_t{0} - 7,
                                  ~uint64_t{0}};
  uint64_t V;
  switch (Rng() % 3) {
  case 0:
    V = Near[Rng() % std::size(Near)];
    break;
  case 1:
    V = Rng() % 2 ? Current + 8 : Current - 8;
    break;
  default:
    V = Rng();
    break;
  }
  return Width == 4 ? static_cast<uint32_t>(V) : V;
}

/// Applies one seeded mutation to \p Bytes. Eleven mutation kinds, chosen
/// and parameterised by \p Rng; always leaves at least an empty file.
/// Kind 9 rewrites a header field and kind 10 rewrites sealed ids and
/// rows; both degrade to a plain bit flip when the file is too short for
/// them. Returns whether the mutation resealed checksums.
bool mutate(std::vector<uint8_t> &Bytes, std::mt19937_64 &Rng) {
  auto Index = [&](size_t Bound) {
    return Bound ? static_cast<size_t>(Rng() % Bound) : 0;
  };
  auto FlipBit = [&] {
    Bytes[Index(Bytes.size())] ^= uint8_t(1u << (Rng() % 8));
  };
  if (Bytes.empty()) {
    Bytes.push_back(static_cast<uint8_t>(Rng()));
    return false;
  }
  switch (Rng() % 11) {
  case 0: // Truncate to a random prefix (possibly empty).
    Bytes.resize(Index(Bytes.size() + 1));
    break;
  case 1: // Flip a single bit.
    FlipBit();
    break;
  case 2: { // Flip a burst of bits across a small window.
    size_t At = Index(Bytes.size());
    size_t Len = 1 + Index(16);
    for (size_t I = At; I != Bytes.size() && I != At + Len; ++I)
      Bytes[I] ^= static_cast<uint8_t>(Rng());
    break;
  }
  case 3: // Overwrite one byte with a boundary-ish value.
    Bytes[Index(Bytes.size())] =
        static_cast<uint8_t>(std::initializer_list<int>{0, 1, 0x7f, 0x80, 0xff}
                                 .begin()[Rng() % 5]);
    break;
  case 4: { // Tamper with a section-table record: id/pad, offset, length
            // or checksum.
    size_t Room = Bytes.size() < HeaderBytes ? 0 : Bytes.size() - HeaderBytes;
    size_t Records = std::min<size_t>(numSections(Bytes), Room / RecordBytes);
    if (Records == 0) {
      FlipBit();
      break;
    }
    size_t Field = HeaderBytes + RecordBytes * Index(Records) + 8 * (Rng() % 4);
    storeLE<uint64_t>(Bytes.data() + Field, Rng());
    break;
  }
  case 5: { // Tamper with the magic or the version.
    size_t Field = 4 * (Rng() % 2);
    if (Bytes.size() < Field + 4)
      break;
    storeLE(Bytes.data() + Field, static_cast<uint32_t>(Rng()));
    break;
  }
  case 6: { // Zero a range.
    size_t At = Index(Bytes.size());
    size_t Len = 1 + Index(64);
    std::memset(Bytes.data() + At, 0, std::min(Len, Bytes.size() - At));
    break;
  }
  case 7: { // Append garbage.
    size_t Len = 1 + Index(64);
    for (size_t I = 0; I != Len; ++I)
      Bytes.push_back(static_cast<uint8_t>(Rng()));
    break;
  }
  case 8: { // Swap two windows of the file.
    size_t A = Index(Bytes.size()), B = Index(Bytes.size());
    size_t Len = 1 + Index(32);
    for (size_t I = 0; I != Len; ++I) {
      if (A + I >= Bytes.size() || B + I >= Bytes.size())
        break;
      std::swap(Bytes[A + I], Bytes[B + I]);
    }
    break;
  }
  case 9: { // Header-field tamper: checksum, entry count, section count or
            // declared length, with values near 2^32 and 2^64.
    if (Bytes.size() < HeaderBytes) {
      FlipBit();
      break;
    }
    static const std::pair<size_t, size_t> Fields[] = {
        {ChecksumAt, 8}, {EntriesAt, 4}, {SectionsAt, 4}, {LengthAt, 8}};
    const auto &[At, Width] = Fields[Rng() % std::size(Fields)];
    uint64_t Current = 0;
    std::memcpy(&Current, Bytes.data() + At, Width);
    uint64_t Value = headerFieldValue(Current, Width, Rng);
    std::memcpy(Bytes.data() + At, &Value, Width);
    break;
  }
  case 10: // Sealed tid, representation-id or row rewrite.
    if (sealedValueTamper(Bytes, Rng))
      return true;
    FlipBit();
    break;
  }
  return false;
}

/// Whether \p Got's threads and entries are \p Base's, entry for entry:
/// tid, method, =e and fingerprint, each fingerprint also equal to the one
/// \p Got's own columns give.
bool matchesBase(const Trace &Base, const Trace &Got) {
  if (Got.size() != Base.size() || Got.Threads.size() != Base.Threads.size())
    return false;
  auto Text = [](const Trace &T, Symbol S) { return T.Strings->text(S); };
  for (size_t I = 0; I != Base.Threads.size(); ++I) {
    const ThreadInfo &A = Base.Threads[I], &B = Got.Threads[I];
    if (A.Tid != B.Tid || A.ParentTid != B.ParentTid ||
        A.AncestryHash != B.AncestryHash ||
        Text(Base, A.EntryMethod) != Text(Got, B.EntryMethod) ||
        A.SpawnStack.size() != B.SpawnStack.size())
      return false;
    for (size_t K = 0; K != A.SpawnStack.size(); ++K)
      if (Text(Base, A.SpawnStack[K]) != Text(Got, B.SpawnStack[K]))
        return false;
  }
  for (uint32_t I = 0; I != Got.size(); ++I)
    if (Base.tid(I) != Got.tid(I) ||
        Text(Base, Base.method(I)) != Text(Got, Got.method(I)) ||
        !eventEquals(Base, I, Got, I) || Base.fp(I) != Got.fp(I) ||
        Got.fp(I) != Got.entryFingerprint(I))
      return false;
  return true;
}

/// Whether every byte where \p Mutant differs from \p Base, or that the
/// cut took from it, lies past \p Base's header, section table and primary
/// payloads — in the derived sections the writer lays out last, or in
/// padding. The reader must load such a mutant. Appended bytes break the
/// declared length, so a longer mutant never qualifies.
bool onlyDerivedDamage(const std::vector<uint8_t> &Base,
                       const std::vector<uint8_t> &Mutant) {
  if (Mutant.size() > Base.size())
    return false;
  const std::vector<SectionRec> Table = sections(Base);
  uint64_t PrimaryEnd = HeaderBytes + Table.size() * RecordBytes;
  for (const SectionRec &R : Table)
    if (R.Id < 21 || R.Id > 23) // All but the fingerprint lane and the index.
      PrimaryEnd = std::max(PrimaryEnd, R.Offset + R.Length);
  auto FirstChange =
      std::mismatch(Mutant.begin(), Mutant.end(), Base.begin()).first;
  return uint64_t(FirstChange - Mutant.begin()) >= PrimaryEnd;
}

/// Exercises every read surface on one mutant file: errors are counted,
/// successes are walked end to end to force column access, and when
/// \p Base is given, checked against it; \p MustLoad demands a load.
/// Returns false when a read breaks that oracle.
bool exercise(const std::string &Path, const Trace *Base, bool MustLoad,
              FuzzStats &Stats) {
  auto Strings = std::make_shared<StringInterner>();
  Expected<Trace> Loaded = readTrace(Path, Strings);
  (void)traceFileDigest(Path);
  if (!Loaded) {
    Stats.ErrorCodes[Loaded.error().Code.empty() ? "<uncoded>"
                                                 : Loaded.error().Code]++;
    if (MustLoad)
      std::fprintf(stderr, "oracle: damage only to derived sections failed "
                           "the read: %s\n",
                   Loaded.error().render().c_str());
    return !MustLoad;
  }
  Stats.ReadsOk++;
  // Touch everything a reader would: render each entry, walk threads.
  const Trace &T = *Loaded;
  for (uint32_t I = 0; I != T.size(); ++I)
    (void)T.renderEntry(I);
  for (const ThreadInfo &Thread : T.Threads)
    (void)Strings->text(Thread.EntryMethod);
  if (!Base || matchesBase(*Base, T))
    return true;
  std::fprintf(stderr,
               "oracle: read loaded %zu entries that are not a copy of its "
               "base trace (%zu entries)\n",
               T.size(), Base->size());
  return false;
}

} // namespace

int main(int Argc, char **Argv) {
  uint64_t Seed = 20260807;
  uint64_t Iters = 200;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--seed" && I + 1 < Argc)
      Seed = std::strtoull(Argv[++I], nullptr, 10);
    else if (Arg == "--iters" && I + 1 < Argc)
      Iters = std::strtoull(Argv[++I], nullptr, 10);
    else {
      std::fprintf(stderr, "usage: trace_fuzz [--seed N] [--iters N]\n");
      return 2;
    }
  }

  // Base corpus: a spread of trace shapes, including the degenerate ones
  // (empty, single entry), each written with and without the view index.
  GeneratorOptions Small;
  Small.NumClasses = 2;
  Small.OuterIters = 3;
  Small.Seed = 7;
  GeneratorOptions Threaded;
  Threaded.NumClasses = 3;
  Threaded.OuterIters = 8;
  Threaded.NumThreads = 2;
  Threaded.Seed = 11;
  std::vector<Trace> Corpus;
  Trace Empty;
  Empty.Strings = std::make_shared<StringInterner>();
  Empty.Name = "empty";
  Corpus.push_back(std::move(Empty));
  Corpus.push_back(traceOf("class A { } main { var a = new A(); }"));
  Corpus.push_back(traceOf(generateProgram(Small)));
  Corpus.push_back(traceOf(generateProgram(Threaded)));

  std::string Dir = "/tmp/rprism_fuzz_" + std::to_string(::getpid());
  std::string Mutant = Dir + "_mutant";
  std::vector<std::vector<uint8_t>> Bases;
  for (size_t I = 0; I != Corpus.size(); ++I) {
    Corpus[I].computeFingerprints();
    std::string Path = Dir + "_base" + std::to_string(I);
    for (bool WithViewIndex : {true, false}) {
      if (!writeTrace(Corpus[I], Path, WithViewIndex)) {
        std::fprintf(stderr, "fatal: cannot write base trace %zu\n", I);
        return 1;
      }
      Bases.push_back(readAll(Path));
    }
    std::remove(Path.c_str());
  }

  std::mt19937_64 Rng(Seed);
  FuzzStats Stats;
  for (uint64_t Iter = 0; Iter != Iters; ++Iter) {
    size_t BaseIdx = Rng() % Bases.size();
    const std::vector<uint8_t> &Base = Bases[BaseIdx];
    std::vector<uint8_t> Bytes = Base;
    // One to three stacked mutations per iteration.
    uint64_t Rounds = 1 + Rng() % 3;
    bool Sealed = false;
    for (uint64_t R = 0; R != Rounds; ++R)
      Sealed |= mutate(Bytes, Rng);
    if (!writeAll(Mutant, Bytes)) {
      std::fprintf(stderr, "fatal: cannot write mutant file\n");
      return 1;
    }
    // A resealed rewrite is a different trace with valid checksums, so
    // only the other mutants are held to their base trace.
    bool MustLoad = !Sealed && onlyDerivedDamage(Base, Bytes);
    Stats.DerivedOnly += MustLoad;
    if (!exercise(Mutant, Sealed ? nullptr : &Corpus[BaseIdx / 2], MustLoad,
                  Stats)) {
      std::string Kept = Dir + "_oracle" + std::to_string(Iter);
      writeAll(Kept, Bytes);
      std::fprintf(stderr, "  iteration %llu (seed %llu): mutant kept at %s\n",
                   static_cast<unsigned long long>(Iter),
                   static_cast<unsigned long long>(Seed), Kept.c_str());
      Stats.OracleFailures++;
    }
    Stats.Iterations++;
  }
  std::remove(Mutant.c_str());

  std::printf("trace_fuzz: %llu iterations over %zu base files (seed %llu)\n",
              static_cast<unsigned long long>(Stats.Iterations), Bases.size(),
              static_cast<unsigned long long>(Seed));
  std::printf("  reads ok:         %llu\n",
              static_cast<unsigned long long>(Stats.ReadsOk));
  std::printf("  derived-only:     %llu\n",
              static_cast<unsigned long long>(Stats.DerivedOnly));
  std::printf("  oracle failures:  %llu\n",
              static_cast<unsigned long long>(Stats.OracleFailures));
  std::printf("  error codes seen:\n");
  for (const auto &KV : Stats.ErrorCodes)
    std::printf("    %-24s %llu\n", KV.first.c_str(),
                static_cast<unsigned long long>(KV.second));
  return Stats.OracleFailures == 0 ? 0 : 1;
}
