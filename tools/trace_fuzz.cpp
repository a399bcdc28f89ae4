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
/// tampering, zeroed ranges, appended garbage, plus the file's boundary
/// structures: trailer fields, the footer-directory record, and the
/// segment header, and id and row values rewritten with every checksum
/// resealed so they reach the reader's value checks — and requires every
/// strict read, salvage read, and digest of the mutant to return cleanly.
/// A crash, hang, or sanitizer report is the failure mode; any error
/// return is a pass.
///
/// Run under ASan+UBSan in CI:  trace_fuzz --seed 20260807 --iters 200
///
//===----------------------------------------------------------------------===//

#include "runtime/Compiler.h"
#include "runtime/Vm.h"
#include "support/Hashing.h"
#include "trace/Serialize.h"
#include "workload/Generator.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <random>
#include <string>
#include <vector>

using namespace rprism;

namespace {

struct FuzzStats {
  uint64_t Iterations = 0;
  uint64_t StrictOk = 0;
  uint64_t SalvageOk = 0;
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

std::vector<uint8_t> readAll(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(In),
                              std::istreambuf_iterator<char>());
}

bool writeAll(const std::string &Path, const std::vector<uint8_t> &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(reinterpret_cast<const char *>(Bytes.data()),
            static_cast<std::streamsize>(Bytes.size()));
  return Out.good();
}

/// Rewrites one u32 of a value-bearing section of the segment — a tid, a
/// representation-id column, the argument pool, or a row of either
/// representation table — and reseals the section checksum, the
/// directory's table digest and the footer checksum, so the value reaches
/// the reader's id and row checks instead of failing a checksum.
/// False (nothing changed) when the framing it needs is not intact.
bool sealedValueTamper(std::vector<uint8_t> &Bytes, std::mt19937_64 &Rng) {
  auto Load64 = [&](size_t At) {
    uint64_t V;
    std::memcpy(&V, Bytes.data() + At, 8);
    return V;
  };
  auto Store64 = [&](size_t At, uint64_t V) {
    std::memcpy(Bytes.data() + At, &V, 8);
  };
  if (Bytes.size() < 96 + 24)
    return false;
  size_t Trailer = Bytes.size() - 24;
  uint64_t Footer = Load64(Trailer);
  if (Footer < 64 || Footer > Trailer || Trailer - Footer != 8 + 32 ||
      Load64(Footer + 8) != 32)
    return false;
  uint32_t NumSections;
  std::memcpy(&NumSections, Bytes.data() + 52, 4);
  if (NumSections > 64 || 64 + uint64_t{NumSections} * 32 > Footer)
    return false;
  // Section id -> bytes before the first u32 of its values.
  static const std::pair<uint32_t, size_t> Targets[] = {
      {10, 0}, {12, 0}, {15, 0}, {16, 0}, {26, 8}, {27, 8}, {28, 8}};
  const auto &Target = Targets[Rng() % std::size(Targets)];
  for (uint32_t I = 0; I != NumSections; ++I) {
    size_t Record = 64 + size_t{I} * 32;
    uint32_t Id;
    std::memcpy(&Id, Bytes.data() + Record, 4);
    uint64_t Offset = 32 + Load64(Record + 8), Length = Load64(Record + 16);
    if (Id != Target.first || Offset > Footer || Length > Footer - Offset ||
        Length < Target.second + 4)
      continue;
    size_t Words = (Length - Target.second) / 4;
    size_t At = Offset + Target.second + 4 * (Rng() % Words);
    static const uint32_t Values[] = {0, 1, 2, 0x7fffffffu, 0xfffffff0u,
                                      0xffffffffu};
    uint32_t Value = Rng() % 2 ? Values[Rng() % std::size(Values)]
                               : static_cast<uint32_t>(Rng());
    std::memcpy(Bytes.data() + At, &Value, 4);
    Store64(Record + 24, checksumBytes(Bytes.data() + Offset, Length));
    Store64(Footer + 16, checksumBytes(Bytes.data() + 64, NumSections * 32));
    Store64(Trailer + 8,
            checksumBytes(Bytes.data() + Footer, Trailer - Footer));
    return true;
  }
  return false;
}

/// Applies one seeded mutation to \p Bytes. Thirteen mutation kinds,
/// chosen and parameterised by \p Rng; always leaves at least an empty
/// file. Kinds 9-11 target the file framing (trailer, footer directory,
/// segment header) and kind 12 rewrites sealed ids and rows; each
/// degrades to a plain bit flip when an earlier mutation left no valid
/// trailer.
void mutate(std::vector<uint8_t> &Bytes, std::mt19937_64 &Rng) {
  auto Index = [&](size_t Bound) {
    return Bound ? static_cast<size_t>(Rng() % Bound) : 0;
  };
  auto FlipBit = [&] {
    Bytes[Index(Bytes.size())] ^= uint8_t(1u << (Rng() % 8));
  };
  // The footer offset when the file ends in a valid trailer, else 0.
  auto FooterAt = [&]() -> uint64_t {
    if (Bytes.size() < 56)
      return 0;
    uint32_t Magic;
    std::memcpy(&Magic, Bytes.data() + Bytes.size() - 4, 4);
    if (Magic != 0x52505445u) // "RPTE"
      return 0;
    uint64_t Off;
    std::memcpy(&Off, Bytes.data() + Bytes.size() - 24, 8);
    return Off + 32 <= Bytes.size() ? Off : 0;
  };
  if (Bytes.empty()) {
    Bytes.push_back(static_cast<uint8_t>(Rng()));
    return;
  }
  switch (Rng() % 13) {
  case 0: // Truncate to a random prefix (possibly empty).
    Bytes.resize(Index(Bytes.size() + 1));
    break;
  case 1: // Flip a single bit.
    Bytes[Index(Bytes.size())] ^= uint8_t(1u << (Rng() % 8));
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
  case 4: { // Tamper with a record of the segment's section table (after
            // the 32-byte file and segment headers: 32-byte records of
            // id/pad, offset, length, checksum).
    if (Bytes.size() < 96) {
      FlipBit();
      break;
    }
    uint32_t NumSections;
    std::memcpy(&NumSections, Bytes.data() + 52, 4);
    size_t Records =
        std::min<size_t>(NumSections, (Bytes.size() - 64) / 32);
    size_t Record = 64 + 32 * Index(Records);
    size_t Field = (Rng() % 4) * 8; // id+pad / offset / length / checksum
    uint64_t Garbage = Rng();
    std::memcpy(Bytes.data() + Record + Field, &Garbage, 8);
    break;
  }
  case 5: { // Tamper with the file header: magic, version, flags, or the
            // segment size.
    size_t Field = 4 * (Rng() % 4);
    if (Bytes.size() < Field + 4)
      break;
    uint32_t Garbage = static_cast<uint32_t>(Rng());
    std::memcpy(Bytes.data() + Field, &Garbage, 4);
    break;
  }
  case 6: { // Zero a range.
    size_t At = Index(Bytes.size());
    size_t Len = 1 + Index(64);
    std::memset(Bytes.data() + At, 0,
                std::min(Len, Bytes.size() - At));
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
  case 9: { // Trailer tamper: footer offset, checksum, count, or magic.
    if (Bytes.size() < 56) {
      FlipBit();
      break;
    }
    size_t Trailer = Bytes.size() - 24;
    size_t Field = (Rng() % 3) * 8; // offset / checksum / count+magic
    uint64_t Garbage = Rng();
    std::memcpy(Bytes.data() + Trailer + Field, &Garbage, 8);
    break;
  }
  case 10: { // Footer-directory tamper: magic and count, or a field of
             // the record.
    uint64_t Footer = FooterAt();
    if (!Footer || Bytes.size() < Footer + 8 + 32) {
      FlipBit();
      break;
    }
    size_t Field = (Rng() % 5) * 8; // magic+count / offset / digests / eids
    uint64_t Garbage = Rng();
    std::memcpy(Bytes.data() + Footer + Field, &Garbage, 8);
    break;
  }
  case 11: { // Segment-header tamper (the segment lives at byte 32).
    uint64_t Footer = FooterAt();
    if (!Footer || Footer < 64) {
      FlipBit();
      break;
    }
    // Magic/index, begin-eid, counts, or payload size — the last one moves
    // where the salvage header scan looks for a second segment.
    size_t Field = (Rng() % 4) * 8;
    uint64_t Garbage = Rng();
    std::memcpy(Bytes.data() + 32 + Field, &Garbage, 8);
    break;
  }
  case 12: // Sealed tid, representation-id or row rewrite.
    if (!sealedValueTamper(Bytes, Rng))
      FlipBit();
    break;
  }
}

/// Exercises every read surface on one mutant file. The contract under
/// test is purely "no crash, no hang, no sanitizer report": errors are
/// counted, successes are walked end to end to force column access.
void exercise(const std::string &Path, FuzzStats &Stats) {
  for (bool Salvage : {false, true}) {
    auto Strings = std::make_shared<StringInterner>();
    ReadOptions Options;
    Options.Salvage = Salvage;
    TraceReadReport Report;
    Options.Report = &Report;
    Expected<Trace> Loaded = readTrace(Path, Strings, Options);
    if (!Loaded) {
      Stats.ErrorCodes[Loaded.error().Code.empty() ? "<uncoded>"
                                                   : Loaded.error().Code]++;
      continue;
    }
    (Salvage ? Stats.SalvageOk : Stats.StrictOk)++;
    // Touch everything a reader would: render each entry, walk threads.
    const Trace &T = *Loaded;
    for (uint32_t I = 0; I != T.size(); ++I)
      (void)T.renderEntry(I);
    for (const ThreadInfo &Thread : T.Threads)
      (void)Strings->text(Thread.EntryMethod);
  }
  (void)traceFileDigest(Path);
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
    std::vector<uint8_t> Bytes = Bases[Rng() % Bases.size()];
    // One to three stacked mutations per iteration.
    uint64_t Rounds = 1 + Rng() % 3;
    for (uint64_t R = 0; R != Rounds; ++R)
      mutate(Bytes, Rng);
    if (!writeAll(Mutant, Bytes)) {
      std::fprintf(stderr, "fatal: cannot write mutant file\n");
      return 1;
    }
    exercise(Mutant, Stats);
    Stats.Iterations++;
  }
  std::remove(Mutant.c_str());

  std::printf("trace_fuzz: %llu iterations over %zu base files (seed %llu)\n",
              static_cast<unsigned long long>(Stats.Iterations), Bases.size(),
              static_cast<unsigned long long>(Seed));
  std::printf("  strict reads ok:  %llu\n",
              static_cast<unsigned long long>(Stats.StrictOk));
  std::printf("  salvage reads ok: %llu\n",
              static_cast<unsigned long long>(Stats.SalvageOk));
  std::printf("  error codes seen:\n");
  for (const auto &KV : Stats.ErrorCodes)
    std::printf("    %-24s %llu\n", KV.first.c_str(),
                static_cast<unsigned long long>(KV.second));
  return 0;
}
