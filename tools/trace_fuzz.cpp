//===- tools/trace_fuzz.cpp - Seeded corruption harness for trace readers -===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic corruption fuzzer for the trace reader. Writes a small
/// corpus of base traces (empty, single-entry, generated workloads) as
/// one whole-trace segment and as 8-entry segments, each with and without
/// the view index, then applies seeded mutations — truncation, bit flips,
/// byte overwrites, section-table and header tampering, zeroed ranges,
/// appended garbage, plus the file's boundary structures: trailer fields,
/// footer-directory records, and segment headers — and requires every
/// strict read, salvage read, and digest of the mutant to return cleanly.
/// A crash, hang, or sanitizer report is the failure mode; any error
/// return is a pass.
///
/// Run under ASan+UBSan in CI:  trace_fuzz --seed 20260807 --iters 200
///
//===----------------------------------------------------------------------===//

#include "runtime/Compiler.h"
#include "runtime/Vm.h"
#include "trace/Serialize.h"
#include "workload/Generator.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
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

/// Applies one seeded mutation to \p Bytes. Twelve mutation kinds, chosen
/// and parameterised by \p Rng; always leaves at least an empty file. The
/// last three target the file framing (trailer, footer directory, segment
/// headers) and degrade to a plain bit flip when an earlier mutation left
/// no valid trailer.
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
  switch (Rng() % 12) {
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
  case 4: { // Tamper with a record of the first segment's section table
            // (after the 32-byte file and segment headers: 32-byte records
            // of id/pad, offset, length, checksum).
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
  case 10: { // Footer-directory record tamper.
    uint64_t Footer = FooterAt();
    if (!Footer) {
      FlipBit();
      break;
    }
    uint32_t NumSegments;
    std::memcpy(&NumSegments, Bytes.data() + Footer + 4, 4);
    size_t Records = Bytes.size() > Footer + 8
                         ? std::min<size_t>(NumSegments,
                                            (Bytes.size() - Footer - 8) / 32)
                         : 0;
    if (!Records) {
      FlipBit();
      break;
    }
    size_t Record = Footer + 8 + 32 * Index(Records);
    size_t Field = (Rng() % 4) * 8; // offset / digests / eid range
    uint64_t Garbage = Rng();
    std::memcpy(Bytes.data() + Record + Field, &Garbage, 8);
    break;
  }
  case 11: { // Segment-header tamper (the first segment lives at byte 32).
    uint64_t Footer = FooterAt();
    if (!Footer || Footer < 64) {
      FlipBit();
      break;
    }
    // Walking the chain would need trusted PayloadBytes, so tamper the
    // first header: magic/index, begin-eid, counts, or payload size —
    // the last one derails the salvage chain scan's next-header jump.
    size_t Field = (Rng() % 4) * 8;
    uint64_t Garbage = Rng();
    std::memcpy(Bytes.data() + 32 + Field, &Garbage, 8);
    break;
  }
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
  // (empty, single entry), each written four ways.
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
    // One whole-trace segment stresses the zero-copy path, 8-entry
    // segments the per-segment framing and the copying assembly; each
    // with and without the view index.
    auto WholeIndex = [](const Trace &T, const std::string &P) {
      return writeTrace(T, P, /*WithViewIndex=*/true);
    };
    auto WholePlain = [](const Trace &T, const std::string &P) {
      return writeTrace(T, P, /*WithViewIndex=*/false);
    };
    auto SmallIndex = [](const Trace &T, const std::string &P) {
      return writeTraceSegmented(T, P, /*SegmentEntries=*/8);
    };
    auto SmallPlain = [](const Trace &T, const std::string &P) {
      return writeTraceSegmented(T, P, /*SegmentEntries=*/8,
                                 /*WithViewIndex=*/false);
    };
    for (auto *Write : {+WholeIndex, +WholePlain, +SmallIndex, +SmallPlain}) {
      if (!Write(Corpus[I], Path)) {
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
