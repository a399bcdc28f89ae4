//===- tests/VmGoldenTest.cpp - Trace-production determinism goldens ------===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Golden-digest determinism tests for the trace *producer*. Every example
/// workload in the repository (the corpus pairs, the Rhino bases, a
/// multithreaded generated program) is compiled and run, its trace file
/// written, and the resulting bytes digested with FNV-1a. The digests are
/// pinned in tests/golden/vm_trace_digests.txt, so any change to the VM's
/// value representation, dispatch, or emission path that perturbs even one
/// byte of a produced trace (entry columns, argument pool, string table,
/// fingerprints) fails here. A trace-format change moves only the
/// file-bytes column; the fingerprint column, entry counts and compare-op
/// totals must stay put.
///
/// The pinned digests also cover the fingerprint column (checked against
/// a recompute from the columns) and the views-diff compare-op totals of
/// each corpus version pair.
///
/// Regenerate after an *intentional* format/trace change with:
///   RPRISM_UPDATE_GOLDEN=1 ./rprism_vmgolden_test
///
//===----------------------------------------------------------------------===//

#include "diff/ViewsDiff.h"
#include "runtime/Compiler.h"
#include "runtime/Vm.h"
#include "support/Hashing.h"
#include "trace/Serialize.h"
#include "workload/Corpus.h"
#include "workload/Generator.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

using namespace rprism;

namespace {

#ifndef RPRISM_GOLDEN_FILE
#define RPRISM_GOLDEN_FILE "vm_trace_digests.txt"
#endif

/// One workload: a named program plus the inputs to run it with.
struct Workload {
  std::string Name;
  std::string Source;
  RunOptions Run;
};

std::vector<Workload> goldenWorkloads() {
  std::vector<Workload> Out;
  auto Add = [&Out](std::string Name, std::string Source, RunOptions Run) {
    Run.TraceName = Name; // The name is serialized; pin it per workload.
    Out.push_back({std::move(Name), std::move(Source), std::move(Run)});
  };
  for (BenchmarkCase &Case : benchmarkCorpus()) {
    Add(Case.Name + "_orig", Case.OrigSource, Case.RegrRun);
    Add(Case.Name + "_new", Case.NewSource, Case.RegrRun);
  }
  BenchmarkCase Motivating = motivatingCase();
  Add("motivating_orig", Motivating.OrigSource, Motivating.RegrRun);
  Add("motivating_new", Motivating.NewSource, Motivating.RegrRun);
  BenchmarkCase Soap = soapCase();
  Add("soap_orig", Soap.OrigSource, Soap.RegrRun);
  Add("soap_new", Soap.NewSource, Soap.RegrRun);

  RunOptions RhinoRegr, RhinoOk;
  rhinoInputs(0, RhinoRegr, RhinoOk);
  Add("rhino_interp", rhinoBaseSource(), RhinoRegr);
  Add("rhino_compiled", rhinoCompiledSource(), RhinoRegr);

  // Multithreaded generated workload: forks, spawn ancestries, and enough
  // volume that the round-robin quantum boundaries land mid-method.
  GeneratorOptions Gen;
  Gen.OuterIters = 25;
  Gen.NumThreads = 4;
  Add("generated_mt4", generateProgram(Gen), RunOptions());
  return Out;
}

/// Digest results for one workload.
struct Digest {
  uint64_t TraceBytes = 0; ///< FNV-1a of the written trace file.
  uint64_t FpColumn = 0;   ///< FNV-1a of the fingerprint column.
  uint64_t Entries = 0;
};

std::string hex(uint64_t V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

/// Runs one workload and digests its written trace file. Also verifies,
/// inline, that recomputing the fingerprint column reproduces the
/// recorder's own column bit for bit.
Digest digestWorkload(const Workload &W) {
  auto Prog = compileSource(W.Source, nullptr);
  EXPECT_TRUE(static_cast<bool>(Prog)) << W.Name;
  if (!Prog)
    return {};
  RunResult Result = runProgram(*Prog, W.Run);
  Digest D;
  D.Entries = Result.ExecTrace.size();
  EXPECT_GT(D.Entries, 0u) << W.Name;

  std::vector<uint64_t> AsRecorded(Result.ExecTrace.Fps.begin(),
                                   Result.ExecTrace.Fps.end());
  Result.ExecTrace.computeFingerprints();
  EXPECT_TRUE(std::equal(AsRecorded.begin(), AsRecorded.end(),
                         Result.ExecTrace.Fps.begin()))
      << W.Name << " recomputed fingerprints differ from the recorder's";
  D.FpColumn = hashBytes(Result.ExecTrace.Fps.data(),
                         Result.ExecTrace.Fps.size() * sizeof(uint64_t));

  std::string Path = std::string("/tmp/rprism_golden_") + W.Name + ".rpt";
  EXPECT_TRUE(writeTrace(Result.ExecTrace, Path)) << W.Name;
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream SS;
  SS << In.rdbuf();
  std::string Bytes = SS.str();
  std::remove(Path.c_str());
  EXPECT_FALSE(Bytes.empty()) << W.Name;
  D.TraceBytes = hashBytes(Bytes.data(), Bytes.size());
  return D;
}

/// Views-diff compare-op totals per corpus version pair (sequential
/// reference; the diff pipeline's own jobs-invariance is covered by
/// DiffTest — here the totals pin the *producer*: different traces would
/// move them).
std::map<std::string, uint64_t> compareOpTotals() {
  std::map<std::string, uint64_t> Ops;
  auto DiffPair = [&Ops](const std::string &Name, const BenchmarkCase &C) {
    auto Strings = std::make_shared<StringInterner>();
    auto Old = compileSource(C.OrigSource, Strings);
    auto New = compileSource(C.NewSource, Strings);
    ASSERT_TRUE(Old && New) << Name;
    RunResult OldRun = runProgram(*Old, C.RegrRun);
    RunResult NewRun = runProgram(*New, C.RegrRun);
    ViewsDiffOptions Options;
    Options.Jobs = 1;
    DiffResult Result =
        viewsDiff(OldRun.ExecTrace, NewRun.ExecTrace, Options);
    Ops[Name] = Result.Stats.CompareOps;
  };
  for (const BenchmarkCase &Case : benchmarkCorpus())
    DiffPair(Case.Name, Case);
  DiffPair("motivating", motivatingCase());
  return Ops;
}

struct GoldenData {
  std::map<std::string, Digest> Traces;
  std::map<std::string, uint64_t> DiffOps;
};

GoldenData collect() {
  GoldenData Data;
  for (const Workload &W : goldenWorkloads())
    Data.Traces[W.Name] = digestWorkload(W);
  Data.DiffOps = compareOpTotals();
  return Data;
}

std::string render(const GoldenData &Data) {
  std::ostringstream OS;
  OS << "# Trace digests per workload: FNV-1a of the trace file bytes\n"
     << "# (version field 8, checksums by checksumBytes) and of the\n"
     << "# fingerprint column. Regenerate with\n"
     << "# RPRISM_UPDATE_GOLDEN=1 ./rprism_vmgolden_test after an\n"
     << "# intentional trace-format or recorder change.\n"
     << "# trace <name> <file-bytes-digest> <fp-column-digest> <entries>\n";
  for (const auto &[Name, D] : Data.Traces)
    OS << "trace " << Name << ' ' << hex(D.TraceBytes) << ' '
       << hex(D.FpColumn) << ' ' << D.Entries << '\n';
  for (const auto &[Name, Ops] : Data.DiffOps)
    OS << "diffops " << Name << ' ' << Ops << '\n';
  return OS.str();
}

Expected<GoldenData> parseGoldenFile(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    return makeErr("cannot open golden file '" + Path + "'");
  GoldenData Data;
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream LS(Line);
    std::string Kind, Name;
    LS >> Kind >> Name;
    if (Kind == "trace") {
      std::string BytesHex, FpHex;
      uint64_t Entries = 0;
      LS >> BytesHex >> FpHex >> Entries;
      Digest D;
      D.TraceBytes = std::strtoull(BytesHex.c_str(), nullptr, 16);
      D.FpColumn = std::strtoull(FpHex.c_str(), nullptr, 16);
      D.Entries = Entries;
      Data.Traces[Name] = D;
    } else if (Kind == "diffops") {
      uint64_t Ops = 0;
      LS >> Ops;
      Data.DiffOps[Name] = Ops;
    }
  }
  return Data;
}

void expectMatches(const GoldenData &Got, const GoldenData &Want) {
  ASSERT_EQ(Got.Traces.size(), Want.Traces.size());
  for (const auto &[Name, D] : Want.Traces) {
    auto It = Got.Traces.find(Name);
    ASSERT_NE(It, Got.Traces.end()) << "missing " << Name;
    EXPECT_EQ(It->second.Entries, D.Entries) << Name;
    EXPECT_EQ(hex(It->second.TraceBytes), hex(D.TraceBytes))
        << Name << " trace file bytes diverged";
    EXPECT_EQ(hex(It->second.FpColumn), hex(D.FpColumn))
        << Name << " fingerprint column diverged";
  }
  for (const auto &[Name, Ops] : Want.DiffOps) {
    auto It = Got.DiffOps.find(Name);
    ASSERT_NE(It, Got.DiffOps.end()) << "missing " << Name;
    EXPECT_EQ(It->second, Ops) << Name << " compare-op total diverged";
  }
}

TEST(VmGolden, TraceBytesMatchGolden) {
  const std::string GoldenPath = RPRISM_GOLDEN_FILE;
  GoldenData Got = collect();

  if (std::getenv("RPRISM_UPDATE_GOLDEN")) {
    std::ofstream Out(GoldenPath);
    ASSERT_TRUE(Out) << "cannot write " << GoldenPath;
    Out << render(Got);
    GTEST_SKIP() << "golden file regenerated at " << GoldenPath;
  }

  Expected<GoldenData> Want = parseGoldenFile(GoldenPath);
  ASSERT_TRUE(static_cast<bool>(Want)) << Want.error().render();
  expectMatches(Got, *Want);
}

} // namespace
