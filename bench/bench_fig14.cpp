//===- bench/bench_fig14.cpp - Fig. 14 accuracy & speedup histograms ------===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates Fig. 14: injected regressions over the Rhino-style base
/// program (root causes per the [13] distribution), each differenced with
/// both semantics; reports
///
///   accuracy = (total - viewsDiffs) / (total - lcsDiffs)   [Fig. 14a]
///   speedup  = lcsCompareOps / viewsCompareOps             [Fig. 14b]
///
/// The paper's histogram covers 14 usable iBugs cases; this harness
/// produces 14 injected cases (seeds 1..14 over four input pairs).
///
/// A second phase runs the same mutation workload the way a mutation
/// study consumes it — ONE baseline vs N mutants over one input — both
/// pairwise (N independent viewsDiff calls) and variationally (nwayDiff,
/// which hoists the baseline web and lanes). The phase verifies the
/// determinism contract (byte-identical per-mutant reports, identical
/// compare-op totals) and exports both wall-clocks to BENCH_fig14.json
/// plus an rprism-metrics-v1 telemetry block to BENCH_fig14_metrics.json.
/// `--quick` shrinks both phases for CI smoke runs.
///
//===----------------------------------------------------------------------===//

#include "diff/Lcs.h"
#include "diff/NWayDiff.h"
#include "diff/ViewsDiff.h"
#include "runtime/Compiler.h"
#include "runtime/Vm.h"
#include "support/BenchHistory.h"
#include "support/Histogram.h"
#include "support/MetricsSink.h"
#include "support/TablePrinter.h"
#include "support/Timer.h"
#include "workload/Mutator.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>

#if defined(__unix__)
#include <sys/resource.h>
#endif

using namespace rprism;

namespace {

/// Peak resident set size in bytes (0 where unsupported).
uint64_t peakRssBytes() {
#if defined(__unix__)
  struct rusage Usage;
  if (getrusage(RUSAGE_SELF, &Usage) == 0)
    return static_cast<uint64_t>(Usage.ru_maxrss) * 1024;
#endif
  return 0;
}

/// Best-of-reps wall clock: repeats \p Body until at least \p MinReps runs
/// and \p MinWallSeconds accumulated, returns the best single rep.
template <typename BodyFn>
double bestOf(BodyFn &&Body, unsigned MinReps = 2,
              double MinWallSeconds = 0.05, unsigned MaxReps = 12) {
  double Best = 1e30;
  double Total = 0;
  unsigned Rep = 0;
  while (Rep != MaxReps) {
    Timer Clock;
    Body();
    double Seconds = Clock.seconds();
    ++Rep;
    Best = std::min(Best, Seconds);
    Total += Seconds;
    if (Rep >= MinReps && Total >= MinWallSeconds)
      break;
  }
  return Best;
}

/// The 1-vs-N phase: generates a shared-baseline mutant set, times the N
/// pairwise diffs against nwayDiff, verifies the identity contract, and
/// writes both JSON artifacts. Returns 0 on success; \p SpeedupOut and
/// \p BaseEntriesOut feed the history record's key metrics.
int runNWayStudy(unsigned NumMutants, std::string &Json, double &SpeedupOut,
                 uint64_t &BaseEntriesOut) {
  std::printf("== 1-vs-N variational study (%u mutants) ==\n\n",
              NumMutants);

  RunOptions Run, Unused;
  rhinoInputs(0, Run, Unused);
  Expected<MutantSet> Set =
      generateMutantSet(rhinoBaseSource(), Run, NumMutants, /*Seed=*/4242);
  if (!Set) {
    std::printf("ERROR: %s\n", Set.error().render().c_str());
    return 1;
  }
  std::vector<const Trace *> Mutants;
  for (const MutantTrace &M : Set->Mutants)
    Mutants.push_back(&M.ExecTrace);

  // Pairwise: N independent trace-level diffs, each rebuilding the
  // baseline web and re-gathering its lanes (what a study loop without
  // the variational mode runs). Both arms time the diffs alone; the
  // reports are rendered after the timing.
  std::vector<DiffResult> Pairwise(Mutants.size());
  double PairwiseSeconds = bestOf([&] {
    for (size_t M = 0; M != Mutants.size(); ++M)
      Pairwise[M] = viewsDiff(Set->Base, *Mutants[M]);
  });
  std::vector<std::string> PairwiseReports(Mutants.size());
  std::vector<uint64_t> PairwiseOps(Mutants.size());
  for (size_t M = 0; M != Mutants.size(); ++M) {
    PairwiseOps[M] = Pairwise[M].Stats.CompareOps;
    PairwiseReports[M] = Pairwise[M].render(50, 12);
  }
  Pairwise.clear();

  // Variational: one nwayDiff call over the same inputs.
  NWayResult NWay;
  double NWaySeconds = bestOf([&] {
    NWay = nwayDiff(Set->Base, Mutants);
  });

  // Identity contract: per-mutant compare ops and rendered reports must
  // match the pairwise run exactly.
  int Exit = 0;
  uint64_t PairwiseTotalOps = 0;
  for (size_t M = 0; M != Mutants.size(); ++M) {
    PairwiseTotalOps += PairwiseOps[M];
    if (NWay.Mutants[M].Result.Stats.CompareOps != PairwiseOps[M]) {
      std::printf("ERROR: mutant %zu compare ops diverge: nway %llu vs "
                  "pairwise %llu\n",
                  M,
                  static_cast<unsigned long long>(
                      NWay.Mutants[M].Result.Stats.CompareOps),
                  static_cast<unsigned long long>(PairwiseOps[M]));
      Exit = 1;
    }
    if (NWay.Mutants[M].Result.render(50, 12) != PairwiseReports[M]) {
      std::printf("ERROR: mutant %zu report bytes diverge from the "
                  "pairwise diff\n",
                  M);
      Exit = 1;
    }
  }
  if (!Exit)
    std::printf("identity: all %zu per-mutant reports byte-identical to "
                "pairwise; op totals match (%llu)\n",
                Mutants.size(),
                static_cast<unsigned long long>(PairwiseTotalOps));

  double Speedup = NWaySeconds > 0 ? PairwiseSeconds / NWaySeconds : 0;
  SpeedupOut = Speedup;
  BaseEntriesOut = Set->Base.size();
  std::printf("pairwise: %.4fs   1-vs-N: %.4fs   speedup: %.2fx   "
              "(%zu agree, %zu clusters, %.1f KiB shared lanes)\n\n",
              PairwiseSeconds, NWaySeconds, Speedup, NWay.NumAgreeing,
              NWay.Clusters.size(),
              static_cast<double>(NWay.SharedLaneBytes) / 1024);
  std::fputs(NWay.render().c_str(), stdout);
  std::printf("\n");

  char Buf[512];
  std::snprintf(
      Buf, sizeof(Buf),
      ",\n  \"nway\": {\"mutants\": %zu, \"base_entries\": %zu, "
      "\"pairwise_seconds\": %.6f, \"nway_seconds\": %.6f, "
      "\"speedup\": %.3f, \"compare_ops\": %llu, "
      "\"ops_identical\": %s, \"reports_identical\": %s, "
      "\"agreeing\": %zu, \"clusters\": %zu}",
      Mutants.size(), Set->Base.size(), PairwiseSeconds, NWaySeconds,
      Speedup, static_cast<unsigned long long>(PairwiseTotalOps),
      Exit ? "false" : "true", Exit ? "false" : "true", NWay.NumAgreeing,
      NWay.Clusters.size());
  Json += Buf;

  // One instrumented nway run for the rprism-metrics-v1 block: the nway.*
  // counters and stage spans CI asserts on.
  Telemetry::get().reset();
  Telemetry::get().setEnabled(true);
  uint64_t StartNanos = Telemetry::nowNanos();
  {
    TelemetrySpan Root("bench-fig14");
    NWayResult Instrumented = nwayDiff(Set->Base, Mutants);
    if (Instrumented.totalCompareOps() != PairwiseTotalOps) {
      std::printf("ERROR: instrumented nway op total diverges\n");
      Exit = 1;
    }
  }
  Telemetry::get().setEnabled(false);
  MetricsRunInfo Info;
  Info.Tool = "bench_fig14";
  Info.Command = "nway-study";
  Info.WallNanos = Telemetry::nowNanos() - StartNanos;
  const char *MetricsPath = "BENCH_fig14_metrics.json";
  if (writeMetricsJson(Telemetry::get().snapshot(), Info, MetricsPath)) {
    std::printf("[telemetry written to %s]\n", MetricsPath);
  } else {
    std::printf("error: cannot write %s\n", MetricsPath);
    Exit = 1;
  }
  return Exit;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Quick = false;
  std::string GitSha;
  std::string HistoryPath = "BENCH_fig14.json";
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--quick") == 0) {
      Quick = true;
    } else if (std::strcmp(Argv[I], "--git-sha") == 0 && I + 1 < Argc) {
      GitSha = Argv[++I];
    } else if (std::strcmp(Argv[I], "--history") == 0 && I + 1 < Argc) {
      HistoryPath = Argv[++I];
    } else {
      std::fprintf(stderr, "usage: bench_fig14 [--quick] [--git-sha SHA] "
                           "[--history FILE]\n");
      return 2;
    }
  }

  std::printf("== Fig. 14: RPrism vs optimized LCS on injected "
              "regressions ==\n\n");

  const unsigned NumCases = Quick ? 4 : 14;
  Histogram Accuracy = makeAccuracyHistogram();
  Histogram Speedup = makeSpeedupHistogram();
  TablePrinter Table;
  Table.setHeader({"case", "root cause", "entries", "lcs diffs",
                   "views diffs", "accuracy", "lcs ops", "views ops",
                   "speedup"});

  unsigned Produced = 0;
  unsigned Under50Seqs = 0;
  unsigned MaxSeqs = 0;
  uint64_t MaxCaseEntries = 0;
  for (unsigned Index = 0; Index != NumCases; ++Index) {
    RunOptions RegrRun, OkRun;
    rhinoInputs(Index, RegrRun, OkRun);
    Expected<InjectedCase> Case =
        injectRegression(rhinoBaseSource(), RegrRun, OkRun,
                         /*Seed=*/1000 + 7919 * Index);
    if (!Case) {
      std::printf("case %u: %s (skipped)\n", Index,
                  Case.error().render().c_str());
      continue;
    }
    ++Produced;

    const Trace &L = Case->Prepared.OrigRegr;
    const Trace &R = Case->Prepared.NewRegr;
    DiffResult Lcs = lcsDiff(L, R);
    DiffResult Views = viewsDiff(L, R);

    Under50Seqs += Views.Sequences.size() < 50;
    MaxSeqs = std::max(MaxSeqs,
                       static_cast<unsigned>(Views.Sequences.size()));
    MaxCaseEntries = std::max<uint64_t>(MaxCaseEntries, L.size() + R.size());

    double Total = static_cast<double>(L.size() + R.size());
    double AccuracyValue =
        (Total - static_cast<double>(Views.numDiffs())) /
        (Total - static_cast<double>(Lcs.numDiffs()));
    double SpeedupValue =
        Views.Stats.CompareOps == 0
            ? 1.0
            : static_cast<double>(Lcs.Stats.CompareOps) /
                  static_cast<double>(Views.Stats.CompareOps);
    Accuracy.add(AccuracyValue);
    Speedup.add(SpeedupValue);

    Table.addRow({"#" + std::to_string(Index),
                  mutationKindName(Case->Mutation.Kind),
                  TablePrinter::fmtInt(L.size() + R.size()),
                  TablePrinter::fmtInt(Lcs.numDiffs()),
                  TablePrinter::fmtInt(Views.numDiffs()),
                  TablePrinter::fmt(AccuracyValue * 100, 1) + "%",
                  TablePrinter::fmtInt(Lcs.Stats.CompareOps),
                  TablePrinter::fmtInt(Views.Stats.CompareOps),
                  TablePrinter::fmt(SpeedupValue, 2) + "x"});
  }

  Table.print(std::cout);
  std::printf("\n%u of %u cases usable; %u of %u with fewer than 50 "
              "difference sequences (max %u) — the paper: \"more than "
              "two-thirds of the bugs produced less than 50 difference "
              "sequences, with the remainder ranging from 50 to 130\"\n\n",
              Produced, NumCases, Under50Seqs, Produced, MaxSeqs);

  Accuracy.print(std::cout, "Fig. 14(a) Accuracy (RPrism vs LCS)");
  std::printf("\n");
  Speedup.print(std::cout, "Fig. 14(b) Speedup (RPrism vs LCS)");
  std::printf("\npaper reference: accuracy > 100%% in all but 3 of 14 "
              "cases (those 3 above 99%%); speedups up to >100x, below 1x "
              "only for two very small traces\n\n");

  std::string Json;
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "  \"fig14\": {\"cases\": %u, \"usable\": %u, "
                "\"under_50_seqs\": %u, \"max_seqs\": %u}",
                NumCases, Produced, Under50Seqs, MaxSeqs);
  Json += Buf;

  double NWaySpeedup = 0;
  uint64_t BaseEntries = 0;
  int Exit = runNWayStudy(Quick ? 3 : 8, Json, NWaySpeedup, BaseEntries);

  // Trace production over the Rhino base program: the VM+recorder
  // throughput (and run-stage RSS growth) behind every trace this harness
  // consumes.
  double TraceGenRate = 0;
  {
    RunOptions RegrRun, OkRun;
    rhinoInputs(0, RegrRun, OkRun);
    auto Prog = compileSource(rhinoBaseSource());
    if (Prog) {
      uint64_t PeakBefore = peakRssBytes();
      uint64_t Entries = 0;
      double Seconds = bestOf(
          [&] { Entries = runProgram(*Prog, RegrRun).ExecTrace.size(); });
      uint64_t Peak = peakRssBytes();
      TraceGenRate =
          Seconds > 0 ? static_cast<double>(Entries) / Seconds : 0;
      char GenBuf[320];
      std::snprintf(
          GenBuf, sizeof(GenBuf),
          ",\n  \"trace_gen\": {\"entries\": %llu, \"seconds\": %.6f, "
          "\"entries_per_sec\": %.1f, \"peak_rss_bytes\": %llu, "
          "\"peak_rss_delta_bytes\": %llu}",
          static_cast<unsigned long long>(Entries), Seconds, TraceGenRate,
          static_cast<unsigned long long>(Peak),
          static_cast<unsigned long long>(Peak - PeakBefore));
      Json += GenBuf;
      std::printf("trace generation (rhino base): %llu entries, %.2f ms, "
                  "%.0f entries/s\n\n",
                  static_cast<unsigned long long>(Entries), Seconds * 1e3,
                  TraceGenRate);
    }
  }

  std::snprintf(Buf, sizeof(Buf),
                ",\n  \"key_metrics\": {\"usable_cases\": %u, "
                "\"max_seqs\": %u, \"nway_speedup\": %.3f, "
                "\"trace_gen_entries_per_sec\": %.1f}",
                Produced, MaxSeqs, NWaySpeedup, TraceGenRate);
  Json += Buf;
  Json += "\n}\n";

  BenchRunInfo Run;
  Run.Bench = "fig14";
  Run.GitSha = GitSha;
  Run.Quick = Quick;
  Run.CorpusEntries = std::max(MaxCaseEntries, BaseEntries);
  std::string Record = "{\n" + renderBenchHeader(Run) + Json;
  if (appendBenchRecordLine(HistoryPath, Record)) {
    std::printf("[history record appended to %s]\n", HistoryPath.c_str());
  } else {
    std::printf("error: cannot append to %s\n", HistoryPath.c_str());
    Exit = 1;
  }
  return Exit;
}
