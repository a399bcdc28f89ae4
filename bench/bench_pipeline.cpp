//===- bench/bench_pipeline.cpp - Fingerprint + parallel pipeline sweep ---===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures the two layers of the diff-pipeline optimization against the
/// seed sequential path, over a sweep of trace sizes x workload thread
/// counts (the §5.1 scaling pair, extended with spawned runner threads so
/// the per-thread-pair parallelism has work to distribute):
///
///   seed      — fingerprints stripped, jobs=1: the pre-optimization
///               pipeline (every =e compare runs the full field-by-field
///               path).
///   fp-seq    — fingerprints on, jobs=1: isolates the =e fast-path win.
///   fp-jobsN  — fingerprints on, jobs=N: adds the thread-pool stages
///               (web builds, per-pair evaluation).
///
/// A second, on-disk phase measures the repeat-diff warm paths: cold
/// (load + web build + correlate + diff) versus warm (web and correlation
/// cache hits) over trace files written with and without the persisted
/// view-index sections.
///
/// Every configuration must produce an identical rendered report and
/// compare-op count (checked here; the determinism contract of
/// ViewsDiffOptions::Jobs). Rows record both the requested and the
/// effective worker count — the adaptive cutoff may clamp silently, and a
/// benchmark that claims jobs=8 while running sequentially misleads.
/// Repetitions auto-scale until each row accumulates a minimum wall time,
/// so sub-millisecond configs aren't drowned by timer noise. Results go
/// to BENCH_pipeline.json: wall seconds, entries/sec, compare ops, and
/// peak RSS.
///
//===----------------------------------------------------------------------===//

#include "TraceFileLayout.h"

#include "cache/DiffCache.h"
#include "diff/ViewsDiff.h"
#include "runtime/Compiler.h"
#include "runtime/Vm.h"
#include "support/BenchHistory.h"
#include "support/MetricsSink.h"
#include "trace/Serialize.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"
#include "workload/Generator.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

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

struct TracePair {
  std::shared_ptr<StringInterner> Strings;
  Trace Left;
  Trace Right;
};

TracePair makePair(unsigned OuterIters, unsigned WorkloadThreads) {
  GeneratorOptions Base;
  Base.OuterIters = OuterIters;
  Base.NumThreads = WorkloadThreads;
  GeneratorOptions Perturbed = Base;
  Perturbed.Perturb = 1; // One constant changed: a version pair.
  Perturbed.ReorderBlock = true;

  TracePair Pair;
  Pair.Strings = std::make_shared<StringInterner>();
  auto Left = compileSource(generateProgram(Base), Pair.Strings);
  auto Right = compileSource(generateProgram(Perturbed), Pair.Strings);
  if (!Left || !Right)
    std::abort();
  RunOptions Options;
  Options.TraceName = "pipeline";
  Pair.Left = runProgram(*Left, Options).ExecTrace;
  Pair.Right = runProgram(*Right, Options).ExecTrace;
  return Pair;
}

struct Measurement {
  std::string Config;
  double Seconds = 0;
  double EntriesPerSec = 0;
  uint64_t CompareOps = 0;
  uint64_t PeakRss = 0;
  /// Growth of the process RSS high-water mark during this row. The
  /// absolute peak never resets, so small later rows would otherwise
  /// inherit the peak of earlier large rows.
  uint64_t PeakRssDelta = 0;
  /// The worker count asked for (0 resolved to hardware concurrency) and
  /// the one the adaptive cutoff actually granted. Divergence is expected
  /// on small traces and single-core hosts, but it must be *visible* in
  /// every row, never silent.
  unsigned RequestedJobs = 0;
  unsigned EffectiveJobs = 0;
  size_t NumDiffs = 0;
  unsigned Reps = 0;
};

/// Auto-scaled repetition: runs \p Body until the row has accumulated
/// \p MinWallSeconds of measurement (at least \p MinReps, at most
/// \p MaxReps repetitions) and returns the best single-rep seconds. Fixed
/// rep counts under-measure sub-millisecond configs and over-measure the
/// multi-second ones.
template <typename BodyFn>
double bestOf(BodyFn &&Body, unsigned *RepsOut = nullptr,
              unsigned MinReps = 2, double MinWallSeconds = 0.025,
              unsigned MaxReps = 16) {
  double Best = 1e30;
  double Total = 0;
  unsigned Rep = 0;
  while (Rep != MaxReps) {
    Timer Clock;
    Body(Rep);
    double Seconds = Clock.seconds();
    ++Rep;
    Best = std::min(Best, Seconds);
    Total += Seconds;
    if (Rep >= MinReps && Total >= MinWallSeconds)
      break;
  }
  if (RepsOut)
    *RepsOut = Rep;
  return Best;
}

/// Best wall time for one in-memory configuration. The diff inputs are
/// copied per rep so fingerprint stripping cannot leak across configs.
Measurement measure(const std::string &Config, const TracePair &Pair,
                    bool Fingerprints, unsigned Jobs,
                    std::string *RenderOut) {
  Measurement M;
  M.Config = Config;
  uint64_t Entries = Pair.Left.size() + Pair.Right.size();
  uint64_t PeakBefore = peakRssBytes();
  M.Seconds = bestOf(
      [&](unsigned Rep) {
        Trace Left = Pair.Left;
        Trace Right = Pair.Right;
        if (!Fingerprints) {
          // The seed pipeline: no fingerprints existed, every =e compare
          // runs the full field-by-field path.
          Left.HasFingerprints = false;
          Right.HasFingerprints = false;
        }
        ViewsDiffOptions Options;
        Options.Jobs = Jobs;
        M.RequestedJobs = Jobs ? Jobs : ThreadPool::defaultConcurrency();
        M.EffectiveJobs =
            effectiveDiffJobs(Options, Left.size() + Right.size());
        DiffResult Result = viewsDiff(Left, Right, Options);
        M.CompareOps = Result.Stats.CompareOps;
        M.NumDiffs = Result.numDiffs();
        if (RenderOut && Rep == 0)
          *RenderOut = Result.render(50, 12);
      },
      &M.Reps);
  M.EntriesPerSec =
      M.Seconds > 0 ? static_cast<double>(Entries) / M.Seconds : 0;
  M.PeakRss = peakRssBytes();
  M.PeakRssDelta = M.PeakRss - PeakBefore;
  return M;
}

void appendJson(std::string &Json, unsigned OuterIters,
                unsigned WorkloadThreads, uint64_t Entries,
                double BytesPerEntry, const Measurement &M, bool First) {
  char Buf[896];
  std::snprintf(
      Buf, sizeof(Buf),
      "%s    {\"outer_iters\": %u, \"workload_threads\": %u, "
      "\"entries\": %llu, \"format\": \"memory\", "
      "\"bytes_per_entry\": %.1f, \"config\": \"%s\", "
      "\"requested_jobs\": %u, \"effective_jobs\": %u, "
      "\"jobs_diverged\": %s, \"reps\": %u, \"seconds\": %.6f, "
      "\"entries_per_sec\": %.1f, \"compare_ops\": %llu, "
      "\"num_diffs\": %zu, \"peak_rss_bytes\": %llu, "
      "\"peak_rss_delta_bytes\": %llu}",
      First ? "" : ",\n", OuterIters, WorkloadThreads,
      static_cast<unsigned long long>(Entries), BytesPerEntry,
      M.Config.c_str(), M.RequestedJobs, M.EffectiveJobs,
      M.EffectiveJobs != M.RequestedJobs ? "true" : "false", M.Reps,
      M.Seconds, M.EntriesPerSec,
      static_cast<unsigned long long>(M.CompareOps), M.NumDiffs,
      static_cast<unsigned long long>(M.PeakRss),
      static_cast<unsigned long long>(M.PeakRssDelta));
  Json += Buf;
}

/// Writes both traces in one file shape, reloads them into one fresh
/// interner, and re-diffs: the report and compare-op totals must be
/// identical to the in-memory reference. \p Label is "indexed" or
/// "plain" (which omits the optional view-index sections).
/// Returns the JSON fragment.
std::string checkFormatDeterminism(const TracePair &Pair,
                                   const std::string &RefRender,
                                   uint64_t RefOps, const char *Label,
                                   bool First, int &Exit) {
  std::string Name = Label;
  std::string LPath = "/tmp/bench_pipeline_L_" + Name + ".trace";
  std::string RPath = "/tmp/bench_pipeline_R_" + Name + ".trace";
  bool WithIndex = Name == "indexed";
  bool Wrote = writeTrace(Pair.Left, LPath, WithIndex) &&
               writeTrace(Pair.Right, RPath, WithIndex);
  bool ReportIdentical = false, OpsIdentical = false;
  if (Wrote) {
    auto Shared = std::make_shared<StringInterner>();
    Expected<Trace> L = readTrace(LPath, Shared);
    Expected<Trace> R = readTrace(RPath, Shared);
    if (L && R) {
      ViewsDiffOptions Options;
      Options.Jobs = 1;
      DiffResult Result = viewsDiff(*L, *R, Options);
      ReportIdentical = Result.render(50, 12) == RefRender;
      OpsIdentical = Result.Stats.CompareOps == RefOps;
    }
  }
  if (!ReportIdentical || !OpsIdentical) {
    std::printf("  ERROR: %s reload diverged from the in-memory report\n",
                Label);
    Exit = 1;
  }
  std::remove(LPath.c_str());
  std::remove(RPath.c_str());
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "%s    {\"format\": \"%s\", \"report_identical\": %s, "
                "\"compare_ops_identical\": %s}",
                First ? "" : ",\n", Label,
                ReportIdentical ? "true" : "false",
                OpsIdentical ? "true" : "false");
  return Buf;
}

/// Cuts a trace file in the middle of its Prov column, the last entry
/// column, located through the section table. A salvage read must keep
/// the entries before the cut. Returns false if \p Bytes has no Prov
/// section to cut.
bool cutInsideLastEntryColumn(std::vector<uint8_t> &Bytes) {
  tracelayout::SectionRec Prov = tracelayout::section(Bytes, 20);
  if (Prov.Id != 20 || Prov.Length < 8 ||
      Prov.Offset + Prov.Length > Bytes.size())
    return false;
  Bytes.resize(static_cast<size_t>(Prov.Offset + Prov.Length / 2));
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  // Sweep sizes (OuterIters) x workload thread counts. `--quick` trims the
  // sweep for CI smoke runs; `--git-sha` stamps the history record (the
  // harness never shells out to git itself); `--history` overrides the
  // output path.
  bool Quick = false;
  std::string GitSha;
  std::string HistoryPath = "BENCH_pipeline.json";
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--quick") {
      Quick = true;
    } else if (Arg == "--git-sha" && I + 1 < Argc) {
      GitSha = Argv[++I];
    } else if (Arg == "--history" && I + 1 < Argc) {
      HistoryPath = Argv[++I];
    } else {
      std::fprintf(stderr,
                   "usage: bench_pipeline [--quick] [--git-sha SHA] "
                   "[--history FILE]\n");
      return 2;
    }
  }
  std::vector<unsigned> Sizes =
      Quick ? std::vector<unsigned>{50, 200}
            : std::vector<unsigned>{50, 400, 1600};
  std::vector<unsigned> WorkloadThreads =
      Quick ? std::vector<unsigned>{2} : std::vector<unsigned>{1, 4, 8};
  unsigned Hw = ThreadPool::defaultConcurrency();
  std::vector<unsigned> JobCounts{2, 4};
  if (Hw > 4)
    JobCounts.push_back(Hw);

  // The record body; the history header (schema/git_sha/corpus size) is
  // prepended once the sweep has established the corpus size.
  std::string Json = "  \"hardware_concurrency\": " + std::to_string(Hw) +
                     ",\n  \"results\": [\n";
  bool First = true;
  int Exit = 0;
  double LargestSeedSeconds = 0;
  double LargestBestSeconds = 0;
  uint64_t LargestEntries = 0;
  double WarmSpeedup = 0, IndexedColdSpeedup = 0;

  for (unsigned Threads : WorkloadThreads) {
    for (unsigned Size : Sizes) {
      TracePair Pair = makePair(Size, Threads);
      uint64_t Entries = Pair.Left.size() + Pair.Right.size();
      LargestEntries = std::max(LargestEntries, Entries);
      double BytesPerEntry =
          Entries ? static_cast<double>(Pair.Left.storageBytes() +
                                        Pair.Right.storageBytes()) /
                        static_cast<double>(Entries)
                  : 0;
      std::printf("== %llu entries (iters=%u, workload threads=%u) ==\n",
                  static_cast<unsigned long long>(Entries), Size, Threads);

      std::string SeedRender;
      Measurement Seed = measure("seed", Pair, /*Fingerprints=*/false,
                                 /*Jobs=*/1, &SeedRender);
      appendJson(Json, Size, Threads, Entries, BytesPerEntry, Seed, First);
      First = false;
      std::printf("  %-10s %8.2f ms  %12.0f entries/s  %10llu ops\n",
                  Seed.Config.c_str(), Seed.Seconds * 1e3,
                  Seed.EntriesPerSec,
                  static_cast<unsigned long long>(Seed.CompareOps));

      double Best = 1e30;
      std::vector<std::pair<std::string, std::pair<bool, unsigned>>> Configs;
      Configs.emplace_back("fp-seq", std::make_pair(true, 1u));
      for (unsigned Jobs : JobCounts)
        Configs.emplace_back("fp-jobs" + std::to_string(Jobs),
                             std::make_pair(true, Jobs));
      for (const auto &[Name, Cfg] : Configs) {
        std::string Render;
        Measurement M = measure(Name, Pair, Cfg.first, Cfg.second, &Render);
        appendJson(Json, Size, Threads, Entries, BytesPerEntry, M, First);
        std::printf("  %-10s %8.2f ms  %12.0f entries/s  %10llu ops"
                    "  (%.2fx)%s\n",
                    M.Config.c_str(), M.Seconds * 1e3, M.EntriesPerSec,
                    static_cast<unsigned long long>(M.CompareOps),
                    Seed.Seconds / M.Seconds,
                    M.EffectiveJobs != M.RequestedJobs
                        ? "  [adaptive cutoff ran sequential]"
                        : "");
        Best = std::min(Best, M.Seconds);
        // The determinism contract: every jobs value (and the fingerprint
        // fast path) yields the identical report and compare-op count.
        if (Render != SeedRender || M.CompareOps != Seed.CompareOps) {
          std::printf("  ERROR: '%s' diverged from the seed report\n",
                      Name.c_str());
          Exit = 1;
        }
      }
      if (Threads == WorkloadThreads.back() && Size == Sizes.back()) {
        LargestSeedSeconds = Seed.Seconds;
        LargestBestSeconds = Best;
      }
    }
  }

  // Cross-format determinism: every file shape must reload into a report
  // byte-identical to the in-memory diff, with identical compare-op
  // totals.
  std::string FormatJson = ",\n  \"format_determinism\": [\n";
  {
    TracePair Pair = makePair(Quick ? 100 : 400, 2);
    ViewsDiffOptions RefOptions;
    RefOptions.Jobs = 1;
    DiffResult Ref = viewsDiff(Pair.Left, Pair.Right, RefOptions);
    std::string RefRender = Ref.render(50, 12);
    bool FormatFirst = true;
    for (const char *Label : {"indexed", "plain"}) {
      FormatJson += checkFormatDeterminism(Pair, RefRender,
                                           Ref.Stats.CompareOps, Label,
                                           FormatFirst, Exit);
      FormatFirst = false;
    }
  }
  FormatJson += "\n  ],\n  \"determinism_ok\": ";
  FormatJson += Exit == 0 ? "true" : "false";

  // Repeat-diff warm paths: cold (load + web build + correlate + diff)
  // versus warm (web and correlation cache hits on the traces the priming
  // run loaded) over trace files written with and without the persisted
  // view-index sections. Every run's report and
  // compare-op total must match the in-memory reference (the rows carry
  // the identity flags CI asserts), and an instrumented pass pins the span
  // contract: on indexed files, web-build never appears — webs come from
  // the view-index sections cold and from the cache warm.
  std::string RepeatJson = ",\n  \"repeat_diff\": [\n";
  {
    TracePair Pair = makePair(Quick ? 100 : 1600, Quick ? 2 : 8);
    uint64_t Entries = Pair.Left.size() + Pair.Right.size();
    ViewsDiffOptions Options;
    Options.Jobs = 1;
    DiffResult Ref = viewsDiff(Pair.Left, Pair.Right, Options);
    std::string RefRender = Ref.render(50, 12);
    std::printf("== repeat diff, %llu entries ==\n",
                static_cast<unsigned long long>(Entries));

    bool RowFirst = true;
    double IndexedCold = 0, IndexedWarm = 0, PlainCold = 0;
    for (bool Indexed : {true, false}) {
      const char *FileKind = Indexed ? "indexed" : "plain";
      std::string LPath =
          std::string("/tmp/bench_repeat_L_") + FileKind + ".trace";
      std::string RPath =
          std::string("/tmp/bench_repeat_R_") + FileKind + ".trace";
      if (!writeTrace(Pair.Left, LPath, Indexed) ||
          !writeTrace(Pair.Right, RPath, Indexed)) {
        std::printf("error: cannot write repeat-diff trace files\n");
        Exit = 1;
        break;
      }

      bool ReportIdentical = true, OpsIdentical = true;
      using Sides = std::pair<std::shared_ptr<const Trace>,
                              std::shared_ptr<const Trace>>;
      // Loads both files through Cache into a fresh interner (nulls on
      // error).
      auto Load = [&](DiffCache &Cache) {
        auto Strings = std::make_shared<StringInterner>();
        Err Error;
        Sides Loaded(Cache.load(LPath, Strings, &Error),
                     Cache.load(RPath, Strings, &Error));
        if (!Loaded.first || !Loaded.second) {
          std::printf("error: %s\n", Error.render().c_str());
          Exit = 1;
          return Sides();
        }
        return Loaded;
      };
      auto Diff = [&](DiffCache &Cache, const Sides &S, bool Check) {
        if (!S.first)
          return;
        DiffResult Result =
            cachedViewsDiff(*S.first, *S.second, Options, Cache);
        if (Check) {
          ReportIdentical &= Result.render(50, 12) == RefRender;
          OpsIdentical &= Result.Stats.CompareOps == Ref.Stats.CompareOps;
        }
      };

      // Cold: a fresh cache and interner per rep — every rep pays load,
      // web build (or index reconstruction), correlation, and diff.
      unsigned ColdReps = 0, WarmReps = 0;
      double Cold = bestOf(
          [&](unsigned Rep) {
            DiffCache Cache;
            Diff(Cache, Load(Cache), Rep == 0);
          },
          &ColdReps);
      // Warm: one persistent cache primed by one run, whose traces every
      // rep diffs again — the repeat-diff hit path (web and correlation
      // hits plus the evaluation itself).
      DiffCache WarmCache;
      Sides WarmSides = Load(WarmCache);
      Diff(WarmCache, WarmSides, /*Check=*/true);
      double Warm = bestOf(
          [&](unsigned Rep) { Diff(WarmCache, WarmSides, Rep == 0); },
          &WarmReps);

      if (Indexed) {
        IndexedCold = Cold;
        IndexedWarm = Warm;
      } else {
        PlainCold = Cold;
      }
      if (!ReportIdentical || !OpsIdentical) {
        std::printf("  ERROR: %s repeat diff diverged from the in-memory "
                    "report\n",
                    FileKind);
        Exit = 1;
      }
      for (bool WarmRow : {false, true}) {
        char Buf[512];
        std::snprintf(
            Buf, sizeof(Buf),
            "%s    {\"file\": \"%s\", \"phase\": \"%s\", \"entries\": %llu, "
            "\"seconds\": %.6f, \"reps\": %u, \"report_identical\": %s, "
            "\"compare_ops_identical\": %s}",
            RowFirst ? "" : ",\n", FileKind, WarmRow ? "warm" : "cold",
            static_cast<unsigned long long>(Entries),
            WarmRow ? Warm : Cold, WarmRow ? WarmReps : ColdReps,
            ReportIdentical ? "true" : "false",
            OpsIdentical ? "true" : "false");
        RepeatJson += Buf;
        RowFirst = false;
        std::printf("  %-10s %-5s %8.2f ms\n", FileKind,
                    WarmRow ? "warm" : "cold",
                    (WarmRow ? Warm : Cold) * 1e3);
      }

      // Span contract on indexed files: web-build must never fire — the
      // cold path reconstructs from the index ("view-index" span), the
      // warm path hits the cache.
      if (Indexed) {
        Telemetry::get().reset();
        Telemetry::get().setEnabled(true);
        {
          DiffCache Cache;
          Sides Loaded = Load(Cache);
          Diff(Cache, Loaded, /*Check=*/false); // cold
          Diff(Cache, Loaded, /*Check=*/false); // warm
        }
        Telemetry::get().setEnabled(false);
        TelemetrySnapshot Snap = Telemetry::get().snapshot();
        bool SawWebBuild = false, SawViewIndex = false;
        for (const SpanStat &Span : Snap.Spans) {
          SawWebBuild |= Span.name() == "web-build";
          SawViewIndex |= Span.name() == "view-index";
        }
        if (SawWebBuild || !SawViewIndex ||
            Snap.counter("web.from_index") != 2 ||
            Snap.counter("web.cache.hit") != 2) {
          std::printf("  ERROR: indexed repeat diff violated the span/"
                      "counter contract (web-build=%d view-index=%d "
                      "from_index=%llu web_hits=%llu)\n",
                      SawWebBuild, SawViewIndex,
                      static_cast<unsigned long long>(
                          Snap.counter("web.from_index")),
                      static_cast<unsigned long long>(
                          Snap.counter("web.cache.hit")));
          Exit = 1;
        }
        Telemetry::get().reset();
      }
      std::remove(LPath.c_str());
      std::remove(RPath.c_str());
    }
    WarmSpeedup = IndexedWarm > 0 ? IndexedCold / IndexedWarm : 0;
    IndexedColdSpeedup = IndexedCold > 0 ? PlainCold / IndexedCold : 0;
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "\n  ],\n  \"repeat_diff_summary\": {\"warm_speedup\": "
                  "%.2f, \"indexed_cold_speedup\": %.2f}",
                  WarmSpeedup, IndexedColdSpeedup);
    RepeatJson += Buf;
    if (IndexedWarm > 0)
      std::printf("  warm speedup vs cold: %.2fx; indexed cold speedup vs "
                  "unindexed cold: %.2fx\n",
                  IndexedCold / IndexedWarm, PlainCold / IndexedCold);
  }

  // Trace production: how fast the VM turns a program into a finished
  // trace (the recorder's columnar-emission path), per dispatch tier. The
  // compiled program is reused across reps — the run itself is what's
  // being timed — and the switch-tier row doubles as a cheap cross-check
  // that both tiers produce the same entry count.
  std::string TraceGenJson = ",\n  \"trace_gen\": [\n";
  double TraceGenEntriesPerSec = 0;
  {
    GeneratorOptions GenOpt;
    GenOpt.OuterIters = Sizes.back();
    GenOpt.NumThreads = WorkloadThreads.back();
    auto GenStrings = std::make_shared<StringInterner>();
    auto Prog = compileSource(generateProgram(GenOpt), GenStrings);
    if (!Prog)
      std::abort();
    RunOptions Options;
    Options.TraceName = "trace-gen";
    std::printf("== trace generation (iters=%u, workload threads=%u) ==\n",
                GenOpt.OuterIters, GenOpt.NumThreads);
    bool GenFirst = true;
    uint64_t ThreadedEntries = 0, SwitchEntries = 0;
    for (bool Threaded : {true, false}) {
#if defined(_WIN32)
      if (!Threaded)
        continue; // No setenv; the threaded row covers the build's tier.
#else
      if (!Threaded)
        setenv("RPRISM_NO_THREADED_DISPATCH", "1", 1);
#endif
      uint64_t Entries = 0, Steps = 0;
      uint64_t PeakBefore = peakRssBytes();
      unsigned Reps = 0;
      double Seconds = bestOf(
          [&](unsigned) {
            RunResult R = runProgram(*Prog, Options);
            Entries = R.ExecTrace.size();
            Steps = R.Steps;
          },
          &Reps);
      uint64_t Peak = peakRssBytes();
#if !defined(_WIN32)
      if (!Threaded)
        unsetenv("RPRISM_NO_THREADED_DISPATCH");
#endif
      (Threaded ? ThreadedEntries : SwitchEntries) = Entries;
      double Rate = Seconds > 0 ? static_cast<double>(Entries) / Seconds : 0;
      if (Threaded)
        TraceGenEntriesPerSec = Rate;
      char Buf[512];
      std::snprintf(
          Buf, sizeof(Buf),
          "%s    {\"dispatch\": \"%s\", \"outer_iters\": %u, "
          "\"workload_threads\": %u, \"entries\": %llu, \"steps\": %llu, "
          "\"reps\": %u, \"seconds\": %.6f, \"entries_per_sec\": %.1f, "
          "\"peak_rss_bytes\": %llu, \"peak_rss_delta_bytes\": %llu}",
          GenFirst ? "" : ",\n", Threaded ? "threaded" : "switch",
          GenOpt.OuterIters, GenOpt.NumThreads,
          static_cast<unsigned long long>(Entries),
          static_cast<unsigned long long>(Steps), Reps, Seconds, Rate,
          static_cast<unsigned long long>(Peak),
          static_cast<unsigned long long>(Peak - PeakBefore));
      TraceGenJson += Buf;
      GenFirst = false;
      std::printf("  %-10s %8.2f ms  %12.0f entries/s\n",
                  Threaded ? "threaded" : "switch", Seconds * 1e3, Rate);
    }
    if (SwitchEntries != 0 && SwitchEntries != ThreadedEntries) {
      std::printf("  ERROR: dispatch tiers produced different entry "
                  "counts (%llu vs %llu)\n",
                  static_cast<unsigned long long>(ThreadedEntries),
                  static_cast<unsigned long long>(SwitchEntries));
      Exit = 1;
    }
    TraceGenJson += "\n  ]";
  }

  // Telemetry verification pass. The measurements above run with telemetry
  // disabled — the recording path must cost nothing when off — so one extra
  // instrumented run + diff cross-checks the metrics registry against
  // DiffStats and exports the shared sink schema alongside the timing
  // results. makePair runs *inside* the instrumented window so the VM's
  // trace-production telemetry (vm-run spans, vm.* counters) lands in the
  // exported metrics too.
  std::string SalvageJson;
  {
    Telemetry::get().reset();
    Telemetry::get().setEnabled(true);
    uint64_t StartNanos = Telemetry::nowNanos();
    TracePair Pair = makePair(50, 2);
    ViewsDiffOptions Options;
    Options.Jobs = 2;
    DiffResult Result;
    {
      TelemetrySpan Root("bench-pipeline");
      Result = viewsDiff(Pair.Left, Pair.Right, Options);
    }

    // Salvage, still inside the instrumented window: a trace file cut in
    // the middle of its last entry column salvages to the entries before
    // the cut, and the `robust.salvage.*` counters land in the exported
    // metrics artifact, where CI jq-gates them.
    bool SalvageOk = false;
    uint64_t Recovered = 0, Dropped = 0;
    {
      const std::string CutPath = "/tmp/bench_pipeline_cut.trace";
      std::vector<uint8_t> Bytes;
      if (writeTrace(Pair.Left, CutPath))
        Bytes = tracelayout::readAll(CutPath);
      if (!Bytes.empty() && cutInsideLastEntryColumn(Bytes) &&
          tracelayout::writeAll(CutPath, Bytes)) {
        auto Shared = std::make_shared<StringInterner>();
        ReadOptions SalvageOpts;
        SalvageOpts.Salvage = true;
        TraceReadReport Report;
        SalvageOpts.Report = &Report;
        Expected<Trace> Salvaged = readTrace(CutPath, Shared, SalvageOpts);
        Recovered = Report.EntriesRecovered;
        Dropped = Report.EntriesDropped;
        SalvageOk = Salvaged && Report.Salvaged && Salvaged->size() != 0 &&
                    Dropped != 0 &&
                    Salvaged->size() + Dropped == Pair.Left.size();
      }
      std::remove(CutPath.c_str());
    }

    Telemetry::get().setEnabled(false);
    TelemetrySnapshot Snap = Telemetry::get().snapshot();
    if (!SalvageOk || Snap.counter("robust.salvage.used") != 1) {
      std::printf("ERROR: salvage did not keep the prefix before the cut "
                  "(ok=%d, recovered=%llu, dropped=%llu)\n",
                  SalvageOk, static_cast<unsigned long long>(Recovered),
                  static_cast<unsigned long long>(Dropped));
      Exit = 1;
    }
    {
      char Buf[256];
      std::snprintf(Buf, sizeof(Buf),
                    ",\n  \"salvage\": {\"recovered_entries\": %llu, "
                    "\"dropped_entries\": %llu, \"salvage_ok\": %s}",
                    static_cast<unsigned long long>(Recovered),
                    static_cast<unsigned long long>(Dropped),
                    SalvageOk ? "true" : "false");
      SalvageJson = Buf;
    }
    if (Snap.counter("diff.compare_ops") != Result.Stats.CompareOps) {
      std::printf("ERROR: telemetry compare-op counter (%llu) != "
                  "DiffStats.CompareOps (%llu)\n",
                  static_cast<unsigned long long>(
                      Snap.counter("diff.compare_ops")),
                  static_cast<unsigned long long>(Result.Stats.CompareOps));
      Exit = 1;
    }
    MetricsRunInfo Info;
    Info.Tool = "bench_pipeline";
    Info.Command = "verify-jobs2";
    Info.WallNanos = Telemetry::nowNanos() - StartNanos;
    const char *MetricsPath = "BENCH_pipeline_metrics.json";
    if (writeMetricsJson(Snap, Info, MetricsPath)) {
      std::printf("[telemetry written to %s]\n", MetricsPath);
    } else {
      std::printf("error: cannot write %s\n", MetricsPath);
      Exit = 1;
    }
  }

  Json += "\n  ]";
  Json += FormatJson;
  Json += RepeatJson;
  Json += TraceGenJson;
  Json += SalvageJson;

  // Headline numbers the regression trajectory tracks, pulled up front so
  // history consumers don't have to re-derive them from the row arrays.
  double LargestSpeedup = LargestBestSeconds > 0
                              ? LargestSeedSeconds / LargestBestSeconds
                              : 0;
  {
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  ",\n  \"key_metrics\": {\"largest_speedup\": %.2f, "
                  "\"warm_speedup\": %.2f, \"indexed_cold_speedup\": %.2f, "
                  "\"trace_gen_entries_per_sec\": %.1f, "
                  "\"determinism_ok\": %s}",
                  LargestSpeedup, WarmSpeedup, IndexedColdSpeedup,
                  TraceGenEntriesPerSec, Exit == 0 ? "true" : "false");
    Json += Buf;
  }
  Json += "\n}\n";

  BenchRunInfo Run;
  Run.Bench = "pipeline";
  Run.GitSha = GitSha;
  Run.Quick = Quick;
  Run.CorpusEntries = LargestEntries;
  std::string Record = "{\n" + renderBenchHeader(Run) + Json;
  if (appendBenchRecordLine(HistoryPath, Record)) {
    std::printf("\n[history record appended to %s]\n", HistoryPath.c_str());
  } else {
    std::printf("\nerror: cannot append to %s\n", HistoryPath.c_str());
    Exit = 1;
  }
  if (LargestBestSeconds > 0)
    std::printf("largest-size speedup vs seed sequential: %.2fx\n",
                LargestSpeedup);
  return Exit;
}
