//===- perfbench/main.cpp - End-to-end ledger runner ----------------------===//
///
/// \file
/// Runs one workload as a closed loop with one client: a session starts
/// only when the previous one has finished, until --seconds have passed.
///
///   perfbench --workload NAME --seed N --seconds S --trace 0|1
///             --workdir DIR [--spans-out FILE]
///
/// --trace 0 times untraced sessions and prints the end-to-end metrics.
/// --trace 1 alternates an untraced and a traced session (plus probes)
/// and prints the per-layer metrics; the spans go to --spans-out. The
/// last line of stdout is the JSON result; the lines before it repeat
/// the metrics for people.
///
//===----------------------------------------------------------------------===//

#include "Programs.h"
#include "Sessions.h"
#include "Spans.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

using namespace perfbench;

namespace {

struct Metric {
  std::string Name;
  const char *Unit;
  double Value;
};

double median(std::vector<double> Values) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  size_t N = Values.size();
  return N % 2 ? Values[N / 2] : (Values[N / 2 - 1] + Values[N / 2]) / 2;
}

/// Layer counts: a property of the seed's programs, never of timing.
/// Every traced session must report the same value.
const std::set<std::string> ExactCounts = {
    "runtime.entries",       "runtime.steps",
    "trace.bytes_per_entry", "views.count",
    "views.thread_count",    "views.object_count",
    "diff.compare_ops",      "diff.sequences",
    "diff.entries_differing", "diff.peak_bytes",
    "analysis.size_a",       "analysis.size_b",
    "analysis.size_c",       "analysis.size_d",
    "analysis.regression_sequences"};

/// Per-layer metrics of one traced session, from its spans and counts.
std::vector<Metric> layerMetrics(const SpanLog &Log, uint32_t Session,
                                 const LayerValues &V, bool OnDisk,
                                 double &SessionSeconds, double &RootSelf) {
  std::map<std::string, double> Sum;
  uint64_t Duration = 0, Uncovered = 0;
  const auto &Spans = Log.spans();
  for (size_t I = 0; I != Spans.size(); ++I) {
    const SpanLog::Span &S = Spans[I];
    if (S.Session != Session)
      continue;
    Sum[S.Name] += (S.End - S.Begin) * 1e-9;
    if (S.Parent < 0 && std::strcmp(S.Name, "probe") != 0) {
      Duration += S.End - S.Begin;
      Uncovered += Log.selfNanos(I);
    }
  }
  SessionSeconds = Duration * 1e-9;
  RootSelf = Duration ? double(Uncovered) / Duration : 1.0;
  auto Value = [&V](const char *Name) {
    auto It = V.find(Name);
    return It == V.end() ? 0.0 : It->second;
  };
  auto PerEntry = [](double Seconds, double Entries) {
    return Entries > 0 ? Seconds / Entries * 1e9 : 0.0;
  };
  double Direct = Sum["diff.pool"] + Sum["views.web"] +
                  Sum["correlate.build"] + Sum["diff.eval"];
  if (OnDisk)
    Direct += Sum["trace.digest"] + Sum["trace.load"];
  double Written = Value("trace.entries_written");
  return {
      {"runtime.compile_s", "s", Sum["runtime.compile"]},
      {"runtime.run_s", "s", Sum["runtime.run"]},
      {"runtime.ns_per_entry", "ns",
       PerEntry(Sum["runtime.run"], Value("runtime.entries"))},
      {"runtime.entries", "count", Value("runtime.entries")},
      {"runtime.steps", "count", Value("runtime.steps")},
      {"trace.write_s", "s", Sum["trace.write"]},
      {"trace.write_ns_per_entry", "ns", PerEntry(Sum["trace.write"], Written)},
      {"trace.digest_s", "s", Sum["trace.digest"]},
      {"trace.load_s", "s", Sum["trace.load"]},
      {"trace.load_ns_per_entry", "ns",
       PerEntry(Sum["trace.load"], Value("trace.entries_loaded"))},
      {"trace.bytes_per_entry", "B/entry",
       Written > 0 ? Value("trace.bytes") / Written : 0.0},
      {"views.web_s", "s", Sum["views.web"]},
      {"views.count", "count", Value("views.count")},
      {"views.thread_count", "count", Value("views.thread_count")},
      {"views.object_count", "count", Value("views.object_count")},
      {"correlate.build_s", "s", Sum["correlate.build"]},
      {"diff.eval_s", "s", Sum["diff.eval"]},
      {"diff.render_s", "s", Sum["diff.render"]},
      {"diff.compare_ops", "count", Value("diff.compare_ops")},
      {"diff.sequences", "count", Value("diff.sequences")},
      {"diff.entries_differing", "count", Value("diff.entries_differing")},
      {"diff.peak_bytes", "bytes", Value("diff.peak_bytes")},
      {"analysis.regression_s", "s", Sum["analysis.regression"]},
      {"analysis.render_s", "s", Sum["analysis.render"]},
      {"analysis.size_a", "count", Value("analysis.size_a")},
      {"analysis.size_b", "count", Value("analysis.size_b")},
      {"analysis.size_c", "count", Value("analysis.size_c")},
      {"analysis.size_d", "count", Value("analysis.size_d")},
      {"analysis.regression_sequences", "count",
       Value("analysis.regression_sequences")},
      {"cache.overhead_s", "s", Sum["cache.wrapped"] - Direct},
      {"cache.saved_s", "s",
       Sum["cache.analyze_uncached"] - Sum["analysis.regression"]},
  };
}

struct Args {
  std::string Workload, WorkDir, SpansOut;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      return false;
    const char *Value = Argv[++I];
    if (Flag == "--workload")
      A.Workload = Value;
    else if (Flag == "--seed")
      A.Seed = std::strtoull(Value, nullptr, 10);
    else if (Flag == "--seconds")
      A.Seconds = std::atof(Value);
    else if (Flag == "--trace")
      A.Trace = std::atoi(Value) != 0;
    else if (Flag == "--workdir")
      A.WorkDir = Value;
    else if (Flag == "--spans-out")
      A.SpansOut = Value;
    else
      return false;
  }
  return !A.Workload.empty() && !A.WorkDir.empty();
}

void printResult(bool Correct, unsigned Attempted, unsigned Failed,
                 const std::vector<Metric> &Metrics) {
  for (const Metric &M : Metrics)
    std::printf("%-32s %.6g %s\n", M.Name.c_str(), M.Value, M.Unit);
  std::string Json = "{\"correct\": ";
  Json += Correct ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(Attempted) +
          ", \"failed\": " + std::to_string(Failed) + ", \"metrics\": {";
  for (size_t I = 0; I != Metrics.size(); ++I) {
    char Buf[96];
    std::snprintf(Buf, sizeof(Buf), "%.17g", Metrics[I].Value);
    Json += (I ? ", \"" : "\"") + Metrics[I].Name + "\": {\"value\": " + Buf +
            ", \"unit\": \"" + Metrics[I].Unit + "\"}";
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  std::fflush(stdout);
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  WorkloadKind Kind;
  if (!parseArgs(Argc, Argv, A) || !parseWorkload(A.Workload, Kind)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload corpus-ondisk|threads-churn|"
                 "objects-regress --seed N --seconds S --trace 0|1 "
                 "--workdir DIR [--spans-out FILE]\n");
    return 2;
  }
  std::filesystem::create_directories(A.WorkDir);
  std::vector<std::string> Problems;
  Workload W;
  W.Kind = Kind;
  W.WorkDir = A.WorkDir;

  // Set-up: generate the programs and compute the reference, three times
  // when the set-up time is reported; every repetition must agree.
  std::vector<double> SetupSeconds;
  Outcome Reference;
  try {
    for (int I = 0, N = A.Trace ? 1 : 3; I != N; ++I) {
      uint64_t Start = nowNanos();
      W.Programs = makePrograms(Kind, A.Seed);
      Outcome Ref = computeReference(W);
      SetupSeconds.push_back((nowNanos() - Start) * 1e-9);
      if (I == 0)
        Reference = Ref;
      else if (!(Ref == Reference))
        Problems.push_back("set-up " + std::to_string(I) +
                           " computed a different reference");
    }
  } catch (const std::exception &E) {
    std::fprintf(stderr, "set-up failed: %s\n", E.what());
    return 1;
  }
  std::fprintf(stderr, "[%s seed %llu] reference %s\n", A.Workload.c_str(),
               static_cast<unsigned long long>(A.Seed),
               Reference.describe().c_str());

  unsigned Attempted = 0, Failed = 0;
  auto Check = [&](const Outcome &Got, const char *What) {
    if (Got == Reference)
      return;
    ++Failed;
    Problems.push_back(std::string(What) + " session " +
                       std::to_string(Attempted) + ": " + Got.describe());
  };
  std::vector<double> Record, Diff, Total, Rss;
  auto Untraced = [&] {
    ++Attempted;
    try {
      SessionTimes T;
      Outcome O = runSession(W, T);
      Record.push_back(T.RecordS);
      Diff.push_back(T.DiffS);
      Total.push_back(T.RecordS + T.DiffS);
      Rss.push_back(T.PeakRssMb);
      std::fprintf(stderr, "session %u: record %.4f s, diff %.4f s, %.1f MiB\n",
                   Attempted, T.RecordS, T.DiffS, T.PeakRssMb);
      Check(O, "untraced");
    } catch (const std::exception &E) {
      ++Failed;
      Problems.push_back(std::string("untraced session: ") + E.what());
    }
  };

  uint64_t Deadline = nowNanos() + static_cast<uint64_t>(A.Seconds * 1e9);
  std::vector<Metric> Metrics;
  if (!A.Trace) {
    do
      Untraced();
    while (nowNanos() < Deadline);
    unsigned Passed = Attempted - Failed;
    Metrics = {
        {"session_s", "s", median(Total)},
        {"record_s", "s", median(Record)},
        {"diff_s", "s", median(Diff)},
        {"peak_rss_mb", "MiB", median(Rss)},
        {"setup_s", "s", median(SetupSeconds)},
        {"pass_ratio", "ratio", double(Passed) / Attempted},
    };
    std::printf("# %s seed %llu: medians over %zu sessions, set-up x%zu; "
                "fail_ratio %.6g (%u/%u)\n",
                A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
                Total.size(), SetupSeconds.size(), double(Failed) / Attempted,
                Failed, Attempted);
  } else {
    SpanLog Log;
    std::vector<std::vector<Metric>> PerSession;
    std::vector<double> TracedSeconds, RootSelf;
    bool OnDisk = Kind == WorkloadKind::CorpusOnDisk;
    uint32_t Session = 0;
    do {
      Untraced();
      ++Attempted;
      ++Session;
      try {
        LayerValues Values;
        std::vector<std::string> ProbeProblems;
        Outcome O = runTracedSession(W, Session, Log, Values, ProbeProblems);
        Check(O, "traced");
        for (const std::string &P : ProbeProblems)
          Problems.push_back(P);
        double Seconds = 0, Self = 0;
        PerSession.push_back(
            layerMetrics(Log, Session, Values, OnDisk, Seconds, Self));
        TracedSeconds.push_back(Seconds);
        RootSelf.push_back(Self);
        std::fprintf(stderr, "traced session %u: %.4f s, %.5f uncovered\n",
                     Session, Seconds, Self);
      } catch (const std::exception &E) {
        ++Failed;
        Problems.push_back(std::string("traced session: ") + E.what());
      }
    } while (nowNanos() < Deadline);

    if (!PerSession.empty()) {
      for (size_t M = 0; M != PerSession.front().size(); ++M) {
        std::vector<double> Values;
        for (const std::vector<Metric> &S : PerSession)
          Values.push_back(S[M].Value);
        const Metric &First = PerSession.front()[M];
        if (ExactCounts.count(First.Name) &&
            std::any_of(Values.begin(), Values.end(),
                        [&](double V) { return V != Values.front(); }))
          Problems.push_back(First.Name + " differs between sessions");
        Metrics.push_back({First.Name, First.Unit, median(Values)});
      }
    }
    Metrics.push_back({"bench.root_self_frac", "ratio", median(RootSelf)});
    Metrics.push_back({"bench.tracing_overhead_frac", "ratio",
                       Total.empty() || TracedSeconds.empty()
                           ? 0.0
                           : median(TracedSeconds) / median(Total) - 1});
    Metrics.push_back(
        {"bench.traced_sessions", "count", double(TracedSeconds.size())});
    std::printf("# %s seed %llu: per-layer medians over %zu traced sessions "
                "(%zu untraced alongside); fail_ratio %.6g (%u/%u)\n",
                A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
                TracedSeconds.size(), Total.size(),
                double(Failed) / Attempted, Failed, Attempted);
    if (!A.SpansOut.empty()) {
      std::string Header = "\"workload\": \"" + A.Workload +
                           "\", \"seed\": " + std::to_string(A.Seed);
      if (!Log.writeJson(A.SpansOut, Header))
        Problems.push_back("cannot write '" + A.SpansOut + "'");
    }
  }

  for (const Metric &M : Metrics)
    if (!std::isfinite(M.Value))
      Problems.push_back(M.Name + " is not finite");
  for (Metric &M : Metrics)
    if (!std::isfinite(M.Value))
      M.Value = 0;
  for (const std::string &P : Problems)
    std::fprintf(stderr, "problem: %s\n", P.c_str());
  std::error_code Ignored;
  std::filesystem::remove_all(A.WorkDir, Ignored);
  printResult(Problems.empty() && Failed == 0, Attempted, Failed, Metrics);
  return 0;
}
