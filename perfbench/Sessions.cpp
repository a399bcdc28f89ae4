//===- perfbench/Sessions.cpp ---------------------------------------------===//

#include "Sessions.h"

#include "analysis/Regression.h"
#include "cache/DiffCache.h"
#include "runtime/Compiler.h"
#include "runtime/Vm.h"
#include "support/ThreadPool.h"
#include "trace/Serialize.h"

#include <malloc.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

using namespace perfbench;
using namespace rprism;

namespace {

using Scope = SpanLog::Scope;

[[noreturn]] void fail(const std::string &Message) {
  throw std::runtime_error(Message);
}

uint64_t fnv(std::string_view Text) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (unsigned char C : Text) {
    H ^= C;
    H *= 0x100000001b3ULL;
  }
  return H;
}

CompiledProgram compile(const std::string &Source,
                        std::shared_ptr<StringInterner> Strings) {
  Expected<CompiledProgram> Prog = compileSource(Source, std::move(Strings));
  if (!Prog)
    fail("compile: " + Prog.error().render());
  return Prog.take();
}

RunResult record(const CompiledProgram &Prog,
                 const std::vector<std::string> &Inputs, const char *Name) {
  RunOptions Options;
  Options.Inputs = Inputs;
  Options.TraceName = Name;
  RunResult Result = runProgram(Prog, Options);
  if (!Result.Completed)
    fail(std::string(Name) + ": run did not complete: " + Result.Error);
  return Result;
}

void write(const Trace &T, const std::string &Path) {
  if (!writeTrace(T, Path))
    fail("cannot write '" + Path + "'");
}

Trace load(const std::string &Path, std::shared_ptr<StringInterner> Strings) {
  Expected<Trace> T = readTrace(Path, std::move(Strings));
  if (!T)
    fail(Path + ": " + T.error().render());
  return T.take();
}

void digest(const std::string &Path) {
  if (Expected<uint64_t> D = traceFileDigest(Path); !D)
    fail(Path + ": " + D.error().render());
}

std::string tracePath(const Workload &W, int Side) {
  return W.WorkDir + (Side == 0 ? "/left.rpt" : "/right.rpt");
}

/// A session writes its traces afresh, as into a clean directory.
void removeTraceFiles(const Workload &W) {
  std::filesystem::remove(tracePath(W, 0));
  std::filesystem::remove(tracePath(W, 1));
}

double fileBytes(const std::string &Path) {
  return static_cast<double>(std::filesystem::file_size(Path));
}

Outcome diffOutcome(const DiffResult &D, const std::string &Report,
                    const std::string &Outputs) {
  Outcome O;
  O.ReportDigest = fnv(Report);
  O.OutputDigest = fnv(Outputs);
  O.CompareOps = D.Stats.CompareOps;
  O.Differences = D.numDiffs();
  O.Sequences = D.Sequences.size();
  return O;
}

Outcome analysisOutcome(const RegressionReport &R, const std::string &Report,
                        const std::string &Outputs) {
  Outcome O;
  O.ReportDigest = fnv(Report);
  O.OutputDigest = fnv(Outputs);
  O.CompareOps = R.Stats.CompareOps;
  O.Differences = R.sizeA + R.sizeB + R.sizeC;
  O.Sequences =
      R.A.Sequences.size() + R.B.Sequences.size() + R.C.Sequences.size();
  O.SizeA = R.sizeA;
  O.SizeB = R.sizeB;
  O.SizeC = R.sizeC;
  O.SizeD = R.sizeD;
  O.RegressionSequences = R.RegressionSequences.size();
  return O;
}

// The reports exactly as the CLI prints them.
std::string renderDiff(const DiffResult &D) { return D.render(50, 12); }
std::string renderAnalysis(const RegressionReport &R) {
  return R.render(20, 14);
}

/// The four runs of `rprism analyze`, recorded against one interner.
struct AnalyzeRuns {
  RunResult OrigOk, OrigRegr, NewOk, NewRegr;

  std::string outputs() const {
    return OrigOk.Output + '\0' + OrigRegr.Output + '\0' + NewOk.Output +
           '\0' + NewRegr.Output;
  }
  RegressionInputs inputs() const {
    return {&OrigOk.ExecTrace, &OrigRegr.ExecTrace, &NewOk.ExecTrace,
            &NewRegr.ExecTrace};
  }
  std::vector<const RunResult *> all() const {
    return {&OrigOk, &OrigRegr, &NewOk, &NewRegr};
  }
};

void addWeb(LayerValues &Values, const ViewWeb &Web) {
  Values["views.count"] += Web.numViews();
  Values["views.thread_count"] += Web.numThreadViews();
  Values["views.object_count"] +=
      Web.numTargetObjectViews() + Web.numActiveObjectViews();
}

void addDiff(LayerValues &Values, const DiffResult &D) {
  Values["diff.compare_ops"] += D.Stats.CompareOps;
  Values["diff.sequences"] += D.Sequences.size();
  Values["diff.entries_differing"] += D.numDiffs();
  Values["diff.peak_bytes"] =
      std::max(Values["diff.peak_bytes"], double(D.Stats.PeakBytes));
}

void addAnalysis(LayerValues &Values, const RegressionReport &R) {
  Values["analysis.size_a"] = R.sizeA;
  Values["analysis.size_b"] = R.sizeB;
  Values["analysis.size_c"] = R.sizeC;
  Values["analysis.size_d"] = R.sizeD;
  Values["analysis.regression_sequences"] = R.RegressionSequences.size();
}

void addRun(LayerValues &Values, const RunResult &R) {
  Values["runtime.entries"] += R.ExecTrace.size();
  Values["runtime.steps"] += R.Steps;
}

/// One views diff, one layer call per span: what cachedViewsDiff does on
/// a cold cache. The pool is handed back so its teardown can be timed.
DiffResult directDiff(SpanLog &Log, const Trace &Left, const Trace &Right,
                      std::optional<ThreadPool> &Pool,
                      std::optional<ViewWeb> *LeftWeb,
                      std::optional<ViewWeb> *RightWeb, LayerValues &Values) {
  ViewsDiffOptions Options;
  {
    Scope S(&Log, "diff.pool");
    Pool.emplace(effectiveDiffJobs(Options, Left.size() + Right.size()));
  }
  {
    Scope S(&Log, "views.web");
    if (!*LeftWeb) {
      LeftWeb->emplace(Left, &*Pool, Options.UseViewIndex);
      addWeb(Values, **LeftWeb);
    }
    if (!*RightWeb) {
      RightWeb->emplace(Right, &*Pool, Options.UseViewIndex);
      addWeb(Values, **RightWeb);
    }
  }
  std::optional<ViewCorrelation> X;
  {
    Scope S(&Log, "correlate.build");
    X.emplace(**LeftWeb, **RightWeb);
  }
  Scope S(&Log, "diff.eval");
  return viewsDiff(**LeftWeb, **RightWeb, *X, Options, &*Pool);
}

void dropPool(SpanLog &Log, std::optional<ThreadPool> &Pool) {
  Scope S(&Log, "diff.pool");
  Pool.reset();
}

/// analyzeRegression with and without its DiffCache. \p WithCache is
/// false when the session itself already ran the cached analysis.
void analysisProbe(SpanLog &Log, const RegressionInputs &Inputs,
                   bool WithCache, LayerValues &Values,
                   std::vector<std::string> &Problems,
                   const Outcome *Expected) {
  std::optional<RegressionReport> Cached;
  std::string CachedText;
  if (WithCache) {
    {
      Scope S(&Log, "analysis.regression");
      Cached.emplace(analyzeRegression(Inputs));
    }
    Scope S(&Log, "analysis.render");
    CachedText = renderAnalysis(*Cached);
  }
  std::optional<RegressionReport> Uncached;
  {
    RegressionOptions Options;
    Options.UseDiffCache = false;
    Scope S(&Log, "cache.analyze_uncached");
    Uncached.emplace(analyzeRegression(Inputs, Options));
  }
  Outcome Plain = analysisOutcome(*Uncached, renderAnalysis(*Uncached), "");
  if (Cached) {
    addAnalysis(Values, *Cached);
    if (!(analysisOutcome(*Cached, CachedText, "") == Plain))
      Problems.push_back("analyze probe: the report differs with and "
                         "without the DiffCache");
    // Ok input == regressing input: C diffs a trace against itself.
    if (Cached->sizeC != 0 || Cached->sizeD != 0)
      Problems.push_back("analyze probe: identical inputs gave |C| or |D| "
                         "above zero");
  } else if (Expected) {
    Outcome Got = Plain;
    Got.OutputDigest = Expected->OutputDigest;
    if (!(Got == *Expected))
      Problems.push_back("analyze probe without the DiffCache: " +
                         Got.describe() + " != " + Expected->describe());
  }
}

/// Writes, digests and reloads traces a workload keeps in memory, for the
/// trace layer's numbers on that workload's trace shape.
void traceProbe(SpanLog &Log, const Workload &W, const Trace &Left,
                const Trace &Right, LayerValues &Values,
                std::vector<std::string> &Problems) {
  {
    Scope S(&Log, "trace.write");
    write(Left, tracePath(W, 0));
    write(Right, tracePath(W, 1));
  }
  Values["trace.entries_written"] = Left.size() + Right.size();
  Values["trace.bytes"] =
      fileBytes(tracePath(W, 0)) + fileBytes(tracePath(W, 1));
  {
    Scope S(&Log, "trace.digest");
    digest(tracePath(W, 0));
    digest(tracePath(W, 1));
  }
  auto Strings = std::make_shared<StringInterner>();
  std::optional<Trace> L, R;
  {
    Scope S(&Log, "trace.load");
    L.emplace(load(tracePath(W, 0), Strings));
    R.emplace(load(tracePath(W, 1), Strings));
  }
  Values["trace.entries_loaded"] = L->size() + R->size();
  if (L->size() != Left.size() || R->size() != Right.size())
    Problems.push_back("trace probe: reloaded sizes differ");
  Scope S(&Log, "trace.free");
  L.reset();
  R.reset();
}

void checkSelfDiff(const Trace &T) {
  ViewsDiffOptions Options;
  Options.Jobs = 1;
  DiffResult D = viewsDiff(T, T, Options);
  if (D.numDiffs() != 0)
    fail("trace '" + T.Name + "' diffed against itself has " +
         std::to_string(D.numDiffs()) + " differences");
}

/// Writes \p Recorded, reloads it into the recording interner (symbol ids
/// then coincide) and checks every entry: thread, method, =e, and a
/// fingerprint recomputed from the loaded fields.
void checkReload(const Trace &Recorded, const std::string &Path) {
  write(Recorded, Path);
  Trace Loaded = load(Path, Recorded.Strings);
  if (Loaded.size() != Recorded.size() ||
      Loaded.Threads.size() != Recorded.Threads.size())
    fail(Path + ": reloaded trace has a different size");
  for (uint32_t Eid = 0; Eid != Recorded.size(); ++Eid)
    if (Loaded.tid(Eid) != Recorded.tid(Eid) ||
        Loaded.method(Eid).Id != Recorded.method(Eid).Id ||
        Loaded.entryFingerprint(Eid) != Recorded.fp(Eid) ||
        !eventEquals(Recorded, Eid, Loaded, Eid))
      fail(Path + ": reloaded entry " + std::to_string(Eid) +
           " differs from the recorded one");
}

AnalyzeRuns recordAnalyzeRuns(const Workload &W, SpanLog *Log,
                              LayerValues *Values) {
  auto Strings = std::make_shared<StringInterner>();
  std::optional<CompiledProgram> Old, New;
  {
    Scope S(Log, "runtime.compile");
    Old.emplace(compile(W.Programs.OldSource, Strings));
    New.emplace(compile(W.Programs.NewSource, Strings));
  }
  const ProgramPair &P = W.Programs;
  auto Run = [&](const CompiledProgram &Prog,
                 const std::vector<std::string> &Inputs, const char *Name) {
    Scope S(Log, "runtime.run");
    return record(Prog, Inputs, Name);
  };
  // The order `rprism analyze` runs them in.
  AnalyzeRuns Runs{Run(*Old, P.OkInputs, "orig-ok"),
                   Run(*Old, P.RegrInputs, "orig-regr"),
                   Run(*New, P.OkInputs, "new-ok"),
                   Run(*New, P.RegrInputs, "new-regr")};
  if (Values)
    for (const RunResult *R : Runs.all())
      addRun(*Values, *R);
  return Runs;
}

} // namespace

std::string Outcome::describe() const {
  std::ostringstream OS;
  OS << "{report " << std::hex << ReportDigest << ", outputs " << OutputDigest
     << std::dec << ", " << CompareOps << " compare ops, " << Differences
     << " differences, " << Sequences << " sequences";
  if (SizeA || SizeB || SizeC || SizeD)
    OS << ", |A|=" << SizeA << " |B|=" << SizeB << " |C|=" << SizeC
       << " |D|=" << SizeD << ", " << RegressionSequences << " regression";
  OS << "}";
  return OS.str();
}

void perfbench::resetPeakRss() {
  // Return freed heap to the OS first, so the mark starts from what the
  // process really holds between sessions.
  malloc_trim(0);
  std::ofstream ClearRefs("/proc/self/clear_refs");
  if (!(ClearRefs << "5" << std::flush))
    fail("cannot reset the peak RSS through /proc/self/clear_refs");
}

double perfbench::peakRssMb() {
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::stod(Line.substr(6)) / 1024.0;
  fail("VmHWM missing from /proc/self/status");
}

Outcome perfbench::computeReference(const Workload &W) {
  if (W.Kind == WorkloadKind::ObjectsRegress) {
    AnalyzeRuns Runs = recordAnalyzeRuns(W, nullptr, nullptr);
    if (Runs.OrigOk.Output != Runs.NewOk.Output)
      fail("objects-regress: the ok input's outputs differ");
    if (Runs.OrigRegr.Output == Runs.NewRegr.Output)
      fail("objects-regress: the regressing input's outputs do not differ");
    for (const RunResult *R : Runs.all())
      checkSelfDiff(R->ExecTrace);
    RegressionOptions Options;
    Options.Views.Jobs = 1;
    Options.UseDiffCache = false;
    RegressionReport Report = analyzeRegression(Runs.inputs(), Options);
    if (Report.sizeD == 0)
      fail("objects-regress: |D| is zero");
    return analysisOutcome(Report, renderAnalysis(Report), Runs.outputs());
  }

  // Both versions against one interner, so the traces can be diffed in
  // memory; the sessions' on-disk path must reach the same report.
  auto Strings = std::make_shared<StringInterner>();
  bool OnDisk = W.Kind == WorkloadKind::CorpusOnDisk;
  const char *Names[2] = {OnDisk ? "run" : "old", OnDisk ? "run" : "new"};
  RunResult Left =
      record(compile(W.Programs.OldSource, Strings), {}, Names[0]);
  RunResult Right =
      record(compile(W.Programs.NewSource, Strings), {}, Names[1]);
  checkSelfDiff(Left.ExecTrace);
  checkSelfDiff(Right.ExecTrace);
  if (OnDisk) {
    checkReload(Left.ExecTrace, tracePath(W, 0));
    checkReload(Right.ExecTrace, tracePath(W, 1));
  }
  ViewsDiffOptions Options;
  Options.Jobs = 1;
  DiffResult D = viewsDiff(Left.ExecTrace, Right.ExecTrace, Options);
  if (D.numDiffs() == 0)
    fail("the two versions' traces do not differ");
  return diffOutcome(D, renderDiff(D),
                     Left.Output + '\0' + Right.Output + '\0');
}

Outcome perfbench::runSession(const Workload &W, SessionTimes &Times) {
  removeTraceFiles(W);
  resetPeakRss();
  uint64_t Start = nowNanos(), Consume = 0;
  Outcome O;
  switch (W.Kind) {
  case WorkloadKind::CorpusOnDisk: {
    // rprism run --trace, once per version: a fresh interner each.
    std::string Outputs;
    for (int Side = 0; Side != 2; ++Side) {
      RunResult R = record(compile(Side == 0 ? W.Programs.OldSource
                                             : W.Programs.NewSource,
                                   nullptr),
                           {}, "run");
      Outputs += R.Output + '\0';
      write(R.ExecTrace, tracePath(W, Side));
    }
    // rprism diff-traces.
    Consume = nowNanos();
    auto Strings = std::make_shared<StringInterner>();
    DiffCache Cache;
    Err Error;
    std::shared_ptr<const Trace> Left =
        Cache.load(tracePath(W, 0), Strings, &Error);
    if (!Left)
      fail(Error.render());
    std::shared_ptr<const Trace> Right =
        Cache.load(tracePath(W, 1), Strings, &Error);
    if (!Right)
      fail(Error.render());
    DiffResult D = cachedViewsDiff(*Left, *Right, ViewsDiffOptions(), Cache);
    O = diffOutcome(D, renderDiff(D), Outputs);
    break;
  }
  case WorkloadKind::ThreadsChurn: {
    // rprism diff: both versions share an interner and stay in memory.
    auto Strings = std::make_shared<StringInterner>();
    CompiledProgram Old = compile(W.Programs.OldSource, Strings);
    CompiledProgram New = compile(W.Programs.NewSource, Strings);
    RunResult Left = record(Old, {}, "old");
    RunResult Right = record(New, {}, "new");
    Consume = nowNanos();
    DiffCache Cache;
    DiffResult D = cachedViewsDiff(Left.ExecTrace, Right.ExecTrace,
                                   ViewsDiffOptions(), Cache);
    O = diffOutcome(D, renderDiff(D), Left.Output + '\0' + Right.Output +
                                          '\0');
    break;
  }
  case WorkloadKind::ObjectsRegress: {
    AnalyzeRuns Runs = recordAnalyzeRuns(W, nullptr, nullptr);
    Consume = nowNanos();
    RegressionReport Report = analyzeRegression(Runs.inputs());
    O = analysisOutcome(Report, renderAnalysis(Report), Runs.outputs());
    break;
  }
  }
  uint64_t End = nowNanos();
  Times.RecordS = (Consume - Start) * 1e-9;
  Times.DiffS = (End - Consume) * 1e-9;
  Times.PeakRssMb = peakRssMb();
  return O;
}

Outcome perfbench::runTracedSession(const Workload &W, uint32_t SessionId,
                                    SpanLog &Log, LayerValues &Values,
                                    std::vector<std::string> &Problems) {
  Log.setSession(SessionId);
  removeTraceFiles(W);
  resetPeakRss(); // Start from the same heap state as an untraced session.
  Outcome O;

  if (W.Kind == WorkloadKind::CorpusOnDisk) {
    std::string Outputs;
    {
      Scope Phase(&Log, "record");
      for (int Side = 0; Side != 2; ++Side) {
        std::optional<CompiledProgram> Prog;
        {
          Scope S(&Log, "runtime.compile");
          Prog.emplace(compile(Side == 0 ? W.Programs.OldSource
                                         : W.Programs.NewSource,
                               nullptr));
        }
        std::optional<RunResult> R;
        {
          Scope S(&Log, "runtime.run");
          R.emplace(record(*Prog, {}, "run"));
        }
        addRun(Values, *R);
        Outputs += R->Output + '\0';
        {
          Scope S(&Log, "trace.write");
          write(R->ExecTrace, tracePath(W, Side));
        }
        Values["trace.entries_written"] += R->ExecTrace.size();
        Scope S(&Log, "trace.free");
        R.reset();
        Prog.reset();
      }
    }
    Values["trace.bytes"] =
        fileBytes(tracePath(W, 0)) + fileBytes(tracePath(W, 1));
    std::optional<Trace> Left, Right;
    std::optional<ThreadPool> Pool;
    std::optional<ViewWeb> LeftWeb, RightWeb;
    DiffResult D;
    {
      Scope Phase(&Log, "consume");
      auto Strings = std::make_shared<StringInterner>();
      {
        Scope S(&Log, "trace.digest");
        digest(tracePath(W, 0));
        digest(tracePath(W, 1));
      }
      {
        Scope S(&Log, "trace.load");
        Left.emplace(load(tracePath(W, 0), Strings));
        Right.emplace(load(tracePath(W, 1), Strings));
      }
      Values["trace.entries_loaded"] = Left->size() + Right->size();
      D = directDiff(Log, *Left, *Right, Pool, &LeftWeb, &RightWeb, Values);
      Scope S(&Log, "diff.render");
      O = diffOutcome(D, renderDiff(D), Outputs);
    }
    addDiff(Values, D);
    {
      Scope Phase(&Log, "release");
      {
        Scope S(&Log, "trace.free");
        D = DiffResult();
        LeftWeb.reset();
        RightWeb.reset();
        Left.reset();
        Right.reset();
      }
      dropPool(Log, Pool);
    }

    // Probes, outside the session: the DiffCache wrapper over the same
    // files, and analyze with ok input == regressing input.
    Scope Probe(&Log, "probe");
    {
      auto Strings = std::make_shared<StringInterner>();
      std::optional<DiffCache> Cache;
      std::shared_ptr<const Trace> L, R;
      std::optional<DiffResult> Wrapped;
      {
        Scope S(&Log, "cache.wrapped");
        Cache.emplace();
        L = Cache->load(tracePath(W, 0), Strings);
        R = Cache->load(tracePath(W, 1), Strings);
        if (!L || !R)
          fail("cache probe: load failed");
        Wrapped.emplace(cachedViewsDiff(*L, *R, ViewsDiffOptions(), *Cache));
      }
      if (Wrapped->Stats.CompareOps != O.CompareOps ||
          Wrapped->numDiffs() != O.Differences)
        Problems.push_back("cache probe: cachedViewsDiff disagrees with the "
                           "direct layer calls");
      analysisProbe(Log, {L.get(), L.get(), R.get(), R.get()}, true, Values,
                    Problems, nullptr);
    }
    return O;
  }

  if (W.Kind == WorkloadKind::ThreadsChurn) {
    std::optional<RunResult> Left, Right;
    {
      Scope Phase(&Log, "record");
      auto Strings = std::make_shared<StringInterner>();
      std::optional<CompiledProgram> Old, New;
      {
        Scope S(&Log, "runtime.compile");
        Old.emplace(compile(W.Programs.OldSource, Strings));
        New.emplace(compile(W.Programs.NewSource, Strings));
      }
      Scope S(&Log, "runtime.run");
      Left.emplace(record(*Old, {}, "old"));
      Right.emplace(record(*New, {}, "new"));
    }
    addRun(Values, *Left);
    addRun(Values, *Right);
    std::optional<ThreadPool> Pool;
    std::optional<ViewWeb> LeftWeb, RightWeb;
    DiffResult D;
    {
      Scope Phase(&Log, "consume");
      D = directDiff(Log, Left->ExecTrace, Right->ExecTrace, Pool, &LeftWeb,
                     &RightWeb, Values);
      Scope S(&Log, "diff.render");
      O = diffOutcome(D, renderDiff(D),
                      Left->Output + '\0' + Right->Output + '\0');
    }
    addDiff(Values, D);
    {
      Scope Phase(&Log, "release");
      {
        Scope S(&Log, "trace.free");
        D = DiffResult();
        LeftWeb.reset();
        RightWeb.reset();
      }
      dropPool(Log, Pool);
    }
    {
      Scope Probe(&Log, "probe");
      std::optional<DiffCache> Cache;
      std::optional<DiffResult> Wrapped;
      {
        Scope S(&Log, "cache.wrapped");
        Cache.emplace();
        Wrapped.emplace(cachedViewsDiff(Left->ExecTrace, Right->ExecTrace,
                                        ViewsDiffOptions(), *Cache));
      }
      if (Wrapped->Stats.CompareOps != O.CompareOps ||
          Wrapped->numDiffs() != O.Differences)
        Problems.push_back("cache probe: cachedViewsDiff disagrees with the "
                           "direct layer calls");
      Wrapped.reset();
      Cache.reset();
      traceProbe(Log, W, Left->ExecTrace, Right->ExecTrace, Values, Problems);
      const Trace *L = &Left->ExecTrace, *R = &Right->ExecTrace;
      analysisProbe(Log, {L, L, R, R}, true, Values, Problems, nullptr);
    }
    Scope Phase(&Log, "release");
    Scope S(&Log, "trace.free");
    Left.reset();
    Right.reset();
    return O;
  }

  // objects-regress.
  std::optional<AnalyzeRuns> Runs;
  {
    Scope Phase(&Log, "record");
    Runs.emplace(recordAnalyzeRuns(W, &Log, &Values));
  }
  std::optional<RegressionReport> Report;
  {
    Scope Phase(&Log, "consume");
    {
      Scope S(&Log, "analysis.regression");
      Report.emplace(analyzeRegression(Runs->inputs()));
    }
    Scope S(&Log, "analysis.render");
    O = analysisOutcome(*Report, renderAnalysis(*Report), Runs->outputs());
  }
  addAnalysis(Values, *Report);
  Values["diff.compare_ops"] = O.CompareOps;
  Values["diff.sequences"] = O.Sequences;
  Values["diff.entries_differing"] = O.Differences;
  Values["diff.peak_bytes"] = Report->Stats.PeakBytes;
  {
    Scope Phase(&Log, "release");
    Scope S(&Log, "trace.free");
    Report.reset();
  }
  {
    Scope Probe(&Log, "probe");
    const RegressionInputs In = Runs->inputs();
    // The three diffs analyzeRegression makes, one layer call per span:
    // four webs (the shared traces' webs are built once, as the cache
    // does), three correlations, three evaluations.
    std::optional<ViewWeb> OrigOkWeb, OrigRegrWeb, NewOkWeb, NewRegrWeb;
    uint64_t DirectOps = 0;
    {
      std::optional<ThreadPool> Pool;
      DiffResult A = directDiff(Log, *In.OrigRegr, *In.NewRegr, Pool,
                                &OrigRegrWeb, &NewRegrWeb, Values);
      dropPool(Log, Pool);
      {
        Scope S(&Log, "diff.render");
        renderDiff(A);
      }
      DiffResult B = directDiff(Log, *In.OrigOk, *In.NewOk, Pool, &OrigOkWeb,
                                &NewOkWeb, Values);
      dropPool(Log, Pool);
      DiffResult C = directDiff(Log, *In.NewOk, *In.NewRegr, Pool, &NewOkWeb,
                                &NewRegrWeb, Values);
      dropPool(Log, Pool);
      DirectOps = A.Stats.CompareOps + B.Stats.CompareOps + C.Stats.CompareOps;
    }
    OrigOkWeb.reset();
    OrigRegrWeb.reset();
    NewOkWeb.reset();
    NewRegrWeb.reset();
    if (DirectOps != O.CompareOps)
      Problems.push_back("decomposed analyze diffs disagree with "
                         "analyzeRegression's compare ops");
    {
      std::optional<DiffCache> Cache;
      std::optional<DiffResult> A, B, C;
      {
        Scope S(&Log, "cache.wrapped");
        Cache.emplace();
        ViewsDiffOptions Options;
        A.emplace(cachedViewsDiff(*In.OrigRegr, *In.NewRegr, Options, *Cache));
        B.emplace(cachedViewsDiff(*In.OrigOk, *In.NewOk, Options, *Cache));
        C.emplace(cachedViewsDiff(*In.NewOk, *In.NewRegr, Options, *Cache));
      }
      if (A->Stats.CompareOps + B->Stats.CompareOps + C->Stats.CompareOps !=
          O.CompareOps)
        Problems.push_back("cache probe: cachedViewsDiff disagrees with "
                           "analyzeRegression's compare ops");
    }
    analysisProbe(Log, In, false, Values, Problems, &O);
    traceProbe(Log, W, *In.OrigRegr, *In.NewRegr, Values, Problems);
  }
  Scope Phase(&Log, "release");
  Scope S(&Log, "trace.free");
  Runs.reset();
  return O;
}
