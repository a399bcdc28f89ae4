//===- tools/rprism.cpp - Command-line driver -----------------------------===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `rprism` command-line tool — the library's equivalent of the
/// paper's fully automated RPRISM pipeline ("requiring no code annotations
/// or access to source code" — here, programs in the core language):
///
///   rprism run <prog> [--input S]... [--int-input N]... [--trace F]
///   rprism trace-dump <trace-file>
///   rprism diff <old-prog> <new-prog> [--engine views|lcs] [inputs...]
///   rprism diff-traces <left.rpt> <right.rpt> [--engine views|lcs]
///   rprism analyze <old-prog> <new-prog> --regr-input S [--regr-input S]
///                  --ok-input S [--ok-input S] [--removal]
///   rprism views <prog> [inputs...]
///   rprism protocols <good-prog> <subject-prog> [inputs...]
///
//===----------------------------------------------------------------------===//

#include "analysis/HtmlReport.h"
#include "analysis/Protocol.h"
#include "analysis/Regression.h"
#include "diff/NWayDiff.h"
#include "runtime/Compiler.h"
#include "runtime/Vm.h"
#include "support/MetricsSink.h"
#include "support/Telemetry.h"
#include "support/TraceEventRecorder.h"
#include "trace/Serialize.h"

#include "Cli.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <optional>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace rprism;

namespace {

constexpr const char *kVersion = "0.2.0";

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  rprism run <prog> [--input S]... [--int-input N]... [--trace F]\n"
      "  rprism trace-dump <trace-file>\n"
      "  rprism diff <old-prog> <new-prog> [--engine views|lcs]\n"
      "              [--input S]... [--html F] [--jobs N]\n"
      "  rprism diff-traces <left.rpt> <right.rpt> [--engine views|lcs]\n"
      "              [--html F] [--jobs N] [--no-view-cache]\n"
      "  rprism diff-nway <base.rpt> <mutant.rpt>... [--html F] [--jobs N]\n"
      "              [--no-view-cache]\n"
      "  rprism analyze <old-prog> <new-prog> --regr-input S...\n"
      "              --ok-input S... [--removal] [--html F] [--jobs N]\n"
      "  rprism views <prog> [--input S]...\n"
      "  rprism protocols <good-prog> <subject-prog> [--input S]...\n"
      "  rprism metrics-diff <baseline.json> <current.json> [--tolerance\n"
      "              PAT=PCT]... [--two-sided] [--fail-on-missing]\n"
      "  rprism --version\n"
      "\n"
      "telemetry (any subcommand):\n"
      "  --metrics-out F   write run telemetry as JSON (%s)\n"
      "  --profile         print a stage/metric profile to stderr\n"
      "  --trace-out F     write a per-thread timeline as Chrome\n"
      "                    trace-event JSON (open in Perfetto)\n"
      "\n"
      "exit codes: 0 success, 1 failure, 2 usage error,\n"
      "            3 corrupt input, 4 I/O error, 5 perf regression\n",
      kMetricsSchema);
  return 2;
}

int fail(const Err &E) {
  std::fprintf(stderr, "error: %s\n", E.render().c_str());
  return exitCodeFor(E);
}

/// Shared flag state across subcommands.
struct Args {
  std::vector<std::string> Positional;
  std::vector<std::string> Inputs;
  std::vector<int64_t> IntInputs;
  std::string TracePath;
  DiffEngineKind Engine = DiffEngineKind::Views;
  std::vector<std::string> RegrInputs;
  std::vector<std::string> OkInputs;
  std::string HtmlPath;
  /// Diff-pipeline worker threads; 0 = hardware_concurrency, 1 =
  /// sequential. Any value produces identical reports (see ViewsDiffOptions).
  unsigned Jobs = 0;
  bool Removal = false;
  /// Trace files only (diff-traces, diff-nway): build the view webs by
  /// scanning the entries instead of from each file's persisted view
  /// index. The report is identical either way; this exists for timing
  /// comparisons and as a workaround should an index ever be suspect.
  bool NoViewCache = false;
  std::string MetricsOut;
  bool Profile = false;
  std::string TraceOut;
  /// Every --flag that appeared, for per-subcommand validation.
  std::vector<std::string> SeenFlags;
  bool Bad = false;
};

/// Largest --jobs value accepted: far above any worker count the pipeline
/// benefits from, and low enough that a typo cannot start thousands of
/// threads.
constexpr long long kMaxJobs = 256;

/// Parses \p Value as a whole base-10 integer in [\p Min, \p Max]. Trailing
/// characters, an empty token and values strtoll cannot represent are
/// rejected rather than truncated or saturated.
std::optional<long long> parseInteger(const char *Value, long long Min,
                                      long long Max) {
  char *End = nullptr;
  errno = 0;
  long long N = std::strtoll(Value, &End, 10);
  if (End == Value || *End != '\0' || errno == ERANGE || N < Min || N > Max)
    return std::nullopt;
  return N;
}

Args parseArgs(int Argc, char **Argv, int Start) {
  Args A;
  for (int I = Start; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Next = [&]() -> const char * {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "error: %s needs a value\n", Arg.c_str());
        A.Bad = true;
        return "";
      }
      return Argv[++I];
    };
    if (Arg.rfind("--", 0) == 0)
      A.SeenFlags.push_back(Arg);
    if (Arg == "--input")
      A.Inputs.push_back(Next());
    else if (Arg == "--int-input") {
      std::optional<long long> N =
          parseInteger(Next(), INT64_MIN, INT64_MAX);
      if (N) {
        A.IntInputs.push_back(*N);
      } else {
        std::fprintf(stderr, "error: --int-input needs a 64-bit integer\n");
        A.Bad = true;
      }
    } else if (Arg == "--trace")
      A.TracePath = Next();
    else if (Arg == "--regr-input")
      A.RegrInputs.push_back(Next());
    else if (Arg == "--ok-input")
      A.OkInputs.push_back(Next());
    else if (Arg == "--removal")
      A.Removal = true;
    else if (Arg == "--no-view-cache")
      A.NoViewCache = true;
    else if (Arg == "--html")
      A.HtmlPath = Next();
    else if (Arg == "--jobs") {
      std::optional<long long> N = parseInteger(Next(), 0, kMaxJobs);
      if (N) {
        A.Jobs = static_cast<unsigned>(*N);
      } else {
        std::fprintf(stderr, "error: --jobs needs a whole number from 0 to "
                             "%lld\n",
                     kMaxJobs);
        A.Bad = true;
      }
    } else if (Arg == "--engine") {
      std::string Engine = Next();
      if (Engine == "lcs")
        A.Engine = DiffEngineKind::Lcs;
      else if (Engine == "views")
        A.Engine = DiffEngineKind::Views;
      else {
        std::fprintf(stderr, "error: unknown engine '%s'\n",
                     Engine.c_str());
        A.Bad = true;
      }
    } else if (Arg == "--metrics-out") {
      A.MetricsOut = Next();
    } else if (Arg == "--profile") {
      A.Profile = true;
    } else if (Arg == "--trace-out") {
      A.TraceOut = Next();
    } else if (Arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "error: unknown flag '%s'\n", Arg.c_str());
      A.Bad = true;
    } else {
      A.Positional.push_back(Arg);
    }
  }
  return A;
}

/// Flags each subcommand accepts (beyond the telemetry flags, valid
/// everywhere). A flag outside its subcommand's set is an error, not
/// silently tolerated — e.g. `analyze --input` (analyze takes --regr-input/
/// --ok-input) used to parse cleanly and then be ignored.
const std::vector<const char *> *allowedFlags(const std::string &Command) {
  static const std::vector<const char *> Run = {"--input", "--int-input",
                                                "--trace"};
  static const std::vector<const char *> TraceDump = {};
  static const std::vector<const char *> Diff = {
      "--engine", "--input", "--int-input", "--html", "--jobs"};
  static const std::vector<const char *> DiffTraces = {
      "--engine", "--html", "--jobs", "--no-view-cache"};
  static const std::vector<const char *> DiffNWay = {"--html", "--jobs",
                                                     "--no-view-cache"};
  static const std::vector<const char *> Analyze = {
      "--engine",  "--regr-input", "--ok-input", "--int-input",
      "--removal", "--html",       "--jobs"};
  static const std::vector<const char *> Views = {"--input", "--int-input"};
  static const std::vector<const char *> Protocols = {"--input",
                                                      "--int-input"};
  if (Command == "run")
    return &Run;
  if (Command == "trace-dump")
    return &TraceDump;
  if (Command == "diff")
    return &Diff;
  if (Command == "diff-traces")
    return &DiffTraces;
  if (Command == "diff-nway")
    return &DiffNWay;
  if (Command == "analyze")
    return &Analyze;
  if (Command == "views")
    return &Views;
  if (Command == "protocols")
    return &Protocols;
  return nullptr; // Unknown subcommand.
}

bool validateFlags(const std::string &Command, const Args &A) {
  const std::vector<const char *> *Allowed = allowedFlags(Command);
  if (!Allowed)
    return false;
  bool Ok = true;
  for (const std::string &Flag : A.SeenFlags) {
    if (Flag == "--metrics-out" || Flag == "--profile" ||
        Flag == "--trace-out")
      continue;
    if (std::none_of(Allowed->begin(), Allowed->end(),
                     [&Flag](const char *F) { return Flag == F; })) {
      std::fprintf(stderr, "error: '%s' does not accept %s\n",
                   Command.c_str(), Flag.c_str());
      Ok = false;
    }
  }
  return Ok;
}

/// Compiles a program file with a shared interner; exits on error.
Expected<CompiledProgram>
compileFile(const std::string &Path, std::shared_ptr<StringInterner> Strings) {
  Expected<std::string> Source = readFile(Path);
  if (!Source)
    return Source.error();
  Expected<CompiledProgram> Prog = compileSource(*Source, std::move(Strings));
  if (!Prog)
    return makeErr(Path + ": " + Prog.error().render());
  return Prog;
}

RunResult runWith(const CompiledProgram &Prog, const Args &A,
                  std::vector<std::string> Inputs, const char *Name) {
  RunOptions Options;
  Options.Inputs = std::move(Inputs);
  Options.IntInputs = A.IntInputs;
  Options.TraceName = Name;
  return runProgram(Prog, Options);
}

int cmdRun(const Args &A) {
  if (A.Positional.size() != 1)
    return usage();
  // Declared first so it is destroyed last: once opened, the span covers
  // the destruction of the trace columns and the interner below, which on
  // a large trace is a visible share of the run.
  std::optional<TelemetrySpan> Teardown;
  auto Prog = compileFile(A.Positional[0], nullptr);
  if (!Prog)
    return fail(Prog.error());
  RunResult Result = runWith(*Prog, A, A.Inputs, "run");
  std::fputs(Result.Output.c_str(), stdout);
  std::fprintf(stderr, "[%zu trace entries, %llu steps%s]\n",
               Result.ExecTrace.size(),
               static_cast<unsigned long long>(Result.Steps),
               Result.Completed ? "" : ", did not complete");
  int Exit = Result.Completed ? 0 : 1;
  if (!A.TracePath.empty()) {
    if (writeTrace(Result.ExecTrace, A.TracePath)) {
      std::fprintf(stderr, "[trace written to %s]\n", A.TracePath.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   A.TracePath.c_str());
      Exit = 1;
    }
  }
  Teardown.emplace("teardown");
  return Exit;
}

/// The one way the CLI reads a trace file. A damaged derived section is
/// dropped and rebuilt; each drop is noted on stderr, like the other
/// bracketed notes, as soon as the file has loaded.
Expected<Trace> loadTrace(const std::string &Path,
                          std::shared_ptr<StringInterner> Strings) {
  TraceReadReport Report;
  Expected<Trace> T = readTrace(Path, std::move(Strings), &Report);
  if (T && Report.FingerprintsDropped)
    std::fprintf(stderr, "[%s: damaged fingerprint lane recomputed]\n",
                 Path.c_str());
  if (T && Report.ViewIndexDropped)
    std::fprintf(stderr, "[%s: damaged view index dropped]\n", Path.c_str());
  return T;
}

int cmdTraceDump(const Args &A) {
  if (A.Positional.size() != 1)
    return usage();
  Expected<Trace> T = loadTrace(A.Positional[0], nullptr);
  if (!T)
    return fail(T.error());
  std::fputs(dumpTrace(*T).c_str(), stdout);
  return 0;
}

/// Diffs two traces and prints the report, then opens \p Teardown so the
/// frees that follow (the result here, the traces in the caller) are
/// attributed to it.
int printDiff(const Trace &Left, const Trace &Right, const Args &A,
              std::optional<TelemetrySpan> &Teardown) {
  ViewsDiffOptions Options;
  Options.Jobs = A.Jobs;
  Options.UseViewIndex = !A.NoViewCache;
  DiffResult Result = A.Engine == DiffEngineKind::Lcs
                          ? lcsDiff(Left, Right)
                          : viewsDiff(Left, Right, Options);
  if (Result.Stats.OutOfMemory) {
    std::fprintf(stderr, "error: LCS differencing ran out of memory; "
                         "retry with --engine views\n");
    return 1;
  }
  {
    TelemetrySpan ReportSpan("report");
    if (!A.HtmlPath.empty()) {
      if (!writeHtmlFile(renderHtmlDiff(Result), A.HtmlPath)) {
        std::fprintf(stderr, "error: cannot write '%s'\n",
                     A.HtmlPath.c_str());
        return 1;
      }
      std::fprintf(stderr, "[html report written to %s]\n",
                   A.HtmlPath.c_str());
    }
    std::fputs(Result.render(50, 12).c_str(), stdout);
    std::fprintf(stderr,
                 "[%llu compare ops, %.3fs, %.1f MiB]\n",
                 static_cast<unsigned long long>(Result.Stats.CompareOps),
                 Result.Stats.Seconds,
                 static_cast<double>(Result.Stats.PeakBytes) / (1 << 20));
  }
  Teardown.emplace("teardown");
  return 0;
}

int cmdDiff(const Args &A) {
  if (A.Positional.size() != 2)
    return usage();
  std::optional<TelemetrySpan> Teardown; // Destroyed last; see cmdRun.
  auto Strings = std::make_shared<StringInterner>();
  auto Old = compileFile(A.Positional[0], Strings);
  auto New = compileFile(A.Positional[1], Strings);
  if (!Old || !New)
    return fail(!Old ? Old.error() : New.error());
  RunResult OldRun = runWith(*Old, A, A.Inputs, "old");
  RunResult NewRun = runWith(*New, A, A.Inputs, "new");
  if (OldRun.Output != NewRun.Output)
    std::fprintf(stderr, "[outputs differ]\n");
  return printDiff(OldRun.ExecTrace, NewRun.ExecTrace, A, Teardown);
}

int cmdDiffTraces(const Args &A) {
  if (A.Positional.size() != 2)
    return usage();
  std::optional<TelemetrySpan> Teardown; // Destroyed last; see cmdRun.
  auto Strings = std::make_shared<StringInterner>();
  Expected<Trace> Left = loadTrace(A.Positional[0], Strings);
  if (!Left)
    return fail(Left.error());
  Expected<Trace> Right = loadTrace(A.Positional[1], Strings);
  if (!Right)
    return fail(Right.error());
  return printDiff(*Left, *Right, A, Teardown);
}

int cmdDiffNWay(const Args &A) {
  if (A.Positional.size() < 2)
    return usage();
  std::optional<TelemetrySpan> Teardown; // Destroyed last; see cmdRun.
  // The baseline plus every mutant, all sharing one interner.
  auto Strings = std::make_shared<StringInterner>();
  std::vector<Trace> Traces;
  Traces.reserve(A.Positional.size());
  for (const std::string &Path : A.Positional) {
    Expected<Trace> T = loadTrace(Path, Strings);
    if (!T)
      return fail(T.error());
    Traces.push_back(T.take());
  }

  ViewsDiffOptions Options;
  Options.Jobs = A.Jobs;
  Options.UseViewIndex = !A.NoViewCache;
  std::vector<const Trace *> Mutants;
  for (size_t I = 1; I != Traces.size(); ++I)
    Mutants.push_back(&Traces[I]);
  NWayResult Result = nwayDiff(Traces[0], Mutants, Options);

  {
    TelemetrySpan ReportSpan("report");
    if (!A.HtmlPath.empty()) {
      HtmlReportOptions HtmlOptions;
      HtmlOptions.Title = "RPrism variational diff";
      if (!writeHtmlFile(renderHtmlNWay(Result, HtmlOptions), A.HtmlPath)) {
        std::fprintf(stderr, "error: cannot write '%s'\n",
                     A.HtmlPath.c_str());
        return 1;
      }
      std::fprintf(stderr, "[html report written to %s]\n",
                   A.HtmlPath.c_str());
    }
    std::fputs(Result.render().c_str(), stdout);
    std::fprintf(stderr,
                 "[%llu compare ops across %zu mutants, %.3fs, "
                 "%.1f KiB shared lanes]\n",
                 static_cast<unsigned long long>(Result.totalCompareOps()),
                 Result.Mutants.size(), Result.Seconds,
                 static_cast<double>(Result.SharedLaneBytes) / 1024);
  }
  Teardown.emplace("teardown");
  return 0;
}

int cmdAnalyze(const Args &A) {
  if (A.Positional.size() != 2 || A.RegrInputs.empty() ||
      A.OkInputs.empty())
    return usage();
  std::optional<TelemetrySpan> Teardown; // Destroyed last; see cmdRun.
  auto Strings = std::make_shared<StringInterner>();
  auto Old = compileFile(A.Positional[0], Strings);
  auto New = compileFile(A.Positional[1], Strings);
  if (!Old || !New)
    return fail(!Old ? Old.error() : New.error());
  RunResult OrigOk = runWith(*Old, A, A.OkInputs, "orig-ok");
  RunResult OrigRegr = runWith(*Old, A, A.RegrInputs, "orig-regr");
  RunResult NewOk = runWith(*New, A, A.OkInputs, "new-ok");
  RunResult NewRegr = runWith(*New, A, A.RegrInputs, "new-regr");

  if (OrigRegr.Output == NewRegr.Output)
    std::fprintf(stderr, "warning: the regressing input does not "
                         "discriminate the versions\n");
  if (OrigOk.Output != NewOk.Output)
    std::fprintf(stderr, "warning: the ok input regressed too; expected "
                         "differences may hide the cause\n");

  RegressionInputs Inputs{&OrigOk.ExecTrace, &OrigRegr.ExecTrace,
                          &NewOk.ExecTrace, &NewRegr.ExecTrace};
  RegressionOptions Options;
  Options.Engine = A.Engine;
  Options.Views.Jobs = A.Jobs;
  Options.CodeRemoval = A.Removal;
  RegressionReport Report = analyzeRegression(Inputs, Options);
  {
    TelemetrySpan ReportSpan("report");
    if (!A.HtmlPath.empty()) {
      HtmlReportOptions HtmlOptions;
      HtmlOptions.Title = "RPrism regression analysis";
      if (!writeHtmlFile(renderHtmlReport(Report, HtmlOptions),
                         A.HtmlPath)) {
        std::fprintf(stderr, "error: cannot write '%s'\n",
                     A.HtmlPath.c_str());
        return 1;
      }
      std::fprintf(stderr, "[html report written to %s]\n",
                   A.HtmlPath.c_str());
    }
    std::fputs(Report.render(20, 14).c_str(), stdout);
  }
  Teardown.emplace("teardown");
  return 0;
}

int cmdViews(const Args &A) {
  if (A.Positional.size() != 1)
    return usage();
  auto Prog = compileFile(A.Positional[0], nullptr);
  if (!Prog)
    return fail(Prog.error());
  RunResult Result = runWith(*Prog, A, A.Inputs, "views");
  ViewWeb Web(Result.ExecTrace);
  std::printf("%zu entries; %zu views (%zu thread, %zu method, %zu "
              "target-object, %zu active-object)\n\n",
              Result.ExecTrace.size(), Web.numViews(),
              Web.numThreadViews(), Web.numMethodViews(),
              Web.numTargetObjectViews(), Web.numActiveObjectViews());
  for (const View &V : Web.views())
    std::fputs(Web.render(V, 6).c_str(), stdout);
  return 0;
}

int cmdProtocols(const Args &A) {
  if (A.Positional.size() != 2)
    return usage();
  auto Strings = std::make_shared<StringInterner>();
  auto Good = compileFile(A.Positional[0], Strings);
  auto Subject = compileFile(A.Positional[1], Strings);
  if (!Good || !Subject)
    return fail(!Good ? Good.error() : Subject.error());
  RunResult GoodRun = runWith(*Good, A, A.Inputs, "good");
  RunResult SubjectRun = runWith(*Subject, A, A.Inputs, "subject");
  ViewWeb GoodWeb(GoodRun.ExecTrace);
  ViewWeb SubjectWeb(SubjectRun.ExecTrace);
  std::vector<ProtocolAutomaton> Protocols = inferProtocols(GoodWeb);
  for (const ProtocolAutomaton &Auto : Protocols)
    std::fputs(Auto.render(*Strings).c_str(), stdout);
  std::vector<ProtocolViolation> Violations =
      checkProtocols(Protocols, SubjectWeb);
  std::fputs(renderViolations(Violations, SubjectRun.ExecTrace).c_str(),
             stdout);
  return Violations.empty() ? 0 : 1;
}

int dispatch(const std::string &Command, const Args &A) {
  if (Command == "run")
    return cmdRun(A);
  if (Command == "trace-dump")
    return cmdTraceDump(A);
  if (Command == "diff")
    return cmdDiff(A);
  if (Command == "diff-traces")
    return cmdDiffTraces(A);
  if (Command == "diff-nway")
    return cmdDiffNWay(A);
  if (Command == "analyze")
    return cmdAnalyze(A);
  if (Command == "views")
    return cmdViews(A);
  if (Command == "protocols")
    return cmdProtocols(A);
  std::fprintf(stderr, "error: unknown subcommand '%s'\n", Command.c_str());
  return usage();
}

/// Records the process's minor page faults so far (getrusage) and its
/// resident high-water mark (VmHWM) as the proc.* gauges. Both depend on
/// the kernel and the host, so no check gates them.
void recordProcessGauges() {
  struct rusage Usage{};
  if (getrusage(RUSAGE_SELF, &Usage) == 0)
    Telemetry::gaugeMax("proc.minor_faults",
                        static_cast<double>(Usage.ru_minflt));
  std::FILE *Status = std::fopen("/proc/self/status", "r");
  if (!Status)
    return;
  char Line[256];
  unsigned long long Kib = 0;
  while (std::fgets(Line, sizeof Line, Status))
    if (std::sscanf(Line, "VmHWM: %llu kB", &Kib) == 1) {
      Telemetry::gaugeMax("proc.peak_rss_bytes",
                          static_cast<double>(Kib) * 1024);
      break;
    }
  std::fclose(Status);
}

} // namespace

/// Scripts can tell a corrupt input (3) from a file that could not be
/// opened or read (4) without parsing stderr.
int rprism::exitCodeFor(const Err &E) {
  switch (E.Class) {
  case ErrClass::Usage:
    return 2;
  case ErrClass::Corrupt:
    return 3;
  case ErrClass::Io:
    return 4;
  default:
    return 1;
  }
}

/// Opens without blocking, so a FIFO that has no writer fails at once (as
/// the trace reader's open does) instead of waiting for one, then reads
/// blocking to the end. A FIFO's first read tells the cases apart: with
/// no writer and no data it is end-of-file, with a writer that has not
/// written yet it would block.
Expected<std::string> rprism::readFile(const std::string &Path) {
  int Fd = ::open(Path.c_str(), O_RDONLY | O_NONBLOCK | O_CLOEXEC);
  bool Ok = Fd >= 0;
  std::string Text;
  char Buffer[1 << 16];
  auto ReadSome = [&] {
    ssize_t Got;
    do
      Got = ::read(Fd, Buffer, sizeof Buffer);
    while (Got < 0 && errno == EINTR);
    if (Got > 0)
      Text.append(Buffer, static_cast<size_t>(Got));
    return Got;
  };
  struct stat St{};
  if (Ok && ::fstat(Fd, &St) == 0 && S_ISFIFO(St.st_mode)) {
    ssize_t Got = ReadSome();
    Ok = Got > 0 || (Got < 0 && errno == EAGAIN);
  }
  if (Ok) {
    int Flags = ::fcntl(Fd, F_GETFL);
    Ok = Flags >= 0 && ::fcntl(Fd, F_SETFL, Flags & ~O_NONBLOCK) == 0;
  }
  while (Ok) {
    ssize_t Got = ReadSome();
    if (Got == 0)
      break;
    Ok = Got > 0;
  }
  if (Fd >= 0)
    ::close(Fd);
  if (!Ok)
    return makeClassErr(ErrClass::Io, "file.open",
                        "cannot open '" + Path + "'");
  return Text;
}

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage();
  std::string Command = Argv[1];
  if (Command == "--version" || Command == "version") {
    std::printf("rprism %s\n", kVersion);
    return 0;
  }
  if (Command == "--help" || Command == "help") {
    usage();
    return 0;
  }
  // metrics-diff has its own flag grammar (--tolerance PAT=PCT), so it is
  // dispatched before the shared parser.
  if (Command == "metrics-diff")
    return metricsDiffMain({Argv + 2, Argv + Argc});
  Args A = parseArgs(Argc, Argv, 2);
  if (A.Bad)
    return 2;
  if (!allowedFlags(Command)) {
    std::fprintf(stderr, "error: unknown subcommand '%s'\n",
                 Command.c_str());
    return usage();
  }
  if (!validateFlags(Command, A))
    return usage();

  // Telemetry is recorded only when an export was requested; otherwise
  // every instrumentation point stays a single relaxed load.
  bool WantTelemetry = !A.MetricsOut.empty() || A.Profile;
  if (WantTelemetry) {
    Telemetry::get().reset();
    Telemetry::get().setEnabled(true);
  }
  // The timeline recorder is independent of aggregate telemetry:
  // --trace-out works without --metrics-out.
  bool WantTrace = !A.TraceOut.empty();
  if (WantTrace)
    TraceEventRecorder::get().arm();
  uint64_t StartNanos = Telemetry::nowNanos();

  int Exit;
  {
    // Root span named after the subcommand: every pipeline stage nests
    // under it, so span coverage of the run is the root span itself.
    TelemetrySpan Root(Command.c_str());
    Exit = dispatch(Command, A);
  }

  if (WantTrace) {
    TraceEventRecorder::get().disarm();
    if (!TraceEventRecorder::get().writeChromeTrace(A.TraceOut)) {
      std::fprintf(stderr, "error: cannot write '%s'\n", A.TraceOut.c_str());
      return Exit ? Exit : 4;
    }
    std::fprintf(stderr, "[timeline written to %s]\n", A.TraceOut.c_str());
  }

  if (WantTelemetry) {
    recordProcessGauges();
    Telemetry::get().setEnabled(false);
    MetricsRunInfo Info;
    Info.Command = Command;
    Info.WallNanos = Telemetry::nowNanos() - StartNanos;
    TelemetrySnapshot Snap = Telemetry::get().snapshot();
    if (A.Profile)
      std::fputs(renderProfileTable(Snap, /*MaxStages=*/16).c_str(), stderr);
    if (!A.MetricsOut.empty()) {
      if (!writeMetricsJson(Snap, Info, A.MetricsOut)) {
        std::fprintf(stderr, "error: cannot write '%s'\n",
                     A.MetricsOut.c_str());
        return Exit ? Exit : 4;
      }
      std::fprintf(stderr, "[metrics written to %s]\n", A.MetricsOut.c_str());
    }
  }
  return Exit;
}
