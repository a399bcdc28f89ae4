//===- tools/metrics_diff.cpp - `rprism metrics-diff` subcommand ----------===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The CI perf-regression gate: compares a fresh `rprism-metrics-v1`
/// document against a checked-in baseline and exits 5 when any gated
/// metric grew beyond its tolerance band. Kept out of rprism.cpp because
/// its flag grammar (`--tolerance PAT=PCT`) differs from the shared
/// subcommand parser.
///
//===----------------------------------------------------------------------===//

#include "Cli.h"

#include "support/MetricsDiff.h"

#include <cstdio>
#include <cstdlib>

using namespace rprism;

namespace {

/// Exit code 5 is reserved for "the comparison ran and found a
/// regression" — distinct from every failure-to-compare code so CI can
/// tell "slower" from "broken".
constexpr int kExitRegressed = 5;

int usage() {
  std::fprintf(
      stderr,
      "usage: rprism metrics-diff <baseline.json> <current.json> [flags]\n"
      "\n"
      "  --tolerance PAT=PCT    per-metric band; PAT is a metric name with\n"
      "                         an optional trailing '*' (first match wins);\n"
      "                         a negative PCT skips matching metrics\n"
      "  --counter-tolerance P  default band for counters (default 0)\n"
      "  --gauge-tolerance P    default band for gauges (default: skip)\n"
      "  --wall-tolerance P     default band for wall_ns (default: skip)\n"
      "  --two-sided            also fail decreases beyond the band\n"
      "  --fail-on-missing      fail when a baseline metric disappeared\n"
      "  --quiet                suppress the comparison table\n"
      "\n"
      "exit codes: 0 within tolerance, 5 regression, 2 usage error,\n"
      "            3 corrupt/mismatched metrics JSON, 4 I/O error\n");
  return 2;
}

/// Parses "PCT" as a double; false on garbage.
bool parsePct(const std::string &Text, double &Out) {
  if (Text.empty())
    return false;
  char *End = nullptr;
  Out = std::strtod(Text.c_str(), &End);
  return End == Text.c_str() + Text.size();
}

} // namespace

int rprism::metricsDiffMain(const std::vector<std::string> &Args) {
  std::vector<std::string> Paths;
  MetricsDiffOptions Options;
  bool Quiet = false;

  for (size_t I = 0; I != Args.size(); ++I) {
    const std::string &Arg = Args[I];
    auto takeValue = [&](const char *Flag, std::string &Out) {
      if (I + 1 >= Args.size()) {
        std::fprintf(stderr, "error: %s needs a value\n", Flag);
        return false;
      }
      Out = Args[++I];
      return true;
    };
    if (Arg == "--tolerance") {
      std::string Spec;
      if (!takeValue("--tolerance", Spec))
        return usage();
      size_t Eq = Spec.rfind('=');
      double Pct;
      if (Eq == std::string::npos || Eq == 0 ||
          !parsePct(Spec.substr(Eq + 1), Pct)) {
        std::fprintf(stderr,
                     "error: --tolerance wants PAT=PCT, got '%s'\n",
                     Spec.c_str());
        return usage();
      }
      Options.Rules.push_back({Spec.substr(0, Eq), Pct});
    } else if (Arg == "--counter-tolerance" || Arg == "--gauge-tolerance" ||
               Arg == "--wall-tolerance") {
      std::string Value;
      if (!takeValue(Arg.c_str(), Value))
        return usage();
      double Pct;
      if (!parsePct(Value, Pct)) {
        std::fprintf(stderr, "error: %s wants a number, got '%s'\n",
                     Arg.c_str(), Value.c_str());
        return usage();
      }
      (Arg == "--counter-tolerance"
           ? Options.CounterTolerancePct
           : Arg == "--gauge-tolerance" ? Options.GaugeTolerancePct
                                        : Options.WallTolerancePct) = Pct;
    } else if (Arg == "--two-sided") {
      Options.TwoSided = true;
    } else if (Arg == "--fail-on-missing") {
      Options.FailOnMissing = true;
    } else if (Arg == "--quiet") {
      Quiet = true;
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "error: unknown flag '%s'\n", Arg.c_str());
      return usage();
    } else {
      Paths.push_back(Arg);
    }
  }

  if (Paths.size() != 2)
    return usage();

  Expected<std::string> Baseline = readFile(Paths[0]);
  if (!Baseline) {
    std::fprintf(stderr, "error: %s\n", Baseline.error().render().c_str());
    return exitCodeFor(Baseline.error());
  }
  Expected<std::string> Current = readFile(Paths[1]);
  if (!Current) {
    std::fprintf(stderr, "error: %s\n", Current.error().render().c_str());
    return exitCodeFor(Current.error());
  }

  Expected<MetricsDiffResult> Result =
      diffMetricsJson(*Baseline, *Current, Options);
  if (!Result) {
    std::fprintf(stderr, "error: %s\n", Result.error().render().c_str());
    return exitCodeFor(Result.error());
  }

  if (!Quiet)
    std::fputs(Result->render().c_str(), stderr);
  return Result->regressed() ? kExitRegressed : 0;
}
