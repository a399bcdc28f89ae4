//===- support/MetricsDiff.cpp --------------------------------------------===//

#include "support/MetricsDiff.h"

#include "support/Json.h"
#include "support/TablePrinter.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

using namespace rprism;

double MetricDelta::deltaPct() const {
  if (Baseline == 0)
    return Current == 0 ? 0 : 100.0;
  return 100.0 * (Current - Baseline) / std::fabs(Baseline);
}

namespace {

struct FlatMetric {
  double Value = 0;
  MetricClass Class = MetricClass::Counter;
};

using FlatMap = std::map<std::string, FlatMetric>;

/// Flattens one parsed rprism-metrics-v1 document into dotted metric
/// names. A histogram ({"total": N, "p50": ..., "buckets": [...]})
/// contributes its total and quantiles.
Expected<FlatMap> flatten(const JsonValue &Doc) {
  if (Doc.stringOr("schema", "") != "rprism-metrics-v1")
    return makeClassErr(ErrClass::Corrupt, "metrics.schema",
                        "not an rprism-metrics-v1 document (schema: \"" +
                            Doc.stringOr("schema", "<missing>") + "\")");
  FlatMap Out;

  if (const JsonValue *Wall = Doc.find("wall_ns"); Wall && Wall->isNumber())
    Out["wall_ns"] = {Wall->number(), MetricClass::Wall};

  if (const JsonValue *Counters = Doc.find("counters");
      Counters && Counters->isObject())
    for (const auto &[Name, Value] : Counters->object())
      if (Value.isNumber())
        Out[Name] = {Value.number(), MetricClass::Counter};

  if (const JsonValue *Gauges = Doc.find("gauges");
      Gauges && Gauges->isObject())
    for (const auto &[Name, Value] : Gauges->object())
      if (Value.isNumber())
        Out["gauge." + Name] = {Value.number(), MetricClass::Gauge};

  if (const JsonValue *Hists = Doc.find("histograms");
      Hists && Hists->isObject())
    for (const auto &[Name, Hist] : Hists->object()) {
      const std::string Prefix = "histogram." + Name;
      for (const char *Field : {"total", "p50", "p95", "p99"})
        if (const JsonValue *V = Hist.find(Field); V && V->isNumber())
          Out[Prefix + "." + Field] = {V->number(), MetricClass::Counter};
    }

  return Out;
}

/// Literal match with one optional trailing '*'.
bool patternMatches(const std::string &Pattern, const std::string &Name) {
  if (!Pattern.empty() && Pattern.back() == '*')
    return Name.compare(0, Pattern.size() - 1, Pattern, 0,
                        Pattern.size() - 1) == 0;
  return Pattern == Name;
}

/// Applied tolerance for one metric: first matching rule, else the class
/// default. Negative means "skip".
double toleranceFor(const std::string &Name, MetricClass Class,
                    const MetricsDiffOptions &Options) {
  for (const ToleranceRule &Rule : Options.Rules)
    if (patternMatches(Rule.Pattern, Name))
      return Rule.TolerancePct;
  switch (Class) {
  case MetricClass::Counter:
    return Options.CounterTolerancePct;
  case MetricClass::Gauge:
    return Options.GaugeTolerancePct;
  case MetricClass::Wall:
    return Options.WallTolerancePct;
  }
  return 0;
}

const char *className(MetricClass Class) {
  switch (Class) {
  case MetricClass::Counter:
    return "counter";
  case MetricClass::Gauge:
    return "gauge";
  case MetricClass::Wall:
    return "wall";
  }
  return "counter";
}

} // namespace

Expected<MetricsDiffResult>
rprism::diffMetricsJson(const std::string &BaselineText,
                        const std::string &CurrentText,
                        const MetricsDiffOptions &Options) {
  Expected<JsonValue> BaselineDoc = parseJson(BaselineText);
  if (!BaselineDoc)
    return Err(BaselineDoc.error()).note("while parsing the baseline");
  Expected<JsonValue> CurrentDoc = parseJson(CurrentText);
  if (!CurrentDoc)
    return Err(CurrentDoc.error()).note("while parsing the current run");

  Expected<FlatMap> Baseline = flatten(*BaselineDoc);
  if (!Baseline)
    return Err(Baseline.error()).note("while reading the baseline");
  Expected<FlatMap> Current = flatten(*CurrentDoc);
  if (!Current)
    return Err(Current.error()).note("while reading the current run");

  MetricsDiffResult Result;
  Result.MissingGated = Options.FailOnMissing;

  for (const auto &[Name, Base] : *Baseline) {
    auto It = Current->find(Name);
    if (It == Current->end()) {
      Result.Missing.push_back(Name);
      continue;
    }
    MetricDelta D;
    D.Name = Name;
    D.Class = Base.Class;
    D.Baseline = Base.Value;
    D.Current = It->second.Value;
    D.TolerancePct = toleranceFor(Name, Base.Class, Options);
    if (D.TolerancePct < 0) {
      D.Skipped = true;
    } else {
      // A zero baseline cannot anchor a percentage band: any growth from
      // zero is a regression unless the metric is skipped.
      bool Over;
      if (D.Baseline == 0)
        Over = D.Current > 0 || (Options.TwoSided && D.Current < 0);
      else {
        double Pct = D.deltaPct();
        Over = Options.TwoSided ? std::fabs(Pct) > D.TolerancePct
                                : Pct > D.TolerancePct;
      }
      D.Regressed = Over;
    }
    if (D.Regressed)
      ++Result.RegressedCount;
    Result.Deltas.push_back(std::move(D));
  }

  for (const auto &[Name, Cur] : *Current)
    if (!Baseline->count(Name))
      Result.Appeared.push_back(Name);

  return Result;
}

std::string MetricsDiffResult::render(bool OnlyInteresting) const {
  std::ostringstream OS;
  TablePrinter Table;
  Table.setHeader(
      {"metric", "class", "baseline", "current", "delta %", "tol %", "verdict"});
  size_t Shown = 0, SkippedQuiet = 0;
  for (const MetricDelta &D : Deltas) {
    bool Interesting = D.Regressed || (!D.Skipped && D.Current != D.Baseline);
    if (OnlyInteresting && !Interesting) {
      ++SkippedQuiet;
      continue;
    }
    const char *Verdict =
        D.Regressed ? "REGRESSED" : (D.Skipped ? "skipped" : "ok");
    Table.addRow({D.Name, className(D.Class), TablePrinter::fmt(D.Baseline, 3),
                  TablePrinter::fmt(D.Current, 3),
                  TablePrinter::fmt(D.deltaPct(), 2),
                  D.Skipped ? std::string("-")
                            : TablePrinter::fmt(D.TolerancePct, 2),
                  Verdict});
    ++Shown;
  }
  if (Shown != 0)
    Table.print(OS);
  if (SkippedQuiet != 0)
    OS << "(" << SkippedQuiet << " unchanged/skipped metric"
       << (SkippedQuiet == 1 ? "" : "s") << " not shown)\n";

  for (const std::string &Name : Missing)
    OS << "missing from current run: " << Name
       << (MissingGated ? " [gated]" : "") << "\n";
  for (const std::string &Name : Appeared)
    OS << "new metric (not gated): " << Name << "\n";

  if (regressed())
    OS << "verdict: REGRESSED (" << RegressedCount << " metric"
       << (RegressedCount == 1 ? "" : "s")
       << (MissingGated && !Missing.empty()
               ? ", " + std::to_string(Missing.size()) + " missing"
               : std::string())
       << ")\n";
  else
    OS << "verdict: ok (" << Deltas.size() << " metrics compared)\n";
  return OS.str();
}
