//===- cache/DiffCache.cpp - Per-trace view webs for repeat diffs ---------===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//

#include "cache/DiffCache.h"

#include "support/Telemetry.h"
#include "support/ThreadPool.h"
#include "trace/Serialize.h"

using namespace rprism;

std::shared_ptr<const Trace>
DiffCache::load(const std::string &Path,
                std::shared_ptr<StringInterner> Strings, Err *Error) {
  Expected<Trace> Loaded = readTrace(Path, std::move(Strings));
  if (!Loaded) {
    if (Error)
      *Error = Loaded.error();
    return nullptr;
  }
  return Traces.emplace_back(std::make_shared<const Trace>(Loaded.take()));
}

std::shared_ptr<const ViewWeb> DiffCache::web(const Trace &T, ThreadPool *Pool,
                                              bool UseIndex) {
  auto It = Webs.find(&T);
  if (It != Webs.end()) {
    Telemetry::counterAdd("web.cache.hit");
    return It->second;
  }
  Telemetry::counterAdd("web.cache.miss");
  return Webs
      .emplace(&T, std::make_shared<const ViewWeb>(T, Pool, UseIndex))
      .first->second;
}

DiffResult rprism::cachedViewsDiff(const Trace &Left, const Trace &Right,
                                   const ViewsDiffOptions &Options,
                                   DiffCache &Cache) {
  TelemetrySpan Span("views-diff");
  // Mirrors the uncached trace-level viewsDiff: one pool for web builds and
  // evaluation, the chosen worker count recorded as a gauge. The webs come
  // through the cache; a hit skips the build, a miss takes exactly the
  // uncached path — DiffResult bytes and compare-op totals are identical
  // either way, for every jobs value.
  unsigned Jobs = effectiveDiffJobs(Options, Left.size() + Right.size());
  Telemetry::gaugeMax("diff.effective_jobs", static_cast<double>(Jobs));
  ThreadPool Pool(Jobs);
  std::shared_ptr<const ViewWeb> LeftWeb =
      Cache.web(Left, &Pool, Options.UseViewIndex);
  std::shared_ptr<const ViewWeb> RightWeb =
      Cache.web(Right, &Pool, Options.UseViewIndex);
  ViewCorrelation X(*LeftWeb, *RightWeb);
  return viewsDiff(*LeftWeb, *RightWeb, X, Options, &Pool);
}
