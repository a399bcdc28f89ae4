//===- cache/DiffCache.h - Per-trace view webs for repeat diffs -----------===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regression cause analysis (§6) is a repeat-diff workload: its three
/// diffs run over four traces, and each new-version trace appears in two
/// of them. DiffCache holds one view web per trace, keyed by trace
/// identity, so each side's web is built (or reconstructed from its
/// persisted ViewIndex) once per session; correlations are rebuilt per
/// diff, since no two of the three diffs share a pair.
///
/// Traces loaded through the cache are read and verified on every load,
/// and held until the cache is destroyed, so a web never outlives the
/// bytes its trace borrows and no later trace can reuse a keyed address.
/// Nothing is evicted: a cache lives for one session.
///
/// Lifetime contract: a trace passed in from *outside* the cache (not
/// obtained from load()) is keyed by address and must outlive the cache —
/// scope each DiffCache inside the lifetime of the traces it is given
/// (analyzeRegression does this). A cache is not shared between threads.
///
/// Web requests are counted (`web.cache.{hit,miss}`). The counts do not
/// depend on the worker count, so they stay inside the determinism
/// contract for counters. The cache never changes results: a hit returns
/// exactly the web the miss path would build (byte-identical reports,
/// identical compare-op totals).
///
//===----------------------------------------------------------------------===//

#ifndef RPRISM_CACHE_DIFFCACHE_H
#define RPRISM_CACHE_DIFFCACHE_H

#include "diff/ViewsDiff.h"
#include "support/Expected.h"

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace rprism {

class DiffCache {
public:
  DiffCache() = default;
  DiffCache(const DiffCache &) = delete;
  DiffCache &operator=(const DiffCache &) = delete;

  /// Reads and verifies the trace at \p Path (readTrace) and holds it for
  /// the cache's lifetime. Every call reads the file: a damaged copy of a
  /// loaded trace is rejected like any damaged file. Returns null on error
  /// (the typed diagnostic — class, code, message — in \p Error).
  std::shared_ptr<const Trace> load(const std::string &Path,
                                    std::shared_ptr<StringInterner> Strings,
                                    Err *Error = nullptr);

  /// The view web of \p T, built on first request (with \p Pool /
  /// \p UseIndex, see ViewWeb) and returned from the cache afterwards.
  std::shared_ptr<const ViewWeb> web(const Trace &T,
                                     ThreadPool *Pool = nullptr,
                                     bool UseIndex = true);

private:
  // Declared first, so destroyed after the webs that read them.
  std::vector<std::shared_ptr<const Trace>> Traces;
  std::unordered_map<const Trace *, std::shared_ptr<const ViewWeb>> Webs;
};

/// Drop-in replacement for the trace-level viewsDiff convenience overload
/// that obtains both webs through \p Cache. The first call per trace builds
/// its web; later calls reuse it. The DiffResult — report bytes and
/// compare-op totals — is identical to the uncached path for every jobs
/// value.
DiffResult cachedViewsDiff(const Trace &Left, const Trace &Right,
                           const ViewsDiffOptions &Options, DiffCache &Cache);

} // namespace rprism

#endif // RPRISM_CACHE_DIFFCACHE_H
