//===- cache/DiffCache.h - LRU cache for repeat diffs ---------------------===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regression cause analysis (§6) is a repeat-diff workload: its three
/// diffs run over four traces, and each new-version trace appears in two
/// of them. DiffCache amortizes the two rebuildable stages across such
/// repeats, in process:
///
///   view webs     — keyed by trace identity, so each side's web is built
///                   (or reconstructed from its persisted ViewIndex) at
///                   most once;
///   correlations  — keyed by the web pair, self-contained result vectors.
///
/// Traces loaded through the cache are read and verified on every load,
/// and held so that a cached web pins its cache-loaded trace: borrowed
/// entry columns never outlive their backing bytes. Entries live in one
/// LRU list bounded by a byte budget.
///
/// Lifetime contract: a trace or web passed in from *outside* the cache
/// (not obtained from load()/web()) is keyed by address and must outlive
/// the cache — scope each DiffCache inside the lifetime of the traces it
/// is given (analyzeRegression does this).
///
/// Cache hits and misses are counted (`web.cache.{hit,miss}`,
/// `correlate.cache.{hit,miss}`). The counts are jobs-invariant — cache
/// behavior does not depend on the worker count — so they stay inside the
/// determinism contract for counters. The cache
/// never changes results: hits return exactly what the miss path would
/// rebuild (byte-identical reports, identical compare-op totals).
///
//===----------------------------------------------------------------------===//

#ifndef RPRISM_CACHE_DIFFCACHE_H
#define RPRISM_CACHE_DIFFCACHE_H

#include "diff/ViewsDiff.h"
#include "support/Expected.h"

#include <list>
#include <memory>
#include <string>
#include <unordered_map>

namespace rprism {

class DiffCache {
public:
  /// Default byte budget for the payloads an instance retains.
  static constexpr uint64_t DefaultMaxBytes = uint64_t{1} << 30;

  explicit DiffCache(uint64_t MaxBytes = DefaultMaxBytes);
  ~DiffCache();
  DiffCache(const DiffCache &) = delete;
  DiffCache &operator=(const DiffCache &) = delete;

  /// Reads and verifies the trace at \p Path (readTrace) and holds it,
  /// so that a web built on it pins it. Every call reads the file: a
  /// damaged copy of a loaded trace is rejected like any damaged file.
  /// Returns null on error (the typed diagnostic — class, code, message —
  /// in \p Error).
  std::shared_ptr<const Trace> load(const std::string &Path,
                                    std::shared_ptr<StringInterner> Strings,
                                    Err *Error = nullptr);

  /// The view web of \p T, built on first request (with \p Pool /
  /// \p UseIndex, see ViewWeb) and returned from cache afterwards.
  std::shared_ptr<const ViewWeb> web(const Trace &T,
                                     ThreadPool *Pool = nullptr,
                                     bool UseIndex = true);

  /// The view correlation of (\p Left, \p Right), computed on first
  /// request. The result is self-contained (plain index vectors), so it
  /// stays valid even after the webs are gone.
  std::shared_ptr<const ViewCorrelation> correlation(const ViewWeb &Left,
                                                     const ViewWeb &Right);

  uint64_t bytes() const;   ///< Current payload bytes retained.
  size_t numEntries() const;

private:
  struct Impl;
  std::unique_ptr<Impl> M;
};

/// Drop-in replacement for the trace-level viewsDiff convenience overload
/// that obtains webs and the correlation through \p Cache. First call per
/// pair builds everything (cold); repeats skip web build and correlation
/// (warm). The DiffResult — report bytes and compare-op totals — is
/// identical to the uncached path for every jobs value.
DiffResult cachedViewsDiff(const Trace &Left, const Trace &Right,
                           const ViewsDiffOptions &Options, DiffCache &Cache);

} // namespace rprism

#endif // RPRISM_CACHE_DIFFCACHE_H
