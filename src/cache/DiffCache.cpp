//===- cache/DiffCache.cpp - LRU cache for repeat diffs -------------------===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//

#include "cache/DiffCache.h"

#include "robustness/FaultInjector.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"
#include "trace/Serialize.h"

#include <mutex>
#include <new>

using namespace rprism;

namespace {

/// Degradation-ladder rung shared by every insert site: when an insert
/// cannot happen (injected fault or a real allocation failure), the
/// computed payload is returned to the caller uncached — correctness is
/// unaffected, the repeat-use speedup is lost, and the fallback is
/// observable via `robust.cache_insert_dropped`.
void countInsertDropped() {
  Telemetry::counterAdd("robust.cache_insert_dropped");
}

/// Retained footprint of a web. Borrowed entry lists (index-reconstructed
/// webs) alias the trace's bytes and are already accounted on the trace
/// entry, so only owning lists count here; the per-view fixed state and a
/// hash-index slot per view always do.
uint64_t webBytes(const ViewWeb &W) {
  uint64_t Bytes = static_cast<uint64_t>(W.numViews()) * (sizeof(View) + 48);
  for (const View &V : W.views())
    if (!V.Entries.borrowed())
      Bytes += V.Entries.byteSize();
  return Bytes;
}

uint64_t correlationBytes(const ViewWeb &Left, const ViewWeb &Right,
                          const ViewCorrelation &X) {
  return (Left.numViews() + Right.numViews()) * sizeof(int32_t) +
         X.threadPairs().size() * sizeof(std::pair<uint32_t, uint32_t>);
}

} // namespace

struct DiffCache::Impl {
  enum class Kind { Trace, Web, Correlation };

  struct CorrKey {
    const ViewWeb *Left = nullptr;
    const ViewWeb *Right = nullptr;
    bool operator==(const CorrKey &O) const {
      return Left == O.Left && Right == O.Right;
    }
  };
  struct CorrKeyHash {
    size_t operator()(const CorrKey &K) const {
      return std::hash<const void *>()(K.Left) ^
             (std::hash<const void *>()(K.Right) * 0x9e3779b97f4a7c15ull);
    }
  };

  struct Entry {
    Kind K = Kind::Trace;
    uint64_t Bytes = 0;

    // Kind::Trace
    std::shared_ptr<const Trace> T;

    // Kind::Web. TracePin is set when the keyed trace is cache-loaded: it
    // keeps the trace (and the file bytes the web's borrowed columns alias)
    // alive past the trace entry's own eviction, which also rules out a
    // later allocation reusing the key address while this entry exists.
    const Trace *WebKey = nullptr;
    std::shared_ptr<const ViewWeb> Web;
    std::shared_ptr<const Trace> TracePin;

    // Kind::Correlation. The web pins keep the two keyed webs alive for as
    // long as the entry exists, so the pointer key can never alias a later
    // web allocation (and a hit with the same still-alive webs stays
    // legitimate even after the web entries themselves were evicted).
    CorrKey CKey;
    std::shared_ptr<const ViewCorrelation> Corr;
    std::shared_ptr<const ViewWeb> WebPinLeft;
    std::shared_ptr<const ViewWeb> WebPinRight;
  };

  using List = std::list<Entry>;

  uint64_t MaxBytes;
  uint64_t TotalBytes = 0;
  List Lru; ///< Front = most recently used.
  std::unordered_map<const Trace *, List::iterator> TraceByPtr;
  std::unordered_map<const Trace *, List::iterator> WebMap;
  std::unordered_map<CorrKey, List::iterator, CorrKeyHash> CorrMap;
  mutable std::mutex Mu;

  explicit Impl(uint64_t Max) : MaxBytes(Max) {}

  void touch(List::iterator It) { Lru.splice(Lru.begin(), Lru, It); }

  /// Removes one entry. Eviction never cascades: webs keep their traces
  /// alive via TracePin, correlations keep their webs via the web pins, so
  /// no entry's pointer key can dangle or be reused while it is cached.
  void erase(List::iterator It) {
    switch (It->K) {
    case Kind::Trace:
      TraceByPtr.erase(It->T.get());
      break;
    case Kind::Web:
      WebMap.erase(It->WebKey);
      break;
    case Kind::Correlation:
      CorrMap.erase(It->CKey);
      break;
    }
    TotalBytes -= It->Bytes;
    Lru.erase(It);
  }

  /// Evicts from the cold end until the budget holds, never touching the
  /// just-inserted entry (a single oversized payload stays cached alone).
  void evict(List::iterator Keep) {
    while (TotalBytes > MaxBytes && Lru.size() > 1) {
      List::iterator Victim = std::prev(Lru.end());
      if (Victim == Keep) {
        if (Victim == Lru.begin())
          break;
        Victim = std::prev(Victim);
      }
      erase(Victim);
    }
  }

  List::iterator insertFront(Entry E) {
    Lru.push_front(std::move(E));
    TotalBytes += Lru.front().Bytes;
    return Lru.begin();
  }
};

DiffCache::DiffCache(uint64_t MaxBytes)
    : M(std::make_unique<Impl>(MaxBytes)) {}

DiffCache::~DiffCache() = default;

std::shared_ptr<const Trace>
DiffCache::load(const std::string &Path,
                std::shared_ptr<StringInterner> Strings, Err *Error) {
  Expected<Trace> Loaded = readTrace(Path, std::move(Strings));
  if (!Loaded) {
    if (Error)
      *Error = Loaded.error();
    return nullptr;
  }
  auto T = std::make_shared<const Trace>(Loaded.take());

  std::lock_guard<std::mutex> Lock(M->Mu);
  if (FaultInjector::fire(FaultSite::CacheInsert)) {
    countInsertDropped();
    return T; // Uncached: a web built on it cannot pin it.
  }
  Impl::Entry E;
  E.K = Impl::Kind::Trace;
  E.Bytes = T->storageBytes() + T->ViewIdx.byteSize();
  E.T = T;
  bool Listed = false;
  Impl::List::iterator Pos;
  try {
    Pos = M->insertFront(std::move(E));
    Listed = true;
    M->TraceByPtr.emplace(T.get(), Pos);
  } catch (const std::bad_alloc &) {
    // Roll back the partial insert so the cache's maps, list, and byte
    // accounting stay consistent, then serve the load uncached.
    if (Listed) {
      M->TotalBytes -= Pos->Bytes;
      M->Lru.erase(Pos);
    }
    countInsertDropped();
    return T;
  }
  M->evict(Pos);
  return T;
}

std::shared_ptr<const ViewWeb> DiffCache::web(const Trace &T, ThreadPool *Pool,
                                              bool UseIndex) {
  {
    std::lock_guard<std::mutex> Lock(M->Mu);
    auto It = M->WebMap.find(&T);
    if (It != M->WebMap.end()) {
      Telemetry::counterAdd("web.cache.hit");
      M->touch(It->second);
      return It->second->Web;
    }
  }
  Telemetry::counterAdd("web.cache.miss");
  auto W = std::make_shared<const ViewWeb>(T, Pool, UseIndex);

  std::lock_guard<std::mutex> Lock(M->Mu);
  auto It = M->WebMap.find(&T);
  if (It != M->WebMap.end()) {
    M->touch(It->second);
    return It->second->Web;
  }
  if (FaultInjector::fire(FaultSite::CacheInsert)) {
    countInsertDropped();
    return W; // Uncached: the next request rebuilds the web.
  }
  Impl::Entry E;
  E.K = Impl::Kind::Web;
  E.Bytes = webBytes(*W);
  E.WebKey = &T;
  E.Web = W;
  auto TraceIt = M->TraceByPtr.find(&T);
  if (TraceIt != M->TraceByPtr.end())
    E.TracePin = TraceIt->second->T;
  bool Listed = false;
  Impl::List::iterator Pos;
  try {
    Pos = M->insertFront(std::move(E));
    Listed = true;
    M->WebMap.emplace(&T, Pos);
  } catch (const std::bad_alloc &) {
    if (Listed) {
      M->TotalBytes -= Pos->Bytes;
      M->Lru.erase(Pos);
    }
    countInsertDropped();
    return W;
  }
  M->evict(Pos);
  return W;
}

std::shared_ptr<const ViewCorrelation>
DiffCache::correlation(const ViewWeb &Left, const ViewWeb &Right) {
  Impl::CorrKey Key{&Left, &Right};
  {
    std::lock_guard<std::mutex> Lock(M->Mu);
    auto It = M->CorrMap.find(Key);
    if (It != M->CorrMap.end()) {
      Telemetry::counterAdd("correlate.cache.hit");
      M->touch(It->second);
      return It->second->Corr;
    }
  }
  Telemetry::counterAdd("correlate.cache.miss");
  auto X = std::make_shared<const ViewCorrelation>(Left, Right);

  std::lock_guard<std::mutex> Lock(M->Mu);
  auto It = M->CorrMap.find(Key);
  if (It != M->CorrMap.end()) {
    M->touch(It->second);
    return It->second->Corr;
  }
  if (FaultInjector::fire(FaultSite::CacheInsert)) {
    countInsertDropped();
    return X; // Uncached: the next request recorrelates.
  }
  Impl::Entry E;
  E.K = Impl::Kind::Correlation;
  E.Bytes = correlationBytes(Left, Right, *X);
  E.CKey = Key;
  E.Corr = X;
  // Pin cache-owned webs against eviction-then-reallocation under our key.
  auto LeftIt = M->WebMap.find(&Left.trace());
  if (LeftIt != M->WebMap.end() && LeftIt->second->Web.get() == &Left)
    E.WebPinLeft = LeftIt->second->Web;
  auto RightIt = M->WebMap.find(&Right.trace());
  if (RightIt != M->WebMap.end() && RightIt->second->Web.get() == &Right)
    E.WebPinRight = RightIt->second->Web;
  bool Listed = false;
  Impl::List::iterator Pos;
  try {
    Pos = M->insertFront(std::move(E));
    Listed = true;
    M->CorrMap.emplace(Key, Pos);
  } catch (const std::bad_alloc &) {
    if (Listed) {
      M->TotalBytes -= Pos->Bytes;
      M->Lru.erase(Pos);
    }
    countInsertDropped();
    return X;
  }
  M->evict(Pos);
  return X;
}

uint64_t DiffCache::bytes() const {
  std::lock_guard<std::mutex> Lock(M->Mu);
  return M->TotalBytes;
}

size_t DiffCache::numEntries() const {
  std::lock_guard<std::mutex> Lock(M->Mu);
  return M->Lru.size();
}

DiffResult rprism::cachedViewsDiff(const Trace &Left, const Trace &Right,
                                   const ViewsDiffOptions &Options,
                                   DiffCache &Cache) {
  TelemetrySpan Span("views-diff");
  // Mirrors the uncached trace-level viewsDiff: one pool for web builds and
  // evaluation, the chosen worker count recorded as a gauge. Webs and the
  // correlation come through the cache; a hit skips the corresponding
  // build, a miss takes exactly the uncached path — DiffResult bytes and
  // compare-op totals are identical either way, for every jobs value.
  unsigned Jobs = effectiveDiffJobs(Options, Left.size() + Right.size());
  Telemetry::gaugeMax("diff.effective_jobs", static_cast<double>(Jobs));
  ThreadPool Pool(Jobs);
  std::shared_ptr<const ViewWeb> LeftWeb =
      Cache.web(Left, &Pool, Options.UseViewIndex);
  std::shared_ptr<const ViewWeb> RightWeb =
      Cache.web(Right, &Pool, Options.UseViewIndex);
  std::shared_ptr<const ViewCorrelation> X =
      Cache.correlation(*LeftWeb, *RightWeb);
  return viewsDiff(*LeftWeb, *RightWeb, *X, Options, &Pool);
}
