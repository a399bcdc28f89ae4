//===- robustness/FaultInjector.h - Deterministic fault injection ---------===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-wide, seeded fault injector for exercising the ingestion
/// pipeline's degradation ladder (see docs/ROBUSTNESS.md). Production code
/// calls the static hooks at the points where the real world can fail —
/// opening, reading, or mapping a trace file, verifying a section
/// checksum, borrowing a persisted view index, dispatching a pool task —
/// and tests arm the injector to force those failures deterministically.
///
/// The design mirrors Telemetry: one registry singleton, a relaxed-atomic
/// armed flag, and static one-liner entry points that cost a single
/// relaxed load while disarmed (the default), so shipping the hooks in
/// release builds is free.
///
/// Decisions are a pure function of (seed, site, per-site occurrence
/// index): re-arming with the same seed replays the exact same fault
/// schedule, which is what makes injected-failure tests and the
/// trace_fuzz harness reproducible. Occurrence indices are counted with
/// relaxed atomics, so schedules are deterministic per site as long as
/// the hook is reached in a deterministic order (true for all current
/// sites except PoolDispatch, which only stalls and never fails).
///
//===----------------------------------------------------------------------===//

#ifndef RPRISM_ROBUSTNESS_FAULTINJECTOR_H
#define RPRISM_ROBUSTNESS_FAULTINJECTOR_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace rprism {

/// Hook points in the ingestion pipeline where faults can be injected.
enum class FaultSite : unsigned {
  FileOpen,        ///< open()/fopen() of a trace file fails (EIO-like).
  FileRead,        ///< A buffered read returns short / flips bits.
  FileMmap,        ///< mmap() fails; loader must fall back to the arena.
  SectionChecksum, ///< A section checksum verify reports a mismatch.
  ViewIndexBorrow, ///< Borrowing the persisted view index fails.
  PoolDispatch,    ///< ThreadPool task dispatch stalls (scheduling jitter).
};

inline constexpr unsigned NumFaultSites = 6;

/// Printable site name ("file-open", "view-index-borrow", ...).
const char *faultSiteName(FaultSite Site);

/// The registry. All hooks are static and no-ops (one relaxed load) while
/// disarmed. Tests arm it with a seed, configure per-site probabilities or
/// one-shot occurrence indices, run the code under test, and disarm.
class FaultInjector {
public:
  static FaultInjector &get();

  static bool enabled() {
    return get().Armed.load(std::memory_order_relaxed);
  }

  /// Arms the injector with a deterministic seed and clears all per-site
  /// configuration and counts. Not thread-safe against in-flight hooks;
  /// arm/disarm from quiescent points only (tests, harness setup).
  void arm(uint64_t Seed);

  /// Disarms and clears configuration; hooks return to free no-ops.
  void disarm();

  /// Configures one site: \p Probability in [0, 1] makes a seeded
  /// pseudo-random fraction of occurrences fire; \p OneShotAt >= 0 makes
  /// exactly that occurrence index fire (in addition to the probability).
  void configure(FaultSite Site, double Probability, int64_t OneShotAt = -1);

  /// Stall duration for maybeStall() hits, in microseconds.
  void setStallMicros(unsigned Micros) { StallMicros = Micros; }

  /// Arms and configures from a textual spec — the `--fault-spec`
  /// surface. Comma-separated clauses:
  ///
  ///   seed=N              arm seed (default 0)
  ///   stall=MICROS        stall duration for pool-dispatch hits
  ///   <site>:<prob>       per-site fire probability in [0, 1]
  ///   <site>:<prob>@<N>   additionally fire exactly occurrence N
  ///
  /// Site names are faultSiteName()'s ("file-open", "file-read",
  /// "file-mmap", "section-checksum", "view-index-borrow",
  /// "pool-dispatch"). Example:
  ///   seed=7,file-read:0.01,section-checksum:0@2,stall=100
  /// On success the injector is armed exactly as arm()+configure() calls
  /// would leave it. On a malformed spec nothing is armed, false is
  /// returned, and \p Error (when non-null) gets a one-line diagnostic.
  bool armFromSpec(const std::string &Spec, std::string *Error = nullptr);

  /// Times the site hook was reached while armed / times it fired.
  uint64_t occurrences(FaultSite Site) const;
  uint64_t injected(FaultSite Site) const;

  // -- Hooks (static so call sites stay one-liners) ------------------------

  /// Returns true when the site should fail this occurrence.
  static bool fire(FaultSite Site) {
    if (!enabled())
      return false;
    return get().fireSlow(Site);
  }

  /// Flips one seeded bit of [Data, Data+Size) when the site fires;
  /// returns true if a flip happened. Used to model in-flight data
  /// corruption that downstream checksums must catch.
  static bool corruptByte(FaultSite Site, void *Data, size_t Size) {
    if (!enabled())
      return false;
    return get().corruptSlow(Site, Data, Size);
  }

  /// Sleeps for the configured stall when the site fires. Models
  /// scheduling jitter; never fails the operation.
  static void maybeStall(FaultSite Site) {
    if (!enabled())
      return;
    get().stallSlow(Site);
  }

private:
  struct SiteState {
    std::atomic<uint64_t> Occurrences{0};
    std::atomic<uint64_t> Injected{0};
    double Probability = 0.0;
    int64_t OneShotAt = -1;
  };

  FaultInjector() = default;

  bool fireSlow(FaultSite Site);
  bool corruptSlow(FaultSite Site, void *Data, size_t Size);
  void stallSlow(FaultSite Site);

  /// Deterministic per-decision hash of (seed, site, occurrence).
  uint64_t decisionHash(FaultSite Site, uint64_t Occurrence) const;

  std::atomic<bool> Armed{false};
  uint64_t Seed = 0;
  unsigned StallMicros = 50;
  SiteState Sites[NumFaultSites];
};

/// RAII arm/disarm for tests: arms with \p Seed on construction, disarms
/// on destruction so a failing test cannot leak an armed injector into
/// later tests.
class ScopedFaultInjection {
public:
  explicit ScopedFaultInjection(uint64_t Seed) {
    FaultInjector::get().arm(Seed);
  }
  ~ScopedFaultInjection() { FaultInjector::get().disarm(); }

  ScopedFaultInjection(const ScopedFaultInjection &) = delete;
  ScopedFaultInjection &operator=(const ScopedFaultInjection &) = delete;
};

} // namespace rprism

#endif // RPRISM_ROBUSTNESS_FAULTINJECTOR_H
