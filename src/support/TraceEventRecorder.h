//===- support/TraceEventRecorder.h - Per-thread timeline event rings -----===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The timeline layer of the observability stack: where Telemetry
/// aggregates (how much time per stage, summed), this recorder keeps the
/// *sequence* — per-thread rings of begin/end/instant/counter/flow events
/// with nanosecond timestamps, exported as Chrome trace-event JSON that
/// loads in Perfetto / chrome://tracing. It answers the questions the
/// aggregates cannot: where inside a run did the time go per thread, did
/// the ThreadPool actually overlap web builds with lane gathers, and what
/// did memory/queue pressure look like while it happened.
///
/// Design mirrors Telemetry's cost contract:
///
///   - *Zero-cost disarmed*: every emit entry point is a single relaxed
///     atomic load when the recorder is disarmed (the default). No
///     allocation, no locks, no thread registration.
///   - *Lock-free armed*: each thread writes into its own preallocated
///     ring buffer (registered once under a mutex, owned by the
///     singleton); no locks or allocations on the emit path after a
///     thread's first event. A full ring overwrites its oldest events
///     (flight-recorder semantics) and counts the drops.
///   - *Literal names only*: events store `const char *` name/category
///     pointers, so all emit sites must pass string literals (the same
///     contract TelemetrySpan already has). This is what keeps the hot
///     path allocation-free.
///
/// Event sources:
///
///   - TelemetrySpan emits begin/end pairs (every existing span site in
///     the pipeline gets timeline coverage for free).
///   - ThreadPool::submit emits flow events (ph "s" on the submitter,
///     ph "f" on the worker, shared id) plus a "pool.task" slice around
///     task execution, so cross-thread work is visually stitched.
///   - A lightweight sampler thread (started by arm() when the period is
///     non-zero) emits counter events: resident set size, CPU time and
///     pool queue depth. It samples once immediately on arm so even
///     sub-period runs get counter tracks.
///
/// Export must happen while no instrumented work is in flight (after
/// pool waits / disarm), the same quiescence rule Telemetry::snapshot()
/// has.
///
//===----------------------------------------------------------------------===//

#ifndef RPRISM_SUPPORT_TRACEEVENTRECORDER_H
#define RPRISM_SUPPORT_TRACEEVENTRECORDER_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace rprism {

namespace detail {
struct EventRing;
} // namespace detail

/// One recorded timeline event. Name/Cat are borrowed string literals.
struct TimelineEvent {
  enum class Kind : uint8_t {
    Begin,     ///< ph "B": opens a duration slice on this thread.
    End,       ///< ph "E": closes the innermost open slice.
    Instant,   ///< ph "i": a point-in-time marker.
    Counter,   ///< ph "C": a sampled value (one counter track per name).
    FlowStart, ///< ph "s": flow arrow tail (submitting thread).
    FlowEnd,   ///< ph "f": flow arrow head (executing thread).
  };
  Kind K = Kind::Instant;
  const char *Name = "";
  const char *Cat = "";
  uint64_t TsNanos = 0; ///< Telemetry::nowNanos() at emit time.
  uint64_t Id = 0;      ///< Flow id (FlowStart/FlowEnd only).
  double Value = 0;     ///< Counter value (Counter only).
};

/// Recorder configuration, fixed at arm() time.
struct TraceEventRecorderOptions {
  /// Ring capacity per thread, in events. A full ring overwrites its
  /// oldest events and counts the drops.
  size_t RingCapacity = size_t{1} << 17;
  /// Resource-sampler cadence in microseconds; 0 disables the sampler.
  uint64_t SamplePeriodMicros = 1000;
};

/// The process-wide timeline recorder. All emit entry points are static
/// and no-ops (one relaxed load) while disarmed.
class TraceEventRecorder {
public:
  static TraceEventRecorder &get();
  static bool armed() {
    return get().ArmedFlag.load(std::memory_order_relaxed);
  }

  /// Clears all rings, applies \p Options, starts the sampler (if the
  /// period is non-zero), and begins recording. The calling thread is
  /// named "main" in the export. Only call while no instrumented work
  /// runs.
  void arm(const TraceEventRecorderOptions &Options = {});

  /// Stops recording and joins the sampler. Recorded events stay
  /// available for export until the next arm().
  void disarm();

  // -- Emitters (static so call sites stay one-liners) ---------------------
  // All Name/Cat arguments must be string literals (or otherwise outlive
  // the recorder window); only pointers are stored.
  static void begin(const char *Name, const char *Cat = "stage");
  static void end(const char *Name, const char *Cat = "stage");
  static void instant(const char *Name, const char *Cat = "stage");
  static void counter(const char *Name, double Value);
  /// Emits a flow tail on this thread and returns the id to pass to
  /// flowEnd() on the executing thread. Returns 0 when disarmed.
  static uint64_t flowBegin(const char *Name);
  static void flowEnd(const char *Name, uint64_t Id);

  /// Names the calling thread's lane in the export ("main",
  /// "pool-worker", ...). First writer wins; later calls are no-ops, so
  /// per-task call sites stay cheap.
  static void setThreadName(const char *Name);

  /// Tracks the process-wide count of queued-not-yet-running pool tasks,
  /// sampled as the "pool.queue_depth" counter. No-op when disarmed.
  static void poolQueueAdd(int64_t Delta);

  // -- Introspection (test hooks) and export -------------------------------
  /// Events currently retained across all rings.
  uint64_t eventCount() const;
  /// Events lost to ring overwrites since arm().
  uint64_t droppedCount() const;
  /// Per-thread rings ever registered (pins the disarmed-mode
  /// zero-allocation contract, like Telemetry::numThreadRecords).
  size_t numThreadBuffers() const;

  /// Renders the Chrome trace-event JSON document:
  ///   {"traceEvents": [...], "displayTimeUnit": "ms", "otherData": {...}}
  /// Timestamps are microseconds relative to arm(). Call only after
  /// instrumented work has quiesced (after disarm()).
  std::string renderChromeTrace() const;

  /// Writes renderChromeTrace() to \p Path; false on I/O failure.
  bool writeChromeTrace(const std::string &Path) const;

private:
  TraceEventRecorder() = default;

  /// The calling thread's ring, created and registered on first use.
  static detail::EventRing &threadRing();

  void samplerLoop(uint64_t PeriodMicros);

  std::atomic<bool> ArmedFlag{false};
  std::atomic<uint64_t> NextFlowId{1};
  std::atomic<int64_t> PoolQueueDepth{0};
  uint64_t ArmNanos = 0;
  size_t RingCapacity = TraceEventRecorderOptions().RingCapacity;

  mutable std::mutex Mutex;
  std::vector<std::unique_ptr<detail::EventRing>> Rings;

  std::thread Sampler;
  std::atomic<bool> SamplerStop{false};
};

} // namespace rprism

#endif // RPRISM_SUPPORT_TRACEEVENTRECORDER_H
