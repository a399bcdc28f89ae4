//===- support/MetricsSink.h - Telemetry export (JSON + profile table) ----===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The export side of the telemetry layer: one machine-readable JSON
/// schema shared by `rprism --metrics-out`, the bench harnesses, and CI
/// artifact checks, plus a human-readable stage/metric table for
/// `rprism --profile`.
///
/// JSON schema (kMetricsSchema):
///
///   {
///     "schema":   "rprism-metrics-v1",
///     "tool":     "rprism",            // or "bench_fig14", ...
///     "command":  "diff",              // subcommand / config label
///     "wall_ns":  123456789,           // caller-measured wall time
///     "spans": [                       // sorted by path
///       {"path": "diff/views-diff/web-build", "name": "web-build",
///        "parent": "diff/views-diff", "count": 2,
///        "total_ns": 1234, "self_ns": 456}, ...
///     ],
///     "counters":   {"diff.compare_ops": 15918, ...},  // deterministic
///     "gauges":     {"pool.busy_ns": 1e6, ...},        // timing-class
///     "histograms": {"diff.sequence_entries":
///                      {"total": 7, "p50": 4, "p95": 16, "p99": 16,
///                       "buckets": [{"le": "4", "count": 3}, ...]}}
///   }
///
/// Histogram quantiles are bucket-bound estimates (Histogram::quantile):
/// deterministic like the bucket counts, so the metrics-diff gate can
/// compare them with zero tolerance.
///
/// Counters (and histogram buckets) are jobs-invariant by contract; spans
/// and gauges carry timings and scheduling detail that legitimately vary
/// between runs and `--jobs` values.
///
//===----------------------------------------------------------------------===//

#ifndef RPRISM_SUPPORT_METRICSSINK_H
#define RPRISM_SUPPORT_METRICSSINK_H

#include "support/Telemetry.h"

#include <string>

namespace rprism {

/// Schema identifier stamped into every metrics JSON document.
inline constexpr const char *kMetricsSchema = "rprism-metrics-v1";

/// Run identification carried alongside the snapshot.
struct MetricsRunInfo {
  std::string Tool = "rprism";
  std::string Command;     ///< Subcommand or bench configuration label.
  uint64_t WallNanos = 0;  ///< Wall time of the whole run, caller-measured.
};

/// Renders the stable JSON document described in the file comment.
std::string renderMetricsJson(const TelemetrySnapshot &Snap,
                              const MetricsRunInfo &Info);

/// Writes renderMetricsJson output to \p Path; false on I/O failure.
bool writeMetricsJson(const TelemetrySnapshot &Snap,
                      const MetricsRunInfo &Info, const std::string &Path);

/// Human-readable profile: a stage table (sorted by self-time, descending)
/// followed by counters, gauges, and non-empty histograms. \p MaxStages
/// limits the stage table to the top N rows by self time (0 = all) with
/// an elision footer; `rprism --profile` passes a small cap so the table
/// fits a terminal.
std::string renderProfileTable(const TelemetrySnapshot &Snap,
                               size_t MaxStages = 0);

} // namespace rprism

#endif // RPRISM_SUPPORT_METRICSSINK_H
