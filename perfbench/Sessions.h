//===- perfbench/Sessions.h - One user session per workload ---------------===//
///
/// \file
/// A session is what a user does at the shell for one comparison: compile
/// and record both versions, then turn the traces into the rendered
/// report. Every session starts cold, like a fresh `rprism` process: new
/// string interners, a new DiffCache, and traces freed before it returns.
///
///   corpus-ondisk    rprism run --trace (x2), then rprism diff-traces
///   threads-churn    rprism diff (in memory)
///   objects-regress  rprism analyze (in memory, four runs)
///
/// The untraced session calls the same public functions the CLI does. The
/// traced session makes the calls those wrappers make one layer down
/// (trace load, view webs, correlation, evaluation), each inside a span,
/// and then runs probes outside the session's time: the layers a workload
/// bypasses, the cache wrapper, and analyzeRegression without its cache.
///
//===----------------------------------------------------------------------===//

#ifndef RPRISM_PERFBENCH_SESSIONS_H
#define RPRISM_PERFBENCH_SESSIONS_H

#include "Programs.h"
#include "Spans.h"

#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Workload {
  WorkloadKind Kind = WorkloadKind::CorpusOnDisk;
  ProgramPair Programs;
  std::string WorkDir; ///< Where trace files go; created by the caller.
};

/// What a session produced, compared against the set-up's reference.
/// Every field is exactly reproducible for a given seed, for any --jobs.
struct Outcome {
  uint64_t ReportDigest = 0; ///< FNV-1a of the rendered report.
  uint64_t OutputDigest = 0; ///< FNV-1a of the programs' outputs.
  uint64_t CompareOps = 0;
  uint64_t Differences = 0; ///< Entries not in Pi, over every diff.
  uint64_t Sequences = 0;
  uint64_t SizeA = 0, SizeB = 0, SizeC = 0, SizeD = 0; ///< analyze only.
  uint64_t RegressionSequences = 0;

  bool operator==(const Outcome &) const = default;
  std::string describe() const;
};

/// Set-up: records every trace in memory, checks the program outputs,
/// that each trace diffed against itself has no differences and (for
/// on-disk traces) that each reloads equal to the recorded one, and
/// returns the reference outcome computed at Jobs = 1 without the cache.
/// Throws std::runtime_error when a check fails.
Outcome computeReference(const Workload &W);

struct SessionTimes {
  double RecordS = 0;  ///< Compile, run, and write traces to disk.
  double DiffS = 0;    ///< Traces to rendered report, then teardown.
  double PeakRssMb = 0;
};

/// One untraced session on the CLI path. Throws std::runtime_error when
/// a step fails (the session then counts as failed).
Outcome runSession(const Workload &W, SessionTimes &Times);

/// Per-layer numbers of one traced session and its probes: layer times
/// in seconds ("views.web_s") and exact counts ("diff.compare_ops").
using LayerValues = std::map<std::string, double>;

/// One traced session: spans for session \p SessionId go to \p Log and
/// per-layer values to \p Values. Probe results that contradict the
/// determinism contract are appended to \p Problems.
Outcome runTracedSession(const Workload &W, uint32_t SessionId,
                         SpanLog &Log, LayerValues &Values,
                         std::vector<std::string> &Problems);

/// Resets the resident-set high-water mark to the current RSS.
void resetPeakRss();
/// The resident-set high-water mark since the last reset, in MiB.
double peakRssMb();

} // namespace perfbench

#endif // RPRISM_PERFBENCH_SESSIONS_H
