//===- perfbench/Programs.h - Seeded program pairs for the benchmark ------===//
///
/// \file
/// Each workload compares two versions of one program. The versions and
/// their inputs are a pure function of the workload and the seed, so the
/// same seed always yields the same traces. Trace sizes and the amount of
/// difference never depend on the seed, which keeps timings comparable
/// across seeds.
///
//===----------------------------------------------------------------------===//

#ifndef RPRISM_PERFBENCH_PROGRAMS_H
#define RPRISM_PERFBENCH_PROGRAMS_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class WorkloadKind { CorpusOnDisk, ThreadsChurn, ObjectsRegress };

/// Parses a workload name ("corpus-ondisk", ...); false when unknown.
bool parseWorkload(const std::string &Name, WorkloadKind &Kind);

struct ProgramPair {
  std::string OldSource;
  std::string NewSource;
  /// String inputs. The generator corpus reads none; objects-regress runs
  /// each version on an ok input and on a regressing input (the `rprism
  /// analyze --ok-input/--regr-input` shape).
  std::vector<std::string> OkInputs;
  std::vector<std::string> RegrInputs;
};

/// The version pair of \p Kind for \p Seed: 2.0M entries per side for the
/// generator corpus workloads, ~1.0M per trace for objects-regress.
ProgramPair makePrograms(WorkloadKind Kind, uint64_t Seed);

} // namespace perfbench

#endif // RPRISM_PERFBENCH_PROGRAMS_H
