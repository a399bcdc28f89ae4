//===- diff/NWayDiff.cpp --------------------------------------------------===//

#include "diff/NWayDiff.h"

#include "support/LaneScan.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <algorithm>
#include <map>
#include <optional>
#include <sstream>

using namespace rprism;

namespace {

/// Cluster-key label of a difference sequence: the dominant method (and up
/// to two touched objects) of whichever side is non-empty, *without* the
/// per-mutant -x/+y counts summarizeSequence appends — mutants diverging
/// at the same baseline site must produce the same string. Baseline
/// entries dominate when present (shared eids cluster exactly); pure
/// insertions fall back to the mutant side, whose method symbols are
/// interner-shared, so equal insertions still cluster.
std::string siteLabel(const Trace &Base, const Trace &Mutant,
                      const DiffSequence &Seq) {
  SequenceSites Sites;
  if (!Seq.LeftEids.empty())
    Sites.add(Base, Seq.LeftEids);
  else
    Sites.add(Mutant, Seq.RightEids);
  if (Sites.empty())
    return "(empty sequence)";
  std::ostringstream OS;
  OS << "in " << Base.Strings->text(Sites.dominantMethod());
  Sites.printObjects(OS, Base, 2);
  return OS.str();
}

/// Lane-level agreement scan of one mutant: checks every correlated
/// thread-view pair's lanes with the lane kernels. Sets
/// \p Identical when every pair (and every thread view, both sides)
/// verifies bit-identical; returns the first divergence otherwise.
std::optional<LaneDivergence>
scanLanes(const ViewWeb &BaseWeb, const BaselineLanes &Lanes,
          const ViewWeb &MutWeb, const ViewCorrelation &X, bool &Identical) {
  const Trace &MT = MutWeb.trace();
  std::optional<LaneDivergence> First;
  size_t PairedBase = 0;
  size_t PairedMut = 0;
  bool AllEqual = true;
  std::vector<uint64_t> MutStorage; // Gathered mutant lanes, one at a time.
  for (const auto &[L, R] : X.threadPairs()) {
    ++PairedBase;
    ++PairedMut;
    const std::vector<uint64_t> *BaseLane = Lanes.lane(L);
    if (!BaseLane) {
      AllEqual = false; // No fingerprints: nothing to verify against.
      continue;
    }
    const View &RV = MutWeb.view(R);
    const uint64_t *MutLane = threadLane(MT, RV, MutStorage);
    size_t Common = std::min(BaseLane->size(), RV.size());
    // Run-boundary verify: one whole-lane equality scan answers the
    // common case (mutant thread untouched).
    if (BaseLane->size() == RV.size() &&
        lanesEqual(BaseLane->data(), MutLane, Common))
      continue;
    AllEqual = false;
    if (First)
      continue; // Only the earliest pair's divergence is reported.
    size_t K = laneMatchRun(BaseLane->data(), MutLane, Common);
    LaneDivergence D;
    D.Tid = BaseWeb.view(L).Tid;
    D.Position = K;
    // Length of the all-differing run at the divergence point — how far
    // the traces stay in contention before any re-sync candidate.
    D.RunLen = K < Common ? laneMismatchRun(BaseLane->data() + K,
                                            MutLane + K, Common - K)
                          : 0;
    First = D;
  }
  Identical = AllEqual && PairedBase == BaseWeb.numThreadViews() &&
              PairedMut == MutWeb.numThreadViews() &&
              BaseWeb.numThreadViews() > 0;
  return First;
}

} // namespace

uint64_t NWayResult::totalCompareOps() const {
  uint64_t Total = 0;
  for (const NWayMutantReport &M : Mutants)
    Total += M.Result.Stats.CompareOps;
  return Total;
}

std::string NWayResult::render(size_t MaxClusters) const {
  std::ostringstream OS;
  OS << "variational diff: 1 baseline (" << (Base ? Base->size() : 0)
     << " entries) vs " << Mutants.size() << " mutant(s): " << NumAgreeing
     << " agree, " << (Mutants.size() - NumAgreeing) << " diverge in "
     << Clusters.size() << " cluster(s)\n";
  size_t Shown = 0;
  for (const NWayCluster &C : Clusters) {
    if (Shown++ == MaxClusters) {
      OS << "  ... (" << (Clusters.size() - MaxClusters)
         << " more clusters)\n";
      break;
    }
    OS << "  cluster #" << Shown - 1 << " (thread " << C.SiteTid;
    if (C.SiteEid != UINT32_MAX)
      OS << ", first eid " << C.SiteEid;
    OS << ") " << C.Site << ": mutant";
    if (C.Mutants.size() > 1)
      OS << 's';
    for (size_t M : C.Mutants)
      OS << " #" << M;
    OS << '\n';
  }
  for (const NWayMutantReport &M : Mutants) {
    OS << "  mutant #" << M.Index << ": ";
    if (M.Agrees) {
      OS << "agrees with baseline";
      if (M.LanesIdentical)
        OS << " (lanes bit-identical)";
    } else {
      OS << M.Result.numDiffs() << " difference(s) in "
         << M.Result.Sequences.size() << " sequence(s), diverges " << M.Site;
      if (M.FirstDivergence)
        OS << " [lane: thread " << M.FirstDivergence->Tid << " pos "
           << M.FirstDivergence->Position << " run "
           << M.FirstDivergence->RunLen << "]";
    }
    OS << '\n';
  }
  return OS.str();
}

NWayResult rprism::nwayDiff(const Trace &Base,
                            const std::vector<const Trace *> &Mutants,
                            const ViewsDiffOptions &Options) {
  TelemetrySpan Span("nway-diff");
  Timer Clock;

  NWayResult Result;
  Result.Base = &Base;
  Result.Mutants.reserve(Mutants.size());

  // One pool for the whole study, sized by the largest single diff (the
  // adaptive cutoff may clamp it to the sequential path — results are
  // identical either way per the jobs-determinism contract).
  size_t MaxMutantSize = 0;
  for (const Trace *M : Mutants)
    MaxMutantSize = std::max(MaxMutantSize, M->size());
  unsigned Jobs = effectiveDiffJobs(Options, Base.size() + MaxMutantSize);
  Telemetry::gaugeMax("diff.effective_jobs", static_cast<double>(Jobs));
  ThreadPool Pool(Jobs);

  // The hoisted baseline work: web built once, lanes gathered once. Every
  // per-mutant evaluation reuses both (counted as lane.shared_hit).
  const ViewWeb BaseWeb(Base, &Pool, Options.UseViewIndex);
  BaselineLanes Lanes(BaseWeb);
  Result.SharedLaneBytes = Lanes.bytes();

  for (size_t M = 0; M != Mutants.size(); ++M) {
    const Trace &MT = *Mutants[M];
    const ViewWeb MutWeb(MT, &Pool, Options.UseViewIndex);
    const ViewCorrelation X(BaseWeb, MutWeb);

    NWayMutantReport Report;
    Report.Index = M;
    Report.Result = viewsDiff(BaseWeb, MutWeb, X, Options, &Pool, &Lanes);
    Report.Agrees =
        Report.Result.Sequences.empty() && Report.Result.numDiffs() == 0;
    Report.FirstDivergence =
        scanLanes(BaseWeb, Lanes, MutWeb, X, Report.LanesIdentical);

    if (!Report.Agrees && !Report.Result.Sequences.empty()) {
      const DiffSequence &First = Report.Result.Sequences.front();
      Report.Site = siteLabel(Base, MT, First);
      Report.SiteTid = First.LeftTid;
      Report.SiteEid =
          First.LeftEids.empty() ? UINT32_MAX : First.LeftEids.front();
    }
    Result.Mutants.push_back(std::move(Report));
  }

  // Cluster divergent mutants by first-divergence site, ordered by the
  // site's baseline position (thread, then eid, then label).
  std::map<std::tuple<uint32_t, uint32_t, std::string>, NWayCluster>
      ByKey;
  for (const NWayMutantReport &M : Result.Mutants) {
    if (M.Agrees) {
      ++Result.NumAgreeing;
      continue;
    }
    NWayCluster &C = ByKey[{M.SiteTid, M.SiteEid, M.Site}];
    C.Site = M.Site;
    C.SiteTid = M.SiteTid;
    C.SiteEid = M.SiteEid;
    C.Mutants.push_back(M.Index);
  }
  Result.Clusters.reserve(ByKey.size());
  for (auto &[Key, C] : ByKey)
    Result.Clusters.push_back(std::move(C));

  Result.Seconds = Clock.seconds();
  if (Telemetry::enabled()) {
    Telemetry::counterAdd("nway.mutants", Mutants.size());
    Telemetry::counterAdd("nway.agree", Result.NumAgreeing);
    Telemetry::counterAdd("nway.divergent",
                          Mutants.size() - Result.NumAgreeing);
    Telemetry::counterAdd("nway.clusters", Result.Clusters.size());
    Telemetry::gaugeMax("nway.shared_lane_bytes",
                        static_cast<double>(Result.SharedLaneBytes));
  }
  return Result;
}
