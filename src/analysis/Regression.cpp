//===- analysis/Regression.cpp --------------------------------------------===//

#include "analysis/Regression.h"

#include "cache/DiffCache.h"
#include "support/Hashing.h"
#include "support/Telemetry.h"

#include <optional>
#include <sstream>
#include <unordered_map>

using namespace rprism;

namespace {

/// Version-stable content key of one differing trace entry (read from the
/// columns). `SideTag` distinguishes original-version from new-version
/// differences when matching A against B.
uint64_t diffContentKey(const Trace &T, uint32_t Eid, bool NewSide) {
  uint64_t H = hashCombine(static_cast<uint64_t>(T.Kinds[Eid]),
                           T.Names[Eid].Id, NewSide ? 0x4eULL : 0x0aULL);
  // Target object: class plus version-stable identity.
  const ObjRepr &Target = T.target(Eid);
  H = hashMix(H, Target.ClassName.Id);
  H = hashMix(H, Target.HasRepr ? Target.ValueHash : Target.CreationSeq);
  const ValueRepr &Value = T.value(Eid);
  H = hashMix(H, static_cast<uint64_t>(Value.Kind));
  H = hashMix(H, Value.Hash);
  for (uint32_t I = 0, N = T.numArgs(Eid); I != N; ++I) {
    const ValueRepr &Arg = T.arg(Eid, I);
    H = hashMix(H, static_cast<uint64_t>(Arg.Kind));
    H = hashMix(H, Arg.Hash);
  }
  // Context: the executing method (not the receiver object — too volatile).
  H = hashMix(H, T.Methods[Eid].Id);
  return H;
}

/// Multiset of content keys of all differences in one diff result.
std::unordered_map<uint64_t, uint32_t> diffKeyCounts(const DiffResult &D) {
  std::unordered_map<uint64_t, uint32_t> Counts;
  for (uint32_t Eid = 0; Eid != D.LeftSimilar.size(); ++Eid)
    if (!D.LeftSimilar[Eid])
      ++Counts[diffContentKey(*D.Left, Eid, /*NewSide=*/false)];
  for (uint32_t Eid = 0; Eid != D.RightSimilar.size(); ++Eid)
    if (!D.RightSimilar[Eid])
      ++Counts[diffContentKey(*D.Right, Eid, /*NewSide=*/true)];
  return Counts;
}

DiffResult runDiff(const Trace &Left, const Trace &Right,
                   const RegressionOptions &Options, DiffCache *Cache) {
  if (Options.Engine == DiffEngineKind::Lcs)
    return lcsDiff(Left, Right, Options.Lcs);
  if (Cache)
    return cachedViewsDiff(Left, Right, Options.Views, *Cache);
  return viewsDiff(Left, Right, Options.Views);
}

} // namespace

RegressionReport rprism::analyzeRegression(const RegressionInputs &Inputs,
                                           const RegressionOptions &Options) {
  RegressionReport Report;
  // Scoped cache for the three diffs: its lifetime is contained in the
  // input traces', so the address-keyed web entries stay valid. NewRegr's
  // web carries from A into C and NewOk's from B into C — two of the six
  // web builds become hits.
  std::optional<DiffCache> Cache;
  if (Options.Engine == DiffEngineKind::Views && Options.UseDiffCache)
    Cache.emplace();
  DiffCache *CachePtr = Cache ? &*Cache : nullptr;
  {
    TelemetrySpan S("diff-a");
    Report.A = runDiff(*Inputs.OrigRegr, *Inputs.NewRegr, Options, CachePtr);
  }
  {
    TelemetrySpan S("diff-b");
    Report.B = runDiff(*Inputs.OrigOk, *Inputs.NewOk, Options, CachePtr);
  }
  {
    TelemetrySpan S("diff-c");
    Report.C = runDiff(*Inputs.NewOk, *Inputs.NewRegr, Options, CachePtr);
    Cache.reset(); // C is the last user: free the cached webs in its span.
  }
  TelemetrySpan CandidateSpan("candidate-set");

  Report.Stats.CompareOps = Report.A.Stats.CompareOps +
                            Report.B.Stats.CompareOps +
                            Report.C.Stats.CompareOps;
  Report.Stats.Seconds =
      Report.A.Stats.Seconds + Report.B.Stats.Seconds + Report.C.Stats.Seconds;
  Report.Stats.PeakBytes =
      std::max(std::max(Report.A.Stats.PeakBytes, Report.B.Stats.PeakBytes),
               Report.C.Stats.PeakBytes);
  Report.Stats.OutOfMemory = Report.A.Stats.OutOfMemory ||
                             Report.B.Stats.OutOfMemory ||
                             Report.C.Stats.OutOfMemory;
  Report.OutOfMemory = Report.Stats.OutOfMemory;

  Report.sizeA = Report.A.numDiffs();
  Report.sizeB = Report.B.numDiffs();
  Report.sizeC = Report.C.numDiffs();

  Report.DLeft.assign(Inputs.OrigRegr->size(), false);
  Report.DRight.assign(Inputs.NewRegr->size(), false);
  if (Report.OutOfMemory)
    return Report; // No candidate set computable.

  // ---- A - B: subtract expected differences by content key (multiset). --
  std::unordered_map<uint64_t, uint32_t> Expected = diffKeyCounts(Report.B);
  auto SurvivesB = [&Expected](uint64_t Key) {
    auto It = Expected.find(Key);
    if (It == Expected.end() || It->second == 0)
      return true;
    --It->second; // Consume one expected occurrence.
    return false;
  };

  // ---- ∩ C (or - C): C's differences on the new/regr run, as a content-
  // key multiset. A and C flag the same *semantic* difference but not
  // necessarily the same entry instance (the two diffs align the shared
  // run against different partners), so membership is by content key, with
  // an exact-entry-id fast path. Original-side differences cannot appear
  // in C.
  const bool Removal = Options.CodeRemoval;
  std::unordered_map<uint64_t, uint32_t> RegrKeys;
  for (uint32_t Eid = 0; Eid != Report.C.RightSimilar.size(); ++Eid)
    if (!Report.C.RightSimilar[Eid])
      ++RegrKeys[diffContentKey(*Report.C.Right, Eid, /*NewSide=*/true)];
  auto InC = [&Report, &RegrKeys](uint32_t Eid, uint64_t Key) {
    if (Eid < Report.C.RightSimilar.size() && !Report.C.RightSimilar[Eid])
      return true; // Same entry of the shared new/regr run.
    auto It = RegrKeys.find(Key);
    if (It == RegrKeys.end() || It->second == 0)
      return false;
    --It->second; // Consume one matching C difference.
    return true;
  };

  for (uint32_t Eid = 0; Eid != Report.DLeft.size(); ++Eid) {
    if (Report.A.LeftSimilar[Eid])
      continue;
    uint64_t Key = diffContentKey(*Report.A.Left, Eid, /*NewSide=*/false);
    if (!SurvivesB(Key))
      continue;
    // Orig-side differences: dropped by ∩C, kept by -C.
    Report.DLeft[Eid] = Removal;
  }
  for (uint32_t Eid = 0; Eid != Report.DRight.size(); ++Eid) {
    if (Report.A.RightSimilar[Eid])
      continue;
    uint64_t Key = diffContentKey(*Report.A.Right, Eid, /*NewSide=*/true);
    if (!SurvivesB(Key))
      continue;
    Report.DRight[Eid] = Removal ? !InC(Eid, Key) : InC(Eid, Key);
  }

  for (bool Flag : Report.DLeft)
    Report.sizeD += Flag;
  for (bool Flag : Report.DRight)
    Report.sizeD += Flag;

  // ---- Regression-related difference sequences of A. ----
  for (uint32_t I = 0; I != Report.A.Sequences.size(); ++I) {
    const DiffSequence &Seq = Report.A.Sequences[I];
    bool Related = false;
    for (uint32_t Eid : Seq.LeftEids)
      Related = Related || Report.DLeft[Eid];
    for (uint32_t Eid : Seq.RightEids)
      Related = Related || Report.DRight[Eid];
    if (Related)
      Report.RegressionSequences.push_back(I);
  }
  if (Telemetry::enabled()) {
    Telemetry::counterAdd("analyze.size_a", Report.sizeA);
    Telemetry::counterAdd("analyze.size_b", Report.sizeB);
    Telemetry::counterAdd("analyze.size_c", Report.sizeC);
    Telemetry::counterAdd("analyze.size_d", Report.sizeD);
    Telemetry::counterAdd("analyze.regression_sequences",
                          Report.RegressionSequences.size());
  }
  return Report;
}

std::string RegressionReport::render(size_t MaxSequences,
                                     size_t MaxEntries) const {
  std::ostringstream OS;
  OS << "regression analysis: |A|=" << sizeA << " |B|=" << sizeB
     << " |C|=" << sizeC << " |D|=" << sizeD << "\n"
     << A.Sequences.size() << " difference sequence(s), "
     << RegressionSequences.size() << " identified as regression-related\n";
  if (OutOfMemory) {
    OS << "(differencing ran out of memory; no candidate set)\n";
    return OS.str();
  }
  size_t Shown = 0;
  for (uint32_t Index : RegressionSequences) {
    if (Shown++ == MaxSequences) {
      OS << "  ...\n";
      break;
    }
    const DiffSequence &Seq = A.Sequences[Index];
    OS << "  regression sequence (thread " << Seq.LeftTid << "):\n";
    size_t N = 0;
    for (uint32_t Eid : Seq.LeftEids) {
      if (N++ == MaxEntries) {
        OS << "    - ...\n";
        break;
      }
      OS << "    - " << A.Left->renderEntry(Eid)
         << (DLeft[Eid] ? "   [D]" : "") << '\n';
    }
    N = 0;
    for (uint32_t Eid : Seq.RightEids) {
      if (N++ == MaxEntries) {
        OS << "    + ...\n";
        break;
      }
      OS << "    + " << A.Right->renderEntry(Eid)
         << (DRight[Eid] ? "   [D]" : "") << '\n';
    }
  }
  return OS.str();
}

RegressionScore
rprism::scoreReport(const RegressionReport &Report,
                    const std::vector<GroundTruthChange> &Truth) {
  RegressionScore Score;
  Score.ReportedSequences =
      static_cast<unsigned>(Report.RegressionSequences.size());

  auto EntryMatchesChange = [&](const Trace &T, uint32_t Eid, bool NewSide,
                                const GroundTruthChange &Change) {
    const auto &Nodes = NewSide ? Change.NewNodes : Change.OrigNodes;
    if (Nodes.count(T.Provs[Eid]))
      return true;
    if (Change.Methods.count(T.Strings->text(T.Methods[Eid])))
      return true;
    // A call/return naming the changed method also counts (the call site
    // observes the change).
    EventKind Kind = T.kind(Eid);
    if ((Kind == EventKind::Call || Kind == EventKind::Return) &&
        Change.Methods.count(T.Strings->text(T.Names[Eid])))
      return true;
    return false;
  };

  auto SequenceMatchesChange = [&](const DiffSequence &Seq,
                                   const GroundTruthChange &Change) {
    for (uint32_t Eid : Seq.LeftEids)
      if (EntryMatchesChange(*Report.A.Left, Eid, /*NewSide=*/false,
                             Change))
        return true;
    for (uint32_t Eid : Seq.RightEids)
      if (EntryMatchesChange(*Report.A.Right, Eid, /*NewSide=*/true,
                             Change))
        return true;
    return false;
  };

  std::vector<bool> ChangeCovered(Truth.size(), false);
  for (uint32_t Index : Report.RegressionSequences) {
    const DiffSequence &Seq = Report.A.Sequences[Index];
    bool MatchedCause = false;
    bool MatchedEffect = false;
    for (size_t CI = 0; CI != Truth.size(); ++CI) {
      if (!SequenceMatchesChange(Seq, Truth[CI]))
        continue;
      ChangeCovered[CI] = true;
      MatchedCause = MatchedCause || Truth[CI].RegressionRelated;
      MatchedEffect = MatchedEffect || Truth[CI].EffectRelated;
    }
    if (MatchedCause)
      ++Score.TruePositives;
    else if (MatchedEffect)
      ++Score.EffectRelated;
    else
      ++Score.FalsePositives;
  }
  for (size_t CI = 0; CI != Truth.size(); ++CI)
    if (Truth[CI].RegressionRelated && !ChangeCovered[CI])
      ++Score.FalseNegatives;
  return Score;
}
