//===- analysis/Regression.cpp --------------------------------------------===//

#include "analysis/Regression.h"

#include "cache/DiffCache.h"
#include "support/Bitset.h"
#include "support/Hashing.h"
#include "support/Telemetry.h"

#include <optional>
#include <sstream>
#include <vector>

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

/// A multiset of content keys: one open-addressing table (power-of-two
/// size, linear probing), sized once for the most keys it will hold so it
/// never grows and stays at most half full. A key's slot stays claimed
/// when its count is consumed to 0, so probe runs never break.
class KeyCounts {
public:
  explicit KeyCounts(uint64_t MaxKeys) {
    size_t Size = 16;
    while (Size < 2 * MaxKeys)
      Size *= 2;
    Slots.resize(Size);
  }

  void add(uint64_t Key) {
    Slot &S = probe(Key);
    S.Key = Key;
    S.Used = 1;
    ++S.Count;
  }

  /// Removes one occurrence of \p Key; false when none is left.
  bool consume(uint64_t Key) {
    Slot &S = probe(Key);
    if (S.Count == 0)
      return false;
    --S.Count;
    return true;
  }

  /// Starts loading \p Key's home slot. The table is larger than the
  /// cache and keys land at random, so a probe issued without this waits
  /// for memory.
  void prefetch(uint64_t Key) const {
    __builtin_prefetch(&Slots[Key & (Slots.size() - 1)]);
  }

private:
  struct Slot {
    uint64_t Key = 0;
    uint32_t Count = 0;
    uint32_t Used = 0;
  };

  /// The slot holding \p Key, or the free slot where it would go. Keys
  /// are hashMix outputs, so their low bits index the table directly.
  Slot &probe(uint64_t Key) {
    size_t Mask = Slots.size() - 1;
    size_t I = Key & Mask;
    while (Slots[I].Used && Slots[I].Key != Key)
      I = (I + 1) & Mask;
    return Slots[I];
  }

  std::vector<Slot> Slots;
};

/// How many keys ahead a table pass prefetches.
constexpr size_t PrefetchAhead = 16;

/// The differing entries of one side of a diff (the clear bits of
/// \p Similar, found a word at a time), in eid order, with their content
/// keys. Computing every key before the table pass lets that pass
/// prefetch ahead.
struct SideDiffs {
  std::vector<uint32_t> Eids;
  std::vector<uint64_t> Keys;

  SideDiffs(const Trace &T, const Bitset &Similar, bool NewSide) {
    Similar.forEachClear([&](size_t Eid) {
      Eids.push_back(static_cast<uint32_t>(Eid));
      Keys.push_back(diffContentKey(T, static_cast<uint32_t>(Eid), NewSide));
    });
  }

  /// Prefetches, in \p Table, the slot of the key PrefetchAhead places
  /// after key \p I; a pass calls this once per key.
  void prefetchAhead(const KeyCounts &Table, size_t I) const {
    if (I + PrefetchAhead < Keys.size())
      Table.prefetch(Keys[I + PrefetchAhead]);
  }

  void addTo(KeyCounts &Table) const {
    for (size_t I = 0; I != Keys.size(); ++I) {
      prefetchAhead(Table, I);
      Table.add(Keys[I]);
    }
  }
};

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
  KeyCounts Expected(Report.sizeB);
  SideDiffs(*Report.B.Left, Report.B.LeftSimilar, /*NewSide=*/false)
      .addTo(Expected);
  SideDiffs(*Report.B.Right, Report.B.RightSimilar, /*NewSide=*/true)
      .addTo(Expected);

  // ---- ∩ C (or - C): C's differences on the new/regr run, as a content-
  // key multiset. A and C flag the same *semantic* difference but not
  // necessarily the same entry instance (the two diffs align the shared
  // run against different partners), so membership is by content key, with
  // an exact-entry-id fast path. Original-side differences cannot appear
  // in C.
  const bool Removal = Options.CodeRemoval;
  KeyCounts RegrKeys(Report.sizeC);
  SideDiffs(*Report.C.Right, Report.C.RightSimilar, /*NewSide=*/true)
      .addTo(RegrKeys);
  auto InC = [&Report, &RegrKeys](uint32_t Eid, uint64_t Key) {
    if (Eid < Report.C.RightSimilar.size() && !Report.C.RightSimilar[Eid])
      return true; // Same entry of the shared new/regr run.
    return RegrKeys.consume(Key); // Consumes one matching C difference.
  };

  // Each A difference consumes one expected occurrence (B) or survives,
  // left side first, each side in eid order.
  const SideDiffs Left(*Report.A.Left, Report.A.LeftSimilar, false);
  for (size_t I = 0; I != Left.Keys.size(); ++I) {
    Left.prefetchAhead(Expected, I);
    // Orig-side differences: dropped by ∩C, kept by -C.
    if (!Expected.consume(Left.Keys[I]))
      Report.DLeft[Left.Eids[I]] = Removal;
  }
  const SideDiffs Right(*Report.A.Right, Report.A.RightSimilar, true);
  for (size_t I = 0; I != Right.Keys.size(); ++I) {
    Right.prefetchAhead(Expected, I);
    Right.prefetchAhead(RegrKeys, I);
    uint32_t Eid = Right.Eids[I];
    uint64_t Key = Right.Keys[I];
    if (!Expected.consume(Key))
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
