//===- diff/ViewsDiff.cpp -------------------------------------------------===//

#include "diff/ViewsDiff.h"

#include "diff/Lcs.h"
#include "support/Bitset.h"
#include "support/LaneScan.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>

using namespace rprism;

namespace {

/// True when thread view \p V holds every entry of \p T. Thread views
/// partition their trace into strictly ascending lists, so such a view is
/// the identity range: position i holds eid i.
bool isIdentity(const View &V, const Trace &T) {
  return V.Entries.size() == T.size();
}

/// Gathers the fingerprints of \p V's entries into \p Lane, in view order.
void gatherLane(const Trace &T, const View &V, std::vector<uint64_t> &Lane) {
  Lane.resize(V.Entries.size());
  const uint64_t *Fps = T.Fps.data();
  for (size_t I = 0; I != Lane.size(); ++I)
    Lane[I] = Fps[V.Entries[I]];
}

/// Evaluates ONE correlated thread-view pair with fully isolated state:
/// its own similarity marks, anchor map, explored-pair dedup set, compare
/// counter, and difference sequences. Isolation is what makes thread-pair
/// evaluations independent tasks — with per-pair results merged in
/// correlation order, `--jobs N` produces the same DiffResult (and the
/// same total compare-op count) as `--jobs 1`, which runs the very same
/// per-pair code sequentially.
class PairEvaluator {
public:
  PairEvaluator(const ViewWeb &Left, const ViewWeb &Right,
                const ViewCorrelation &X, const ViewsDiffOptions &Options,
                const BaselineLanes *SharedLeft = nullptr)
      : LeftWeb(Left), RightWeb(Right), X(X), Options(Options),
        SharedLeft(SharedLeft), LT(Left.trace()), RT(Right.trace()) {
    LeftSimilar.assign(LT.size());
    RightSimilar.assign(RT.size());
  }

  void evalThreadPair(const View &LV, const View &RV);

  // -- Per-pair results, merged by viewsDiff() ----------------------------
  Bitset LeftSimilar;  ///< This pair's Pi, left side.
  Bitset RightSimilar; ///< This pair's Pi, right side.
  std::vector<DiffSequence> Sequences;
  std::unordered_map<uint32_t, uint32_t> Anchors; ///< left eid -> right eid.
  CompareCounter Ops;
  uint64_t RunSkips = 0;       ///< Fingerprint-lane runs consumed (telemetry).
  uint64_t SharedLaneHits = 0; ///< Left lanes served by SharedLeft.

private:
  bool eq(uint32_t LeftEid, uint32_t RightEid) {
    return eventEquals(LT, LeftEid, RT, RightEid, &Ops);
  }

  /// Records an exploration-produced similar pair: marks both sides and
  /// stores the anchor (anchors are queried ahead of the cursors by
  /// anchoredPair/findNextSync, so only exploration marks — which can land
  /// ahead — need the map).
  void markSimilar(uint32_t LeftEid, uint32_t RightEid) {
    markMatched(LeftEid, RightEid);
    Anchors[LeftEid] = RightEid;
  }

  /// Marks a pair matched at the cursors (STEP-VIEW-MATCH / sync points).
  /// The cursors advance past it immediately, so no anchor is stored —
  /// skipping the hash insert on the hot lock-step path.
  void markMatched(uint32_t LeftEid, uint32_t RightEid) {
    LeftSimilar.set(LeftEid);
    RightSimilar.set(RightEid);
  }

  /// Marks the entries at positions [Pos, Pos + K) of \p V similar: one
  /// eid range when \p V is the identity range, one bit per entry
  /// otherwise.
  static void markRun(Bitset &Similar, const View &V, bool Identity,
                      size_t Pos, size_t K) {
    if (Identity) {
      Similar.setRange(Pos, Pos + K);
      return;
    }
    for (size_t S = 0; S != K; ++S)
      Similar.set(V.Entries[Pos + S]);
  }

  bool anchoredPair(uint32_t LeftEid, uint32_t RightEid) const {
    auto It = Anchors.find(LeftEid);
    return It != Anchors.end() && It->second == RightEid;
  }

  bool sameSite(uint32_t LeftEid, uint32_t RightEid) const;
  void mergeAdjacentSequences(const View &LV, const View &RV);
  void exploreSecondary(const View &LV, const View &RV, size_t I, size_t J);
  void windowedLcs(const View &LSecondary, int64_t LPos,
                   const View &RSecondary, int64_t RPos);
  std::pair<size_t, size_t> findNextSync(const View &LV, const View &RV,
                                         size_t I, size_t J);
  void emitSequences(const View &LV, const View &RV, size_t LBegin,
                     size_t LEnd, size_t RBegin, size_t REnd);

  const ViewWeb &LeftWeb;
  const ViewWeb &RightWeb;
  const ViewCorrelation &X;
  const ViewsDiffOptions &Options;
  /// Pre-gathered left-side lanes (1-vs-N variational mode), or null.
  const BaselineLanes *SharedLeft;
  const Trace &LT;
  const Trace &RT;

  /// Contiguous per-view fingerprint lanes, gathered once per pair: lane
  /// position i holds the fingerprint of the view's i-th entry. The
  /// lock-step loop compares lanes, not entries — matched runs touch 8
  /// bytes per step instead of the entry payload. When SharedLeft serves
  /// the left view, or a view is the identity range (whose lane is the
  /// Fps column), the lane vector stays empty and the data pointer
  /// aliases that storage instead — the contents are identical either
  /// way.
  std::vector<uint64_t> LLane;
  std::vector<uint64_t> RLane;
  const uint64_t *LLaneData = nullptr;
  const uint64_t *RLaneData = nullptr;

  /// View pairs already explored at the current mismatch (dedup).
  std::unordered_set<uint64_t> ExploredPairs;
};

} // namespace

void PairEvaluator::windowedLcs(const View &LSecondary, int64_t LPos,
                                const View &RSecondary, int64_t RPos) {
  // win(gamma, delta): a fixed window of the secondary view centered on the
  // position of the linked entry.
  auto Window = [this](const View &V, int64_t Pos) {
    int64_t Begin = Pos - Options.Window;
    int64_t End = Pos + Options.Window + 1;
    if (Begin < 0)
      Begin = 0;
    if (End > static_cast<int64_t>(V.Entries.size()))
      End = static_cast<int64_t>(V.Entries.size());
    return EidSpan{V.Entries.data() + Begin,
                   static_cast<size_t>(End - Begin)};
  };
  EidSpan LSpan = Window(LSecondary, LPos);
  EidSpan RSpan = Window(RSecondary, RPos);
  LcsResult Lcs = lcsMatch(LT, LSpan, RT, RSpan, &Ops, nullptr);

  // Anchor only *runs* of consecutive matches (consecutive on both sides
  // of the window). An isolated match is usually a commonly-occurring
  // value pairing with an unrelated instance — precisely the
  // blind-correlation failure mode §3.2 attributes to raw LCS — while
  // moved blocks and gap bridges match as runs. Tiny windows cannot form
  // runs, so they keep their single matches.
  if (LSpan.Size <= 2 || RSpan.Size <= 2) {
    for (auto [L, R] : Lcs.Matches)
      markSimilar(L, R);
    return;
  }
  auto IndexIn = [](EidSpan Span, uint32_t Eid) {
    for (size_t K = 0; K != Span.Size; ++K)
      if (Span[K] == Eid)
        return static_cast<int64_t>(K);
    return int64_t{-1};
  };
  for (size_t K = 0; K != Lcs.Matches.size(); ++K) {
    auto [L, R] = Lcs.Matches[K];
    int64_t LIdx = IndexIn(LSpan, L);
    int64_t RIdx = IndexIn(RSpan, R);
    auto Adjacent = [&](size_t Other) {
      auto [OL, OR] = Lcs.Matches[Other];
      int64_t DL = IndexIn(LSpan, OL) - LIdx;
      int64_t DR = IndexIn(RSpan, OR) - RIdx;
      return DL == DR && (DL == 1 || DL == -1);
    };
    bool InRun = (K > 0 && Adjacent(K - 1)) ||
                 (K + 1 < Lcs.Matches.size() && Adjacent(K + 1));
    if (InRun)
      markSimilar(L, R);
  }
}

void PairEvaluator::exploreSecondary(const View &LV, const View &RV, size_t I,
                                     size_t J) {
  ExploredPairs.clear();
  int64_t Delta = Options.Delta;

  // Candidate entries within +-delta of each cursor (SIMILAR-FROM-LINKED-
  // VIEWS constrains gamma5/gamma6 to a constant distance from the
  // mismatching entries). Each candidate's linked-view list is computed
  // once up front — the nested loop below visits every (left, right)
  // candidate combination, and a per-combination viewsOf() was the
  // dominant allocation cost of exploration.
  struct Candidate {
    int64_t Offset;                ///< DL/DR relative to the cursor.
    uint32_t Eid;
    std::vector<uint32_t> ViewIds; ///< Views this entry belongs to.
  };
  auto Collect = [Delta](const ViewWeb &Web, const View &V, size_t Cursor) {
    std::vector<Candidate> Result;
    Result.reserve(2 * Delta + 1);
    for (int64_t D = -Delta; D <= Delta; ++D) {
      int64_t Pos = static_cast<int64_t>(Cursor) + D;
      if (Pos < 0 || Pos >= static_cast<int64_t>(V.Entries.size()))
        continue;
      uint32_t Eid = V.Entries[Pos];
      Result.push_back({D, Eid, Web.viewsOf(Eid)});
    }
    return Result;
  };
  std::vector<Candidate> LeftCands = Collect(LeftWeb, LV, I);
  std::vector<Candidate> RightCands = Collect(RightWeb, RV, J);

  for (const Candidate &LC : LeftCands) {
    int64_t DL = LC.Offset;
    uint32_t LeftEid = LC.Eid;

    for (const Candidate &RC : RightCands) {
      int64_t DR = RC.Offset;
      uint32_t RightEid = RC.Eid;

      for (uint32_t LViewId : LC.ViewIds) {
        const View &LSecondary = LeftWeb.view(LViewId);
        if (LSecondary.Type == ViewType::Thread)
          continue; // The thread view is the primary view itself.
        for (uint32_t RViewId : RC.ViewIds) {
          const View &RSecondary = RightWeb.view(RViewId);
          if (RSecondary.Type != LSecondary.Type)
            continue;

          // Matching views: correlated by X_nu, or — under the §5
          // relaxation — at the same distance from the current
          // known-correlated point (the cursors).
          bool Correlated =
              X.rightOf(LViewId) == static_cast<int32_t>(RViewId);
          bool Relaxed = Options.RelaxedCorrelation && DL == DR;
          if (!Correlated && !Relaxed)
            continue;

          uint64_t PairKey =
              (static_cast<uint64_t>(LViewId) << 32) | RViewId;
          if (!ExploredPairs.insert(PairKey).second)
            continue;

          int64_t LPos = ViewWeb::positionOf(LSecondary, LeftEid);
          int64_t RPos = ViewWeb::positionOf(RSecondary, RightEid);
          if (LPos < 0 || RPos < 0)
            continue;
          windowedLcs(LSecondary, LPos, RSecondary, RPos);
        }
      }
    }
  }
}

std::pair<size_t, size_t> PairEvaluator::findNextSync(const View &LV,
                                                      const View &RV,
                                                      size_t I, size_t J) {
  size_t N = LV.Entries.size();
  size_t M = RV.Entries.size();
  // Diagonal search: smallest total skip (A + B) such that the entries at
  // (I+A, J+B) are similar — equal under =e or anchored as a pair by the
  // secondary-view exploration. This realizes STEP-VIEW-NOMATCH's "skip up
  // to the next pair of similar entries" with the minimal-skip choice.
  for (size_t D = 1; D <= Options.ScanAhead; ++D) {
    for (size_t A = 0; A <= D; ++A) {
      size_t B = D - A;
      size_t LI = I + A;
      size_t RJ = J + B;
      if (LI >= N || RJ >= M)
        continue;
      uint32_t LeftEid = LV.Entries[LI];
      uint32_t RightEid = RV.Entries[RJ];
      if (eq(LeftEid, RightEid) || anchoredPair(LeftEid, RightEid))
        return {LI, RJ};
    }
    if (I + D >= N && J + D >= M)
      break; // Both sides exhausted within this distance.
  }

  // Local scan failed: jump to the earliest *anchor* pair ahead of both
  // cursors. Anchors come from secondary-view exploration and "could be
  // thousands of entries away" (§3.4) — e.g. a short object view bridging
  // a one-sided gap of tens of thousands of entries. Hash lookups only, so
  // this stays linear in the skipped region.
  for (size_t LI = I; LI < N; ++LI) {
    auto It = Anchors.find(LV.Entries[LI]);
    if (It == Anchors.end())
      continue;
    int64_t RPos = ViewWeb::positionOf(RV, It->second);
    if (RPos >= 0 && static_cast<size_t>(RPos) >= J)
      return {LI, static_cast<size_t>(RPos)};
  }
  return {N, M}; // No sync point: the rest is one big difference.
}

void PairEvaluator::emitSequences(const View &LV, const View &RV,
                                  size_t LBegin, size_t LEnd, size_t RBegin,
                                  size_t REnd) {
  // Split the skipped region into sequences, breaking at anchored
  // (similar) entries on either side.
  size_t LI = LBegin;
  size_t RJ = RBegin;
  while (LI < LEnd || RJ < REnd) {
    while (LI < LEnd && LeftSimilar[LV.Entries[LI]])
      ++LI;
    while (RJ < REnd && RightSimilar[RV.Entries[RJ]])
      ++RJ;
    if (LI >= LEnd && RJ >= REnd)
      break;
    DiffSequence Seq;
    Seq.LeftTid = LV.Tid;
    while (LI < LEnd && !LeftSimilar[LV.Entries[LI]])
      Seq.LeftEids.push_back(LV.Entries[LI++]);
    while (RJ < REnd && !RightSimilar[RV.Entries[RJ]])
      Seq.RightEids.push_back(RV.Entries[RJ++]);
    Sequences.push_back(std::move(Seq));
  }
}

/// True when two entries are the same event *site* — same kind, name, and
/// target object instance — so a mismatch between them is a value
/// modification, not an insertion/deletion. Reads the kind/name/target
/// columns only.
bool PairEvaluator::sameSite(uint32_t LeftEid, uint32_t RightEid) const {
  if (LT.Kinds[LeftEid] != RT.Kinds[RightEid] ||
      LT.Names[LeftEid] != RT.Names[RightEid])
    return false;
  const ObjRepr &A = LT.target(LeftEid);
  const ObjRepr &B = RT.target(RightEid);
  return A.ClassName == B.ClassName && A.CreationSeq == B.CreationSeq;
}

/// Fuses consecutive sequences with no matched entry between them (a
/// modification run flowing directly into a skip region, or region splits
/// at anchors that later turned out adjacent): difference sequences are
/// *maximal* contiguous runs, matching the paper's sequence counting.
void PairEvaluator::mergeAdjacentSequences(const View &LV, const View &RV) {
  auto Adjacent = [](const View &V, const std::vector<uint32_t> &A,
                     const std::vector<uint32_t> &B) {
    if (A.empty() || B.empty())
      return true; // No constraint from an empty side.
    int64_t End = ViewWeb::positionOf(V, A.back());
    int64_t Begin = ViewWeb::positionOf(V, B.front());
    return End >= 0 && Begin == End + 1;
  };

  std::vector<DiffSequence> Merged;
  for (DiffSequence &Seq : Sequences) {
    if (!Merged.empty() &&
        Adjacent(LV, Merged.back().LeftEids, Seq.LeftEids) &&
        Adjacent(RV, Merged.back().RightEids, Seq.RightEids)) {
      DiffSequence &Prev = Merged.back();
      Prev.LeftEids.insert(Prev.LeftEids.end(), Seq.LeftEids.begin(),
                           Seq.LeftEids.end());
      Prev.RightEids.insert(Prev.RightEids.end(), Seq.RightEids.begin(),
                            Seq.RightEids.end());
    } else {
      Merged.push_back(std::move(Seq));
    }
  }
  Sequences = std::move(Merged);
}

void PairEvaluator::evalThreadPair(const View &LV, const View &RV) {
  size_t N = LV.Entries.size();
  size_t M = RV.Entries.size();

  // Gather this pair's fingerprint lanes: one pass of strided loads per
  // side (none for an identity view, whose lane is the Fps column), after
  // which the lock-step loop runs over two dense uint64_t arrays. Only
  // possible when both traces are fingerprint-complete; the laneless
  // fallback below compares entries directly.
  bool UseLanes = LT.HasFingerprints && RT.HasFingerprints;
  if (UseLanes) {
    TelemetrySpan GatherSpan("lane.gather");
    const std::vector<uint64_t> *Shared =
        SharedLeft ? SharedLeft->lane(LV.Id) : nullptr;
    if (Shared && Shared->size() == N) {
      // 1-vs-N: the baseline's lane was gathered once up front; alias it
      // instead of re-gathering. Same contents, so same results. Checked
      // before the identity range so the shared lane serves every mutant.
      LLaneData = Shared->data();
      ++SharedLaneHits;
    } else {
      LLaneData = threadLane(LT, LV, LLane);
    }
    RLaneData = threadLane(RT, RV, RLane);
  }
  const bool LIdentity = isIdentity(LV, LT);
  const bool RIdentity = isIdentity(RV, RT);

  // Laneless path: a thread view's entries are strided across the columns,
  // so prefetch the =e-relevant column bytes a few steps ahead to overlap
  // the misses; correctness is unaffected.
  constexpr size_t Prefetch = 8;
  auto PrefetchAt = [](const Trace &T, const View &V, size_t Pos) {
    if (Pos < V.Entries.size()) {
      T.prefetchEquals(V.Entries[Pos]);
    }
  };

  size_t I = 0;
  size_t J = 0;
  while (I < N && J < M) {
    if (UseLanes) {
      // STEP-VIEW-MATCH, run-skipped: consume the maximal fingerprint-
      // equal run in one wide-word scan. Equal fingerprints are accepted
      // as matches without re-reading the entry payload (the fingerprint
      // hashes exactly the =e components); each matched step still counts
      // as one compare op, exactly as the per-step =e did.
      size_t Max = std::min(N - I, M - J);
      size_t K = laneMatchRun(LLaneData + I, RLaneData + J, Max);
      if (K != 0) {
        ++RunSkips;
        Ops.Count += K;
        // One side at a time: each pass walks one sequential id array and
        // one bitset instead of alternating between four streams.
        markRun(LeftSimilar, LV, LIdentity, I, K);
        markRun(RightSimilar, RV, RIdentity, J, K);
        I += K;
        J += K;
        if (I >= N || J >= M)
          break;
      }
      // Fingerprint mismatch at the run boundary: the per-step =e would
      // have ticked once and rejected on the fingerprint compare; account
      // for that op, then consult the anchor map as before.
      Ops.tick();
      uint32_t LeftEid = LV.Entries[I];
      uint32_t RightEid = RV.Entries[J];
      if (anchoredPair(LeftEid, RightEid)) {
        markMatched(LeftEid, RightEid);
        ++I;
        ++J;
        continue;
      }
    } else {
      PrefetchAt(LT, LV, I + Prefetch);
      PrefetchAt(RT, RV, J + Prefetch);
      uint32_t LeftEid = LV.Entries[I];
      uint32_t RightEid = RV.Entries[J];

      // STEP-VIEW-MATCH. Compare before consulting the anchor map: anchors
      // are produced by windowed LCS, whose matches satisfy =e, so the map
      // lookup can never succeed where the compare fails — it only serves
      // as the sync-point certificate when exploration already paired
      // entries. Trying =e first keeps the dominant all-equal path free of
      // hash probes.
      if (eq(LeftEid, RightEid) || anchoredPair(LeftEid, RightEid)) {
        markMatched(LeftEid, RightEid);
        ++I;
        ++J;
        continue;
      }
    }

    uint32_t LeftEid = LV.Entries[I];
    uint32_t RightEid = RV.Entries[J];

    // Modification step: the same event site with different values is a
    // paired value difference ("the LCS gravitates towards correlating
    // identical values, identifying the new parameter as the one
    // difference", §3.2). Consuming it pairwise keeps secondary-view
    // anchoring from blurring genuine value differences into matches with
    // unrelated instances of the same event.
    if (sameSite(LeftEid, RightEid)) {
      DiffSequence Seq;
      Seq.LeftTid = LV.Tid;
      // Inside a modification run the fingerprints are already gathered:
      // a lane mismatch is exactly the reject =e's fingerprint fast path
      // would take (one tick, same verdict), so the full compare only
      // runs when the lanes agree — where its result is authoritative
      // either way, keeping op totals identical to the laneless path.
      auto StepEquals = [&]() {
        if (UseLanes && LLaneData[I] != RLaneData[J]) {
          Ops.tick();
          return false;
        }
        return eq(LV.Entries[I], RV.Entries[J]);
      };
      while (I < N && J < M && !StepEquals() &&
             sameSite(LV.Entries[I], RV.Entries[J])) {
        Seq.LeftEids.push_back(LV.Entries[I++]);
        Seq.RightEids.push_back(RV.Entries[J++]);
      }
      Sequences.push_back(std::move(Seq));
      continue;
    }

    // STEP-VIEW-NOMATCH.
    if (Options.ExploreSecondaryViews)
      exploreSecondary(LV, RV, I, J);
    auto [NI, NJ] = findNextSync(LV, RV, I, J);
    emitSequences(LV, RV, I, NI, J, NJ);
    I = NI;
    J = NJ;
  }
  // Tail: whatever remains on either side is a difference (the formal
  // semantics pads the shorter trace with eof entries, §3.1).
  emitSequences(LV, RV, I, N, J, M);
  mergeAdjacentSequences(LV, RV);
}

/// Thread views with no correlated partner are differences wholesale
/// (filtered against the merged similarity set: an unpaired thread's
/// entries can still be anchored from a paired thread's exploration).
static void emitWholeViewSequence(DiffResult &Result, const View &V,
                                  bool IsLeft) {
  DiffSequence Seq;
  Seq.LeftTid = V.Tid;
  for (uint32_t Eid : V.Entries) {
    if (IsLeft && !Result.LeftSimilar[Eid])
      Seq.LeftEids.push_back(Eid);
    if (!IsLeft && !Result.RightSimilar[Eid])
      Seq.RightEids.push_back(Eid);
  }
  if (!Seq.LeftEids.empty() || !Seq.RightEids.empty())
    Result.Sequences.push_back(std::move(Seq));
}

DiffResult rprism::viewsDiff(const ViewWeb &Left, const ViewWeb &Right,
                             const ViewCorrelation &X,
                             const ViewsDiffOptions &Options,
                             ThreadPool *Pool,
                             const BaselineLanes *SharedLeft) {
  Timer Clock;
  const Trace &LT = Left.trace();
  const Trace &RT = Right.trace();

  // Shared lanes only apply when they were gathered over this exact left
  // web (address identity: lanes index into that web's views).
  if (SharedLeft && &SharedLeft->web() != &Left)
    SharedLeft = nullptr;

  DiffResult Result;
  Result.Left = &LT;
  Result.Right = &RT;
  Result.LeftSimilar.assign(LT.size());
  Result.RightSimilar.assign(RT.size());

  const std::vector<std::pair<uint32_t, uint32_t>> &Pairs = X.threadPairs();

  std::optional<ThreadPool> OwnPool;
  if (!Pool) {
    OwnPool.emplace(effectiveDiffJobs(Options, LT.size() + RT.size()));
    Pool = &*OwnPool;
  }

  // Evaluate each correlated thread-view pair in isolation. The evaluators
  // share nothing, so they run as independent pool tasks; with an inline
  // pool (jobs = 1) the same evaluators run sequentially in pair order.
  std::vector<std::unique_ptr<PairEvaluator>> Evals;
  Evals.reserve(Pairs.size());
  for (size_t K = 0; K != Pairs.size(); ++K)
    Evals.push_back(
        std::make_unique<PairEvaluator>(Left, Right, X, Options, SharedLeft));
  {
    TelemetrySpan EvalSpan("evaluate");
    if (Pool->numWorkers() > 1 && Pairs.size() > 1) {
      for (size_t K = 0; K != Pairs.size(); ++K)
        Pool->submit([&Evals, &Left, &Right, &Pairs, K] {
          TelemetrySpan PairSpan("pair");
          Evals[K]->evalThreadPair(Left.view(Pairs[K].first),
                                   Right.view(Pairs[K].second));
        });
      Pool->wait();
    } else {
      for (size_t K = 0; K != Pairs.size(); ++K) {
        TelemetrySpan PairSpan("pair");
        Evals[K]->evalThreadPair(Left.view(Pairs[K].first),
                                 Right.view(Pairs[K].second));
      }
    }
  }

  TelemetrySpan MergeSpan("merge");

  // Deterministic merge, in correlation (left-tid) order: the union of the
  // per-pair Pi sets (a word OR) is the final similarity set, sequences
  // concatenate, and per-pair compare counters sum to a jobs-independent
  // total.
  std::unordered_map<uint32_t, uint32_t> AnchorUnion;
  uint64_t TotalOps = 0;
  uint64_t TotalRunSkips = 0;
  uint64_t TotalSharedHits = 0;
  {
    TelemetrySpan UnionSpan("union");
    std::unordered_set<uint32_t> PairedLeft;
    std::unordered_set<uint32_t> PairedRight;
    for (size_t K = 0; K != Pairs.size(); ++K) {
      PairedLeft.insert(Pairs[K].first);
      PairedRight.insert(Pairs[K].second);
      PairEvaluator &E = *Evals[K];
      Result.LeftSimilar.orWith(E.LeftSimilar);
      Result.RightSimilar.orWith(E.RightSimilar);
      for (const auto &[L, R] : E.Anchors)
        AnchorUnion.emplace(L, R);
      TotalOps += E.Ops.Count;
      TotalRunSkips += E.RunSkips;
      TotalSharedHits += E.SharedLaneHits;
      for (DiffSequence &Seq : E.Sequences)
        Result.Sequences.push_back(std::move(Seq));
    }

    for (const View &V : Left.views())
      if (V.Type == ViewType::Thread && !PairedLeft.count(V.Id))
        emitWholeViewSequence(Result, V, /*IsLeft=*/true);
    for (const View &V : Right.views())
      if (V.Type == ViewType::Thread && !PairedRight.count(V.Id))
        emitWholeViewSequence(Result, V, /*IsLeft=*/false);
  }

  // Anchors found late (or by another pair) can mark entries similar after
  // they were already emitted into a sequence; re-filter in place so
  // sequences contain only entries that are differences in the final,
  // merged Pi.
  {
    TelemetrySpan RefilterSpan("refilter");
    for (DiffSequence &Seq : Result.Sequences) {
      std::erase_if(Seq.LeftEids,
                    [&](uint32_t Eid) { return Result.LeftSimilar[Eid]; });
      std::erase_if(Seq.RightEids,
                    [&](uint32_t Eid) { return Result.RightSimilar[Eid]; });
    }
    std::erase_if(Result.Sequences,
                  [](const DiffSequence &Seq) { return Seq.size() == 0; });
  }

  Result.Stats.CompareOps = TotalOps;
  Result.Stats.Seconds = Clock.seconds();
  // Views-based memory: the per-pair and merged similarity bitsets, the
  // anchor map, the gathered fingerprint lanes, and the view webs' entry
  // indices — all linear in the trace sizes. Counted as if every pair's
  // state coexists (the full-parallelism worst case) so the figure does
  // not depend on the worker count. An identity view's lane is the Fps
  // column, so it is not counted; any other view's lane is, even when a
  // shared baseline lane serves it, so the figure does not depend on
  // SharedLeft either.
  uint64_t WebBytes = 0;
  for (const View &V : Left.views())
    WebBytes += V.Entries.size() * sizeof(uint32_t);
  for (const View &V : Right.views())
    WebBytes += V.Entries.size() * sizeof(uint32_t);
  uint64_t LaneBytes = 0;
  if (LT.HasFingerprints && RT.HasFingerprints)
    for (const auto &[L, R] : Pairs) {
      const View &LV = Left.view(L);
      const View &RV = Right.view(R);
      if (!isIdentity(LV, LT))
        LaneBytes += LV.Entries.size() * sizeof(uint64_t);
      if (!isIdentity(RV, RT))
        LaneBytes += RV.Entries.size() * sizeof(uint64_t);
    }
  Result.Stats.PeakBytes =
      WebBytes + LaneBytes +
      (LT.size() + RT.size()) / 8 * (1 + Pairs.size()) +
      AnchorUnion.size() * 16;

  // Counters are the jobs-invariant core of the diff telemetry (the merge
  // above makes them deterministic); the peak-bytes figure is a gauge.
  if (Telemetry::enabled()) {
    Telemetry::counterAdd("diff.compare_ops", TotalOps);
    Telemetry::counterAdd("diff.sequences", Result.Sequences.size());
    Telemetry::counterAdd("diff.anchors", AnchorUnion.size());
    Telemetry::counterAdd("eval.runskip", TotalRunSkips);
    if (TotalSharedHits)
      Telemetry::counterAdd("lane.shared_hit", TotalSharedHits);
    Telemetry::gaugeMax("diff.peak_bytes",
                        static_cast<double>(Result.Stats.PeakBytes));
    for (const DiffSequence &Seq : Result.Sequences)
      Telemetry::observe(
          "diff.sequence_entries",
          static_cast<double>(Seq.LeftEids.size() + Seq.RightEids.size()));
  }
  return Result;
}

BaselineLanes::BaselineLanes(const ViewWeb &W) : Web(&W) {
  const Trace &T = W.trace();
  if (!T.HasFingerprints)
    return; // Every lane lookup stays null; evaluators gather as usual.
  TelemetrySpan GatherSpan("lane.gather");
  for (const View &V : W.views())
    if (V.Type == ViewType::Thread) // The lock-step core scans only these.
      gatherLane(T, V, Lanes[V.Id]);
}

const std::vector<uint64_t> *BaselineLanes::lane(uint32_t ViewId) const {
  auto It = Lanes.find(ViewId);
  return It == Lanes.end() ? nullptr : &It->second;
}

uint64_t BaselineLanes::bytes() const {
  uint64_t Total = 0;
  for (const auto &[Id, Lane] : Lanes)
    Total += Lane.size() * sizeof(uint64_t);
  return Total;
}

const uint64_t *rprism::threadLane(const Trace &T, const View &V,
                                   std::vector<uint64_t> &Storage) {
  if (isIdentity(V, T))
    return T.Fps.data();
  gatherLane(T, V, Storage);
  return Storage.data();
}

unsigned rprism::effectiveDiffJobs(const ViewsDiffOptions &Options,
                                   size_t TotalEntries) {
  // An explicit request is honored: the caller asked for workers (e.g. to
  // observe pool overlap in a timeline trace), and the result is
  // identical either way.
  if (Options.Jobs != 0)
    return Options.Jobs;
  // Auto mode: on one hardware thread workers only add queue latency, and
  // below the work threshold the pool round trips dominate the win.
  constexpr size_t AutoParallelMinEntries = 32768;
  unsigned Hardware = ThreadPool::defaultConcurrency();
  if (Hardware <= 1 || TotalEntries < AutoParallelMinEntries)
    return 1;
  return Hardware;
}

DiffResult rprism::viewsDiff(const Trace &Left, const Trace &Right,
                             const ViewsDiffOptions &Options) {
  TelemetrySpan Span("views-diff");
  // One pool for the whole pipeline: both web builds (four index families
  // each) and the thread-pair evaluation stage. The adaptive cutoff may
  // clamp the worker count to 1 (sequential path); the result is identical
  // by the determinism contract, so only the schedule changes. The chosen
  // mode is recorded as a gauge (gauges are exempt from the jobs-
  // invariance contract).
  unsigned Jobs = effectiveDiffJobs(Options, Left.size() + Right.size());
  Telemetry::gaugeMax("diff.effective_jobs", static_cast<double>(Jobs));
  ThreadPool Pool(Jobs);
  ViewWeb LeftWeb(Left, &Pool, Options.UseViewIndex);
  ViewWeb RightWeb(Right, &Pool, Options.UseViewIndex);
  ViewCorrelation X(LeftWeb, RightWeb);
  return viewsDiff(LeftWeb, RightWeb, X, Options, &Pool);
}
