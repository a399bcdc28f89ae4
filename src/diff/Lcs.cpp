//===- diff/Lcs.cpp -------------------------------------------------------===//

#include "diff/Lcs.h"

#include "support/Telemetry.h"
#include "support/Timer.h"

#include <algorithm>
#include <cassert>

using namespace rprism;

namespace {

/// Shared prefix/suffix trimming (the paper's "optimized version of the LCS
/// algorithm (common-prefix/suffix optimizations)", §5.1). Returns the
/// number of leading and trailing =e-equal pairs, which are matched for
/// free without touching the DP table.
struct Trim {
  size_t Prefix = 0;
  size_t Suffix = 0;
};

Trim trimEnds(const Trace &Left, EidSpan LeftIds, const Trace &Right,
              EidSpan RightIds, CompareCounter *Ops) {
  Trim T;
  size_t N = LeftIds.Size;
  size_t M = RightIds.Size;
  size_t Max = std::min(N, M);
  while (T.Prefix < Max &&
         eventEquals(Left, LeftIds[T.Prefix], Right, RightIds[T.Prefix],
                     Ops))
    ++T.Prefix;
  size_t Rem = Max - T.Prefix;
  while (T.Suffix < Rem &&
         eventEquals(Left, LeftIds[N - 1 - T.Suffix], Right,
                     RightIds[M - 1 - T.Suffix], Ops))
    ++T.Suffix;
  return T;
}

void pushTrimmedMatches(LcsResult &Result, EidSpan LeftIds, EidSpan RightIds,
                        const Trim &T, bool Prefix) {
  if (Prefix) {
    for (size_t I = 0; I != T.Prefix; ++I)
      Result.Matches.emplace_back(LeftIds[I], RightIds[I]);
  } else {
    size_t N = LeftIds.Size;
    size_t M = RightIds.Size;
    for (size_t I = T.Suffix; I != 0; --I)
      Result.Matches.emplace_back(LeftIds[N - I], RightIds[M - I]);
  }
}

/// One row of LCS lengths for the Hirschberg split: lengths of LCS of
/// Left[0..N) against every prefix of Right. O(M) space.
std::vector<uint32_t> lcsLengthRow(const Trace &Left, EidSpan LeftIds,
                                   const Trace &Right, EidSpan RightIds,
                                   bool Reversed, CompareCounter *Ops) {
  size_t N = LeftIds.Size;
  size_t M = RightIds.Size;
  std::vector<uint32_t> Prev(M + 1, 0);
  std::vector<uint32_t> Cur(M + 1, 0);
  for (size_t I = 1; I <= N; ++I) {
    size_t Li = Reversed ? N - I : I - 1;
    uint32_t LEid = LeftIds[Li];
    for (size_t J = 1; J <= M; ++J) {
      size_t Rj = Reversed ? M - J : J - 1;
      if (eventEquals(Left, LEid, Right, RightIds[Rj], Ops))
        Cur[J] = Prev[J - 1] + 1;
      else
        Cur[J] = std::max(Prev[J], Cur[J - 1]);
    }
    std::swap(Prev, Cur);
  }
  return Prev;
}

void hirschbergRec(const Trace &Left, EidSpan LeftIds, const Trace &Right,
                   EidSpan RightIds, CompareCounter *Ops,
                   LcsResult &Result) {
  size_t N = LeftIds.Size;
  size_t M = RightIds.Size;
  if (N == 0 || M == 0)
    return;
  if (N == 1) {
    for (size_t J = 0; J != M; ++J) {
      if (eventEquals(Left, LeftIds[0], Right, RightIds[J], Ops)) {
        Result.Matches.emplace_back(LeftIds[0], RightIds[J]);
        return;
      }
    }
    return;
  }

  size_t Mid = N / 2;
  EidSpan LeftTop{LeftIds.Ids, Mid};
  EidSpan LeftBot{LeftIds.Ids + Mid, N - Mid};
  std::vector<uint32_t> Forward =
      lcsLengthRow(Left, LeftTop, Right, RightIds, /*Reversed=*/false, Ops);
  std::vector<uint32_t> Backward =
      lcsLengthRow(Left, LeftBot, Right, RightIds, /*Reversed=*/true, Ops);

  size_t BestJ = 0;
  uint32_t Best = 0;
  for (size_t J = 0; J <= M; ++J) {
    uint32_t Total = Forward[J] + Backward[M - J];
    if (Total > Best) {
      Best = Total;
      BestJ = J;
    }
  }
  EidSpan RightTop{RightIds.Ids, BestJ};
  EidSpan RightBot{RightIds.Ids + BestJ, M - BestJ};
  hirschbergRec(Left, LeftTop, Right, RightTop, Ops, Result);
  hirschbergRec(Left, LeftBot, Right, RightBot, Ops, Result);
}

} // namespace

LcsResult rprism::lcsMatch(const Trace &Left, EidSpan LeftIds,
                           const Trace &Right, EidSpan RightIds,
                           CompareCounter *Ops, MemoryAccountant *Mem) {
  LcsResult Result;
  Trim T = trimEnds(Left, LeftIds, Right, RightIds, Ops);
  pushTrimmedMatches(Result, LeftIds, RightIds, T, /*Prefix=*/true);

  size_t N = LeftIds.Size - T.Prefix - T.Suffix;
  size_t M = RightIds.Size - T.Prefix - T.Suffix;
  const uint32_t *LIds = LeftIds.Ids + T.Prefix;
  const uint32_t *RIds = RightIds.Ids + T.Prefix;

  if (N != 0 && M != 0) {
    // DP table of LCS lengths, (N+1) x (M+1), uint32 cells. This is the
    // allocation that kills the baseline on long traces.
    uint64_t TableBytes = static_cast<uint64_t>(N + 1) * (M + 1) * 4;
    if (Mem && !Mem->charge(TableBytes)) {
      Result.OutOfMemory = true;
      Result.Matches.clear();
      return Result;
    }
    std::vector<std::vector<uint32_t>> Table(
        N + 1, std::vector<uint32_t>(M + 1, 0));
    for (size_t I = 1; I <= N; ++I) {
      uint32_t LEid = LIds[I - 1];
      for (size_t J = 1; J <= M; ++J) {
        if (eventEquals(Left, LEid, Right, RIds[J - 1], Ops))
          Table[I][J] = Table[I - 1][J - 1] + 1;
        else
          Table[I][J] = std::max(Table[I - 1][J], Table[I][J - 1]);
      }
    }
    // Reconstruct, walking back from (N, M).
    std::vector<std::pair<uint32_t, uint32_t>> Middle;
    size_t I = N;
    size_t J = M;
    while (I != 0 && J != 0) {
      if (eventEquals(Left, LIds[I - 1], Right, RIds[J - 1], Ops) &&
          Table[I][J] == Table[I - 1][J - 1] + 1) {
        Middle.emplace_back(LIds[I - 1], RIds[J - 1]);
        --I;
        --J;
      } else if (Table[I - 1][J] >= Table[I][J - 1]) {
        --I;
      } else {
        --J;
      }
    }
    Result.Matches.insert(Result.Matches.end(), Middle.rbegin(),
                          Middle.rend());
    if (Mem)
      Mem->release(TableBytes);
  }

  pushTrimmedMatches(Result, LeftIds, RightIds, T, /*Prefix=*/false);
  return Result;
}

LcsResult rprism::lcsMatchHirschberg(const Trace &Left, EidSpan LeftIds,
                                     const Trace &Right, EidSpan RightIds,
                                     CompareCounter *Ops) {
  LcsResult Result;
  Trim T = trimEnds(Left, LeftIds, Right, RightIds, Ops);
  pushTrimmedMatches(Result, LeftIds, RightIds, T, /*Prefix=*/true);
  EidSpan LMid{LeftIds.Ids + T.Prefix, LeftIds.Size - T.Prefix - T.Suffix};
  EidSpan RMid{RightIds.Ids + T.Prefix, RightIds.Size - T.Prefix - T.Suffix};
  hirschbergRec(Left, LMid, Right, RMid, Ops, Result);
  pushTrimmedMatches(Result, LeftIds, RightIds, T, /*Prefix=*/false);
  return Result;
}

size_t rprism::lcsLength(const Trace &Left, EidSpan LeftIds,
                         const Trace &Right, EidSpan RightIds,
                         CompareCounter *Ops) {
  std::vector<uint32_t> Row =
      lcsLengthRow(Left, LeftIds, Right, RightIds, /*Reversed=*/false, Ops);
  return Row.empty() ? 0 : Row.back();
}

namespace {

/// All entry ids of a trace, 0..N-1 (entries are stored eid-ordered).
std::vector<uint32_t> allEids(const Trace &T) {
  std::vector<uint32_t> Ids(T.size());
  for (uint32_t I = 0; I != Ids.size(); ++I)
    Ids[I] = I;
  return Ids;
}

} // namespace

DiffResult rprism::lcsDiff(const Trace &Left, const Trace &Right,
                           const LcsDiffOptions &Options) {
  TelemetrySpan Span("lcs-diff");
  Timer Clock;
  DiffResult Result;
  Result.Left = &Left;
  Result.Right = &Right;
  Result.LeftSimilar.assign(Left.size());
  Result.RightSimilar.assign(Right.size());

  std::vector<uint32_t> LeftIds = allEids(Left);
  std::vector<uint32_t> RightIds = allEids(Right);
  EidSpan LSpan{LeftIds.data(), LeftIds.size()};
  EidSpan RSpan{RightIds.data(), RightIds.size()};

  CompareCounter Ops;
  MemoryAccountant Mem(Options.MemCapBytes);
  LcsResult Lcs =
      Options.UseHirschberg
          ? lcsMatchHirschberg(Left, LSpan, Right, RSpan, &Ops)
          : lcsMatch(Left, LSpan, Right, RSpan, &Ops, &Mem);

  Result.Stats.CompareOps = Ops.Count;
  Result.Stats.PeakBytes = Mem.peakBytes();
  Result.Stats.OutOfMemory = Lcs.OutOfMemory;
  Telemetry::counterAdd("diff.compare_ops", Ops.Count);
  Telemetry::gaugeMax("diff.peak_bytes",
                      static_cast<double>(Result.Stats.PeakBytes));
  if (Lcs.OutOfMemory) {
    Result.Stats.Seconds = Clock.seconds();
    return Result; // Table 1's "(out of memory failure)" row.
  }

  for (auto [L, R] : Lcs.Matches) {
    Result.LeftSimilar.set(L);
    Result.RightSimilar.set(R);
  }

  // Difference sequences: the gaps between consecutive LCS matches.
  size_t Li = 0;
  size_t Ri = 0;
  auto EmitGap = [&](size_t LEnd, size_t REnd) {
    if (Li == LEnd && Ri == REnd)
      return;
    DiffSequence Seq;
    Seq.LeftTid = Li < LEnd
                      ? Left.Tids[static_cast<uint32_t>(Li)]
                      : (Ri < REnd ? Right.Tids[static_cast<uint32_t>(Ri)]
                                   : 0);
    for (; Li < LEnd; ++Li)
      Seq.LeftEids.push_back(static_cast<uint32_t>(Li));
    for (; Ri < REnd; ++Ri)
      Seq.RightEids.push_back(static_cast<uint32_t>(Ri));
    Result.Sequences.push_back(std::move(Seq));
  };
  for (auto [L, R] : Lcs.Matches) {
    EmitGap(L, R);
    Li = L + 1;
    Ri = R + 1;
  }
  EmitGap(Left.size(), Right.size());

  Result.Stats.Seconds = Clock.seconds();
  return Result;
}
