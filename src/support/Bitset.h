//===- support/Bitset.h - Fixed-size bitset over 64-bit words ------------===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The similarity set Pi is one flag per trace entry, built per correlated
/// thread-view pair and merged as a union. Storing the flags as 64-bit
/// words lets the union OR words, counts popcount them, and matched runs
/// set whole words at once. Bits past size() are always zero, so equality
/// and count() can treat every word alike.
///
//===----------------------------------------------------------------------===//

#ifndef RPRISM_SUPPORT_BITSET_H
#define RPRISM_SUPPORT_BITSET_H

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace rprism {

class Bitset {
public:
  Bitset() = default;

  /// Resizes to \p N bits, all clear.
  void assign(size_t N) {
    Size = N;
    Words.assign((N + 63) / 64, 0);
  }

  size_t size() const { return Size; }

  bool operator[](size_t I) const {
    assert(I < Size);
    return (Words[I / 64] >> (I % 64)) & 1;
  }

  void set(size_t I) {
    assert(I < Size);
    Words[I / 64] |= uint64_t{1} << (I % 64);
  }

  /// Sets bits [Begin, End).
  void setRange(size_t Begin, size_t End) {
    assert(Begin <= End && End <= Size);
    if (Begin == End)
      return;
    size_t First = Begin / 64;
    size_t Last = (End - 1) / 64;
    uint64_t Low = ~uint64_t{0} << (Begin % 64);
    uint64_t High = ~uint64_t{0} >> (63 - (End - 1) % 64);
    if (First == Last) {
      Words[First] |= Low & High;
      return;
    }
    Words[First] |= Low;
    for (size_t W = First + 1; W != Last; ++W)
      Words[W] = ~uint64_t{0};
    Words[Last] |= High;
  }

  /// this |= Other; both have the same size.
  void orWith(const Bitset &Other) {
    assert(Other.Size == Size);
    for (size_t W = 0; W != Words.size(); ++W)
      Words[W] |= Other.Words[W];
  }

  /// Number of set bits.
  size_t count() const {
    size_t N = 0;
    for (uint64_t W : Words)
      N += std::popcount(W);
    return N;
  }

  /// Calls \p F(I) for every clear bit I, in ascending order, finding
  /// them a word at a time.
  template <typename Fn> void forEachClear(Fn F) const {
    for (size_t W = 0; W != Words.size(); ++W) {
      uint64_t Clear = ~Words[W];
      if (W + 1 == Words.size() && Size % 64 != 0)
        Clear &= tailMask();
      while (Clear) {
        F(W * 64 + std::countr_zero(Clear));
        Clear &= Clear - 1;
      }
    }
  }

  friend bool operator==(const Bitset &A, const Bitset &B) = default;

private:
  /// The bits of the last word that lie inside size() (Size % 64 != 0).
  uint64_t tailMask() const { return ~uint64_t{0} >> (64 - Size % 64); }

  size_t Size = 0;
  std::vector<uint64_t> Words;
};

} // namespace rprism

#endif // RPRISM_SUPPORT_BITSET_H
