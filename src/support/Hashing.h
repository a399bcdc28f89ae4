//===- support/Hashing.h - Stable 64-bit hashing utilities ---------------===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Stable (platform- and run-independent) 64-bit hashing. Value
/// representations (Fig. 8 of the paper) must be comparable across two
/// program versions and across serialization round trips, so all hashes in
/// RPrism are deterministic functions of the hashed bytes, never of pointer
/// identity or ASLR-dependent state.
///
//===----------------------------------------------------------------------===//

#ifndef RPRISM_SUPPORT_HASHING_H
#define RPRISM_SUPPORT_HASHING_H

#include <cstdint>
#include <cstring>
#include <string_view>

namespace rprism {

/// FNV-1a offset basis; the seed for all FNV-1a and combined hashes.
inline constexpr uint64_t HashInit = 0xcbf29ce484222325ULL;

/// The splitmix64 finalizer's multipliers and their inverses modulo 2^64.
inline constexpr uint64_t MixMul1 = 0xbf58476d1ce4e5b9ULL;
inline constexpr uint64_t MixMul2 = 0x94d049bb133111ebULL;
inline constexpr uint64_t MixMul1Inv = 0x96de1b173f119089ULL;
inline constexpr uint64_t MixMul2Inv = 0x319642b2d24d8ec3ULL;
static_assert(MixMul1 * MixMul1Inv == 1 && MixMul2 * MixMul2Inv == 1);

/// The offset hashMix adds to its value for a given seed.
constexpr uint64_t hashMixOffset(uint64_t Seed) {
  return 0x9e3779b97f4a7c15ULL + (Seed << 6) + (Seed >> 2);
}

/// Mixes a 64-bit value into a running hash using the splitmix64 finalizer.
/// Stronger than plain FNV multiplication for already-wide inputs (other
/// hashes, counters) where low-bit bias would cluster hash-table buckets.
/// For a fixed seed it is a bijection on 64-bit values (hashUnmix).
inline uint64_t hashMix(uint64_t Seed, uint64_t Value) {
  uint64_t X = Seed ^ (Value + hashMixOffset(Seed));
  X ^= X >> 30;
  X *= MixMul1;
  X ^= X >> 27;
  X *= MixMul2;
  X ^= X >> 31;
  return X;
}

/// Inverts hashMix: hashUnmix(Seed, hashMix(Seed, V)) == V for every V.
/// Each finalizer step is undone in reverse order: a multiply by the
/// inverse multiplier, and an xor-shift by xoring in the shifts of its
/// output until they run off the word.
inline uint64_t hashUnmix(uint64_t Seed, uint64_t Mixed) {
  uint64_t X = Mixed;
  X ^= (X >> 31) ^ (X >> 62);
  X *= MixMul2Inv;
  X ^= (X >> 27) ^ (X >> 54);
  X *= MixMul1Inv;
  X ^= (X >> 30) ^ (X >> 60);
  return (X ^ Seed) - hashMixOffset(Seed);
}

/// FNV-1a over a byte range starting from \p Seed.
uint64_t hashBytes(const void *Data, size_t Size, uint64_t Seed = HashInit);

/// FNV-1a over the characters of \p Str.
inline uint64_t hashString(std::string_view Str, uint64_t Seed = HashInit) {
  return hashBytes(Str.data(), Str.size(), Seed);
}

/// Word-wise checksum of a byte range, for bulk payloads (trace file
/// sections, the trace header). Four independent 64-bit lanes consume
/// 32-byte blocks with xxHash64-style multiply-rotate-multiply rounds;
/// the tail words and the length fold into a final hashMix avalanche.
/// An order of magnitude faster than byte-serial hashBytes on bulk data
/// (docs/PERFORMANCE.md, "Trace checksums"), accepts any alignment, and
/// is part of the trace file format: its values must never change
/// (SupportTest pins known answers).
uint64_t checksumBytes(const void *Data, size_t Size);

/// Hashes a double by its bit pattern (so 1.0 hashes identically on every
/// run; NaNs with the same payload collide, which is fine for trace
/// comparison purposes).
inline uint64_t hashDouble(double D, uint64_t Seed = HashInit) {
  uint64_t Bits;
  static_assert(sizeof(Bits) == sizeof(D), "double must be 64-bit");
  std::memcpy(&Bits, &D, sizeof(Bits));
  return hashMix(Seed, Bits);
}

/// Convenience variadic combiner: hashCombine(a, b, c) folds each value into
/// a fresh hash chain.
inline uint64_t hashCombine(uint64_t Value) { return hashMix(HashInit, Value); }

template <typename... Rest>
uint64_t hashCombine(uint64_t First, Rest... Values) {
  uint64_t H = HashInit;
  for (uint64_t V : {First, static_cast<uint64_t>(Values)...})
    H = hashMix(H, V);
  return H;
}

} // namespace rprism

#endif // RPRISM_SUPPORT_HASHING_H
