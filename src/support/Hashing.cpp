//===- support/Hashing.cpp ------------------------------------------------===//

#include "support/Hashing.h"

using namespace rprism;

uint64_t rprism::hashBytes(const void *Data, size_t Size, uint64_t Seed) {
  const auto *Bytes = static_cast<const unsigned char *>(Data);
  uint64_t H = Seed;
  for (size_t I = 0; I != Size; ++I) {
    H ^= Bytes[I];
    H *= 0x100000001b3ULL; // FNV prime.
  }
  return H;
}

namespace {

constexpr uint64_t Prime1 = 0x9e3779b185ebca87ULL; // xxHash64 primes.
constexpr uint64_t Prime2 = 0xc2b2ae3d27d4eb4fULL;

inline uint64_t rotl(uint64_t X, unsigned R) {
  return (X << R) | (X >> (64 - R));
}

inline uint64_t load64(const unsigned char *P) {
  uint64_t V;
  std::memcpy(&V, P, sizeof(V));
  return V;
}

/// One lane step. The rotate between the multiplies carries a flip in an
/// input's top bit into low bits, so two such flips in one lane cannot
/// cancel the way they do under a plain xor-multiply.
inline uint64_t laneRound(uint64_t Acc, uint64_t Input) {
  Acc += Input * Prime2;
  return rotl(Acc, 31) * Prime1;
}

} // namespace

uint64_t rprism::checksumBytes(const void *Data, size_t Size) {
  const auto *P = static_cast<const unsigned char *>(Data);
  uint64_t V1 = Prime1 + Prime2, V2 = Prime2, V3 = 0, V4 = 0 - Prime1;
  for (size_t Blocks = Size / 32; Blocks != 0; --Blocks, P += 32) {
    V1 = laneRound(V1, load64(P));
    V2 = laneRound(V2, load64(P + 8));
    V3 = laneRound(V3, load64(P + 16));
    V4 = laneRound(V4, load64(P + 24));
  }
  uint64_t H = rotl(V1, 1) + rotl(V2, 7) + rotl(V3, 12) + rotl(V4, 18);
  size_t Tail = Size % 32;
  for (; Tail >= 8; Tail -= 8, P += 8)
    H = hashMix(H, load64(P));
  if (Tail != 0) {
    uint64_t Last = 0;
    std::memcpy(&Last, P, Tail);
    H = hashMix(H, Last);
  }
  return hashMix(H, Size);
}
