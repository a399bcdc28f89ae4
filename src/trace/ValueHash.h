//===- trace/ValueHash.h - Kind-seeded value-representation hashes --------===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hash a ValueRepr row carries, per value kind, shared by the recorder
/// that computes it and the renderer that reads it back. A distinct seed
/// per kind keeps e.g. Int 0 and Bool false apart.
///
/// A scalar row (Unit, Null, Int, Bool, Float) is fully described by its
/// kind and hash: the Int, Bool and Float hashes are hashMix of the seed
/// and the value's 64 bits, which hashUnmix recovers exactly. Such rows
/// carry no interned text (Text is symbol 0, and the text symbols of rows
/// written by older recorders are ignored); Trace::valueText prints what
/// the recorder once interned. Str and Obj rows keep interned text.
///
//===----------------------------------------------------------------------===//

#ifndef RPRISM_TRACE_VALUEHASH_H
#define RPRISM_TRACE_VALUEHASH_H

#include "support/Hashing.h"

namespace rprism {

inline constexpr uint64_t SeedUnit = 0x11u;
inline constexpr uint64_t SeedNull = 0x22u;
inline constexpr uint64_t SeedInt = 0x33u;
inline constexpr uint64_t SeedBool = 0x44u;
inline constexpr uint64_t SeedFloat = 0x55u;
inline constexpr uint64_t SeedStr = 0x66u;
inline constexpr uint64_t SeedObj = 0x77u;

inline uint64_t intValueHash(int64_t V) {
  return hashMix(SeedInt, static_cast<uint64_t>(V));
}
inline uint64_t boolValueHash(bool B) { return hashMix(SeedBool, B); }
inline uint64_t floatValueHash(double F) { return hashDouble(F, SeedFloat); }

} // namespace rprism

#endif // RPRISM_TRACE_VALUEHASH_H
