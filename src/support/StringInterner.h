//===- support/StringInterner.h - Symbol table for interned strings ------===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interned strings ("symbols"). A Symbol is a dense 32-bit id valid within
/// one StringInterner. Trace differencing compares traces from *two* program
/// versions, so a DiffSession shares one interner across both traces; equal
/// names then compare as equal symbol ids.
///
//===----------------------------------------------------------------------===//

#ifndef RPRISM_SUPPORT_STRINGINTERNER_H
#define RPRISM_SUPPORT_STRINGINTERNER_H

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

namespace rprism {

/// A dense id for an interned string. Symbol 0 is always the empty string.
struct Symbol {
  uint32_t Id = 0;

  friend bool operator==(Symbol A, Symbol B) { return A.Id == B.Id; }
  friend bool operator!=(Symbol A, Symbol B) { return A.Id != B.Id; }
  friend bool operator<(Symbol A, Symbol B) { return A.Id < B.Id; }

  /// True for the empty-string symbol; used as "no name".
  bool empty() const { return Id == 0; }
};

/// Owns interned string storage and hands out Symbols in first-sight
/// order.
///
/// The index is one flat open-addressing table (power-of-two size, linear
/// probing, at most half full). Each slot holds a symbol id and the low 32
/// bits of its string's checksumBytes hash: a probe compares text only
/// when those bits match, and growth re-slots entries from the stored bits
/// without reading a string again.
class StringInterner {
public:
  StringInterner();

  /// Returns the symbol for \p Str, interning it on first sight.
  Symbol intern(std::string_view Str);

  /// Returns the text of \p Sym. The reference is stable for the lifetime of
  /// the interner.
  const std::string &text(Symbol Sym) const;

  /// Number of distinct interned strings (including the empty string).
  size_t size() const { return Storage.size(); }

private:
  struct Slot {
    uint32_t Id = EmptySlot;
    uint32_t Hash = 0;
  };
  static constexpr uint32_t EmptySlot = ~0u;

  /// Inserts symbol \p Id, known absent, under hash bits \p Hash.
  void place(uint32_t Id, uint32_t Hash);
  /// Doubles the index and re-slots every symbol.
  void grow();

  // Deque: stored strings never move, so text() references stay valid as
  // the table grows.
  std::deque<std::string> Storage;
  std::vector<Slot> Slots;
};

} // namespace rprism

#endif // RPRISM_SUPPORT_STRINGINTERNER_H
