//===- support/StringInterner.cpp -----------------------------------------===//

#include "support/StringInterner.h"

#include "support/Hashing.h"

#include <cassert>

using namespace rprism;

namespace {

constexpr size_t InitialSlots = 64; // Power of two.

uint32_t hashOf(std::string_view Str) {
  return static_cast<uint32_t>(checksumBytes(Str.data(), Str.size()));
}

} // namespace

StringInterner::StringInterner() : Slots(InitialSlots) {
  // Symbol 0 is the empty string so that a default Symbol is "no name".
  Storage.emplace_back();
  place(0, hashOf(""));
}

void StringInterner::place(uint32_t Id, uint32_t Hash) {
  size_t Mask = Slots.size() - 1;
  size_t I = Hash & Mask;
  while (Slots[I].Id != EmptySlot)
    I = (I + 1) & Mask;
  Slots[I] = Slot{Id, Hash};
}

void StringInterner::grow() {
  std::vector<Slot> Old(Slots.size() * 2);
  Old.swap(Slots);
  for (const Slot &S : Old)
    if (S.Id != EmptySlot)
      place(S.Id, S.Hash);
}

Symbol StringInterner::intern(std::string_view Str) {
  uint32_t Hash = hashOf(Str);
  size_t Mask = Slots.size() - 1;
  for (size_t I = Hash & Mask; Slots[I].Id != EmptySlot; I = (I + 1) & Mask)
    if (Slots[I].Hash == Hash && Storage[Slots[I].Id] == Str)
      return Symbol{Slots[I].Id};
  uint32_t NewId = static_cast<uint32_t>(Storage.size());
  Storage.emplace_back(Str);
  // Keep the index at most half full so probe runs stay short.
  if (Storage.size() * 2 > Slots.size())
    grow();
  place(NewId, Hash);
  return Symbol{NewId};
}

const std::string &StringInterner::text(Symbol Sym) const {
  assert(Sym.Id < Storage.size() && "symbol from a different interner");
  return Storage[Sym.Id];
}
