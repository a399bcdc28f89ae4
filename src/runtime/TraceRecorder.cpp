//===- runtime/TraceRecorder.cpp ------------------------------------------===//

#include "runtime/TraceRecorder.h"

#include "support/Hashing.h"
#include "trace/ValueHash.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace rprism;

namespace {

/// Truncation limit for printable renderings, mirroring RPRISM's 128-char
/// toString cap (§5).
constexpr size_t MaxPrintable = 128;

std::string_view truncated(const std::string &Text) {
  std::string_view View(Text);
  return View.size() > MaxPrintable ? View.substr(0, MaxPrintable) : View;
}

/// The kind-seeded hash of a scalar value's row (trace/ValueHash.h).
uint64_t scalarHash(const Value &V) {
  switch (V.K) {
  case Value::Kind::Unit: return SeedUnit;
  case Value::Kind::Null: return SeedNull;
  case Value::Kind::Int: return intValueHash(V.I);
  case Value::Kind::Bool: return boolValueHash(V.I != 0);
  case Value::Kind::Float: return floatValueHash(V.F);
  case Value::Kind::Str:
  case Value::Kind::Obj:
    break;
  }
  assert(false && "not a scalar value");
  return 0;
}

} // namespace

TraceRecorder::TraceRecorder(const CompiledProgram &ProgIn,
                             const ObjectStore &StoreIn,
                             const StringInterner &RtStringsIn,
                             const TraceOptions &OptionsIn,
                             std::string TraceName)
    : Prog(ProgIn), Store(StoreIn), RtStrings(RtStringsIn),
      Options(OptionsIn) {
  Out.Name = std::move(TraceName);
  Out.Strings = Prog.Strings;
  ClassExcluded.resize(Prog.Classes.size(), false);
  ClassNoRepr.resize(Prog.Classes.size(), false);
  ClassScalarOnly.resize(Prog.Classes.size(), false);
  for (size_t I = 0; I != Prog.Classes.size(); ++I) {
    const std::string &Name = Prog.Strings->text(Prog.Classes[I].Name);
    ClassExcluded[I] = Options.ExcludeClasses.count(Name) != 0;
    ClassNoRepr[I] = Options.NoReprClasses.count(Name) != 0;
    // A field defaulting to Null is the only way a field can hold an
    // object; everything else is a scalar, so the object's structural
    // hash depends only on its own slots (validated by its own version).
    bool ScalarOnly = true;
    for (FieldDefaultKind Kind : Prog.Classes[I].FieldDefaults)
      ScalarOnly &= Kind != FieldDefaultKind::Null;
    ClassScalarOnly[I] = ScalarOnly;
  }
  SmallIntMemo.resize(static_cast<size_t>(SmallIntMax - SmallIntMin + 1));
  BigIntMemo.resize(BigIntMemoSize);

  // Pre-size the entry columns and argument pool from the program's code
  // size — a floor, not an estimate (entry counts scale with executed
  // instructions), but it removes the first reallocation doublings.
  size_t CodeUnits = 0;
  for (const CompiledMethod &M : Prog.Methods)
    CodeUnits += M.Code.size();
  size_t EntryHint =
      std::min<size_t>(std::max<size_t>(CodeUnits * 8, 1024), 1u << 20);
  Out.reserveEntries(EntryHint);
  Out.ArgIds.reserve(EntryHint / 2);
  EntryCap = EntryHint;
  ArgCap = EntryHint / 2;
}

uint64_t TraceRecorder::structuralHash(uint32_t Loc, unsigned Depth) {
  const HeapObj &Obj = Store.get(Loc);
  uint64_t H = hashMix(SeedObj, Prog.Classes[Obj.ClassId].Name.Id);
  if (Depth == 0)
    return H;
  // Cycle guard: a back-edge contributes only the class tag.
  if (std::find(Visiting.begin(), Visiting.end(), Loc) != Visiting.end())
    return H;
  Visiting.push_back(Loc);
  for (const Value &Field : Obj.Fields) {
    if (Field.K == Value::Kind::Obj) {
      uint32_t FieldLoc = Field.loc();
      const HeapObj &FieldObj = Store.get(FieldLoc);
      if (ClassNoRepr[FieldObj.ClassId])
        H = hashMix(H, hashMix(SeedObj, FieldObj.CreationSeq));
      else
        H = hashMix(H, structuralHash(FieldLoc, Depth - 1));
    } else if (Field.K == Value::Kind::Str) {
      // Hashing the text is the costly part: reuse the memoized row's.
      H = hashMix(H, Out.ValueReprs[valueRepr(Field)].Hash);
    } else {
      H = hashMix(H, scalarHash(Field));
    }
  }
  Visiting.pop_back();
  return H;
}

uint32_t TraceRecorder::objRepr(uint32_t Loc) {
  if (Loc == NoLoc)
    return 0;
  if (Loc >= ObjMemo.size())
    ObjMemo.resize(Store.size());
  ObjMemoEntry &Memo = ObjMemo[Loc];
  const HeapObj &Obj = Store.get(Loc);
  if (ClassNoRepr[Obj.ClassId]) {
    // The paper's "empty representation" rule: correlation falls back to
    // the class-specific creation sequence number — immutable, so the
    // memo never invalidates.
    if (Memo.ReprId) {
      ++MemoHits;
      return Memo.ReprId;
    }
    ObjRepr Repr;
    Repr.Loc = Loc;
    Repr.ClassName = Prog.Classes[Obj.ClassId].Name;
    Repr.CreationSeq = Obj.CreationSeq;
    Repr.HasRepr = false;
    Repr.ValueHash = 0;
    Memo.ReprId = Out.addObjRepr(Repr);
    return Memo.ReprId;
  }
  // +1 keeps a version-0 snapshot distinguishable from an empty memo.
  uint64_t Snap = ClassScalarOnly[Obj.ClassId]
                      ? static_cast<uint64_t>(Obj.Version) + 1
                      : Store.globalVersion() + 1;
  if (Memo.ReprId && Memo.Snap == Snap) {
    ++MemoHits;
    return Memo.ReprId;
  }
  ObjRepr Repr;
  Repr.Loc = Loc;
  Repr.ClassName = Prog.Classes[Obj.ClassId].Name;
  Repr.CreationSeq = Obj.CreationSeq;
  Repr.HasRepr = true;
  Visiting.clear();
  Repr.ValueHash = structuralHash(Loc, Options.ReprDepth);
  // A mutation elsewhere in the store invalidates the snapshot without
  // changing this object's representation: the row is then reused.
  if (!Memo.ReprId ||
      std::memcmp(&Out.ObjReprs[Memo.ReprId], &Repr, sizeof(Repr)) != 0)
    Memo.ReprId = Out.addObjRepr(Repr);
  Memo.Snap = Snap;
  return Memo.ReprId;
}

uint32_t TraceRecorder::addScalarRow(ReprKind Kind, const Value &V) {
  ValueRepr Repr;
  Repr.Kind = Kind;
  Repr.Hash = scalarHash(V);
  return Out.addValueRepr(Repr);
}

uint32_t TraceRecorder::memoScalarRow(uint32_t &Slot, ReprKind Kind,
                                      const Value &V) {
  if (Slot) {
    ++MemoHits;
    return Slot;
  }
  Slot = addScalarRow(Kind, V);
  return Slot;
}

uint32_t TraceRecorder::valueRepr(const Value &V) {
  ValueRepr Repr;
  auto &Strings = *Out.Strings;
  switch (V.K) {
  case Value::Kind::Unit:
    return memoScalarRow(UnitMemo, ReprKind::Unit, V);
  case Value::Kind::Null:
    return memoScalarRow(NullMemo, ReprKind::Null, V);
  case Value::Kind::Int: {
    if (V.I >= SmallIntMin && V.I <= SmallIntMax)
      return memoScalarRow(
          SmallIntMemo[static_cast<size_t>(V.I - SmallIntMin)], ReprKind::Int,
          V);
    // Direct-mapped probe for large ints (accumulators and counters leave
    // the small range immediately; each distinct value recurs across the
    // get/set/return sites that touch it).
    static_assert(BigIntMemoSize == (size_t{1} << 13));
    size_t Idx =
        (static_cast<uint64_t>(V.I) * 0x9E3779B97F4A7C15ull) >> (64 - 13);
    IntMemoEntry &Slot = BigIntMemo[Idx];
    if (Slot.Id && Slot.Key == V.I) {
      ++MemoHits;
      return Slot.Id;
    }
    Slot.Key = V.I;
    Slot.Id = addScalarRow(ReprKind::Int, V);
    return Slot.Id;
  }
  case Value::Kind::Bool:
    return memoScalarRow(V.I != 0 ? TrueMemo : FalseMemo, ReprKind::Bool, V);
  case Value::Kind::Float:
    // Floats are rare in workloads; left unmemoized.
    return addScalarRow(ReprKind::Float, V);
  case Value::Kind::Str: {
    uint32_t Id = V.strId();
    if (Id >= StrMemo.size())
      StrMemo.resize(RtStrings.size());
    uint32_t &Slot = StrMemo[Id];
    if (Slot) {
      ++MemoHits;
      return Slot;
    }
    const std::string &Text = RtStrings.text(Symbol{Id});
    Repr.Kind = ReprKind::Str;
    Repr.Hash = hashString(Text, SeedStr);
    Repr.Text = Strings.intern(truncated(Text));
    Slot = Out.addValueRepr(Repr);
    return Slot;
  }
  case Value::Kind::Obj: {
    Repr.Kind = ReprKind::Obj;
    uint32_t Loc = V.loc();
    uint32_t ObjId = objRepr(Loc);
    const ObjRepr Obj = Out.ObjReprs[ObjId];
    Repr.Hash = Obj.HasRepr
                    ? Obj.ValueHash
                    : hashCombine(Obj.ClassName.Id, Obj.CreationSeq);
    if (Loc == NoLoc) {
      Repr.Text = Strings.intern(Strings.text(Obj.ClassName) + "-" +
                                 std::to_string(Obj.CreationSeq));
      return Out.addValueRepr(Repr);
    }
    // The "Class-Seq" rendering is immutable per location.
    ObjMemoEntry &Memo = ObjMemo[Loc];
    if (!Memo.TextValid) {
      Memo.Text = Strings.intern(Strings.text(Obj.ClassName) + "-" +
                                 std::to_string(Obj.CreationSeq));
      Memo.TextValid = 1;
    } else {
      ++MemoHits;
    }
    Repr.Text = Memo.Text;
    // The value row derives from the object row alone (its text is
    // immutable), so it stays valid while the object keeps its row.
    if (Memo.ValueOf != ObjId) {
      Memo.ValueId = Out.addValueRepr(Repr);
      Memo.ValueOf = ObjId;
    }
    return Memo.ValueId;
  }
  }
  return 0;
}

bool TraceRecorder::filtered(const RecordContext &Ctx,
                             uint32_t TargetClassId) const {
  if (!Options.Enabled)
    return true;
  if (Ctx.MethodClass != ~0u && ClassExcluded[Ctx.MethodClass])
    return true;
  if (TargetClassId != ~0u && ClassExcluded[TargetClassId])
    return true;
  return false;
}

void TraceRecorder::emit(const RecordContext &Ctx, EventKind Kind,
                         Symbol Name, uint32_t SelfId, uint32_t TargetId,
                         uint32_t ValueId, uint32_t ArgsBegin,
                         uint32_t ArgsEnd, uint32_t ChildTid,
                         uint32_t Prov) {
  // Any entry mutation makes a previously loaded/computed view index
  // stale; drop it rather than serve a wrong partitioning.
  if (Out.ViewIdx.Present)
    Out.ViewIdx.clear();
  size_t I = StageLen;
  StTids[I] = Ctx.Tid;
  StMethods[I] = Ctx.Method;
  StSelfIds[I] = SelfId;
  StKinds[I] = static_cast<uint8_t>(Kind);
  StNames[I] = Name;
  StTargetIds[I] = TargetId;
  StValueIds[I] = ValueId;
  StArgsBegins[I] = ArgsBegin;
  StArgsEnds[I] = ArgsEnd;
  StChildTids[I] = ChildTid;
  StProvs[I] = Prov;
  if (++StageLen == StageCap)
    flushStage();
  // Fps is filled once by computeFingerprints at take().
}

void TraceRecorder::flushStage() {
  if (StageLen == 0)
    return;
  if (Out.size() + StageLen > EntryCap) {
    EntryCap = std::max(EntryCap * 4, Out.size() + StageLen);
    Out.reserveEntries(EntryCap);
  }
  Out.Tids.append(StTids, StageLen);
  Out.Methods.append(StMethods, StageLen);
  Out.SelfIds.append(StSelfIds, StageLen);
  Out.Kinds.append(StKinds, StageLen);
  Out.Names.append(StNames, StageLen);
  Out.TargetIds.append(StTargetIds, StageLen);
  Out.ValueIds.append(StValueIds, StageLen);
  Out.ArgsBegins.append(StArgsBegins, StageLen);
  Out.ArgsEnds.append(StArgsEnds, StageLen);
  Out.ChildTids.append(StChildTids, StageLen);
  Out.Provs.append(StProvs, StageLen);
  StageLen = 0;
}

Trace TraceRecorder::take() {
  flushStage();
  Out.computeFingerprints();
  return std::move(Out);
}

uint32_t TraceRecorder::pushArgs(const Value *Args, size_t NumArgs) {
  uint32_t Begin = static_cast<uint32_t>(Out.ArgIds.size());
  if (Out.ArgIds.size() + NumArgs > ArgCap) {
    ArgCap = std::max(ArgCap * 4, Out.ArgIds.size() + NumArgs);
    Out.ArgIds.reserve(ArgCap);
  }
  for (size_t I = 0; I != NumArgs; ++I)
    Out.ArgIds.push_back(valueRepr(Args[I]));
  return Begin;
}

void TraceRecorder::recordCall(const RecordContext &Ctx, uint32_t TargetLoc,
                               Symbol QualMethod, const Value *Args,
                               size_t NumArgs, uint32_t Prov) {
  uint32_t TargetClass =
      TargetLoc == NoLoc ? ~0u : Store.get(TargetLoc).ClassId;
  if (filtered(Ctx, TargetClass))
    return;
  uint32_t Begin = pushArgs(Args, NumArgs);
  uint32_t Self = objRepr(Ctx.SelfLoc);
  uint32_t Target = objRepr(TargetLoc);
  emit(Ctx, EventKind::Call, QualMethod, Self, Target, 0, Begin,
       static_cast<uint32_t>(Out.ArgIds.size()), 0, Prov);
}

void TraceRecorder::recordReturn(const RecordContext &Ctx,
                                 uint32_t TargetLoc, Symbol QualMethod,
                                 const Value &Ret, uint32_t Prov) {
  uint32_t TargetClass =
      TargetLoc == NoLoc ? ~0u : Store.get(TargetLoc).ClassId;
  if (filtered(Ctx, TargetClass))
    return;
  uint32_t RetRepr = valueRepr(Ret);
  uint32_t Self = objRepr(Ctx.SelfLoc);
  uint32_t Target = objRepr(TargetLoc);
  emit(Ctx, EventKind::Return, QualMethod, Self, Target, RetRepr, 0, 0, 0,
       Prov);
}

void TraceRecorder::recordGet(const RecordContext &Ctx, uint32_t TargetLoc,
                              Symbol Field, const Value &V, uint32_t Prov) {
  if (filtered(Ctx, Store.get(TargetLoc).ClassId))
    return;
  uint32_t Repr = valueRepr(V);
  uint32_t Self = objRepr(Ctx.SelfLoc);
  uint32_t Target = objRepr(TargetLoc);
  emit(Ctx, EventKind::FieldGet, Field, Self, Target, Repr, 0, 0, 0, Prov);
}

void TraceRecorder::recordSet(const RecordContext &Ctx, uint32_t TargetLoc,
                              Symbol Field, const Value &V, uint32_t Prov) {
  if (filtered(Ctx, Store.get(TargetLoc).ClassId))
    return;
  uint32_t Repr = valueRepr(V);
  uint32_t Self = objRepr(Ctx.SelfLoc);
  uint32_t Target = objRepr(TargetLoc);
  emit(Ctx, EventKind::FieldSet, Field, Self, Target, Repr, 0, 0, 0, Prov);
}

void TraceRecorder::recordInit(const RecordContext &Ctx, Symbol ClassName,
                               uint32_t NewLoc, const Value *Args,
                               size_t NumArgs, uint32_t Prov) {
  if (filtered(Ctx, Store.get(NewLoc).ClassId))
    return;
  uint32_t Begin = pushArgs(Args, NumArgs);
  uint32_t Self = objRepr(Ctx.SelfLoc);
  uint32_t Target = objRepr(NewLoc);
  emit(Ctx, EventKind::Init, ClassName, Self, Target, 0, Begin,
       static_cast<uint32_t>(Out.ArgIds.size()), 0, Prov);
}

void TraceRecorder::recordFork(const RecordContext &Ctx, uint32_t ChildTid,
                               uint32_t Prov) {
  if (filtered(Ctx, ~0u))
    return;
  uint32_t Self = objRepr(Ctx.SelfLoc);
  emit(Ctx, EventKind::Fork, Out.Threads[ChildTid].EntryMethod, Self, 0, 0,
       0, 0, ChildTid, Prov);
}

void TraceRecorder::recordEnd(const RecordContext &Ctx, uint32_t Tid,
                              uint32_t Prov) {
  if (filtered(Ctx, ~0u))
    return;
  uint32_t Self = objRepr(Ctx.SelfLoc);
  emit(Ctx, EventKind::End, Out.Threads[Tid].EntryMethod, Self, 0, 0, 0, 0,
       Tid, Prov);
}
