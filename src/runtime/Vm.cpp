//===- runtime/Vm.cpp - Bytecode interpreter ------------------------------===//

#include "runtime/Vm.h"

#include "lang/Ast.h" // BinOp/UnOp/BuiltinKind enums.
#include "runtime/TraceRecorder.h"
#include "support/Hashing.h"
#include "support/Telemetry.h"

#include <cassert>
#include <cstdio>
#include <deque>

using namespace rprism;

namespace {

constexpr size_t MaxFrameDepth = 4096;

/// An activation record. Locals and operand stack live in the owning
/// thread's shared slot array: locals occupy [LocalBase, LocalBase +
/// NumLocals) and the operand stack grows above them, so calls pass
/// arguments by leaving them in place (they become the callee's first
/// locals) instead of copying through per-frame vectors.
struct Frame {
  uint32_t Method = 0;
  uint32_t Ip = 0;
  uint32_t SelfLoc = NoLoc;
  uint32_t LocalBase = 0;
  /// Slot height to restore when this frame returns; the return value (if
  /// kept) lands there. For plain calls this is the receiver's slot, so
  /// the receiver is consumed and replaced by the result.
  uint32_t RetBase = 0;
  /// Constructor frames and thread roots discard their return value (the
  /// `new` result was placed below the frame before it started).
  bool DiscardRet = false;
};

/// Execution state of one thread: the frame stack plus one contiguous
/// slot array shared by every frame's locals and operand stack.
struct ThreadExec {
  uint32_t Tid = 0;
  std::vector<Frame> Frames;
  std::vector<Value> Slots;
  uint32_t Top = 0; ///< Slots in use; the operand stack top.
  bool Done = false;
};

class Vm {
public:
  Vm(const CompiledProgram &ProgIn, const RunOptions &OptionsIn)
      : Prog(ProgIn), Options(OptionsIn), Store(ProgIn.Classes.size()),
        Recorder(ProgIn, Store, RtStrings, OptionsIn.Tracing,
                 OptionsIn.TraceName) {}

  RunResult run();

private:
  void fail(const std::string &Message) {
    if (!HasError) {
      HasError = true;
      ErrorMsg = Message;
    }
  }

  RecordContext ctxOf(const ThreadExec &T) const {
    const Frame &F = T.Frames.back();
    const CompiledMethod &M = Prog.Methods[F.Method];
    return {T.Tid, M.QualName, M.ClassId, F.SelfLoc};
  }

  /// Grows \p T's slot array; outlined so the inline push stays tiny.
  void growSlots(ThreadExec &T) {
    T.Slots.resize(std::max<size_t>(T.Slots.size() * 2, 64));
  }

  void pushVal(ThreadExec &T, Value V) {
    if (T.Top == T.Slots.size())
      growSlots(T);
    T.Slots[T.Top++] = V;
  }

  /// Runtime text of a string value.
  const std::string &str(const Value &V) const {
    return RtStrings.text(Symbol{V.strId()});
  }

  Value strOf(std::string_view Text) {
    return Value::ofStr(RtStrings.intern(Text).Id);
  }

  /// Runtime string id of the PushStr literal with compile-time symbol
  /// \p Sym, interned into the runtime table on first use.
  uint32_t litStrId(uint32_t Sym) {
    uint32_t &Id = LitStrIds[Sym];
    if (Id == ~0u)
      Id = RtStrings.intern(Prog.Strings->text(Symbol{Sym})).Id;
    return Id;
  }

  /// Enters \p MethodIndex. The arguments are already in place at
  /// [ArgsBase, Top): they become the callee's first locals; the remaining
  /// locals are cleared to Unit.
  void pushFrame(ThreadExec &T, uint32_t MethodIndex, uint32_t SelfLoc,
                 uint32_t ArgsBase, uint32_t RetBase, bool DiscardRet) {
    if (T.Frames.size() >= MaxFrameDepth) {
      fail("call stack overflow");
      return;
    }
    const CompiledMethod &M = Prog.Methods[MethodIndex];
    assert(T.Top - ArgsBase == M.NumParams && "argument count mismatch");
    uint32_t NewTop = ArgsBase + static_cast<uint32_t>(M.NumLocals);
    if (NewTop > T.Slots.size())
      T.Slots.resize(std::max<size_t>(T.Slots.size() * 2, NewTop));
    for (uint32_t I = T.Top; I < NewTop; ++I)
      T.Slots[I] = Value::unit();
    T.Top = NewTop;
    Frame F;
    F.Method = MethodIndex;
    F.SelfLoc = SelfLoc;
    F.LocalBase = ArgsBase;
    F.RetBase = RetBase;
    F.DiscardRet = DiscardRet;
    T.Frames.push_back(F);
  }

  Value defaultFieldValue(FieldDefaultKind Kind) {
    switch (Kind) {
    case FieldDefaultKind::Null:  return Value::null();
    case FieldDefaultKind::Int:   return Value::ofInt(0);
    case FieldDefaultKind::Bool:  return Value::ofBool(false);
    case FieldDefaultKind::Float: return Value::ofFloat(0);
    case FieldDefaultKind::Str:   return Value::ofStr(0); // Id 0 = "".
    case FieldDefaultKind::Unit:  return Value::unit();
    }
    return Value::unit();
  }

  void doBinary(ThreadExec &T, BinOp OpCode);
  void doBuiltin(ThreadExec &T, BuiltinKind Kind, uint32_t Argc);
  void doCall(ThreadExec &T, const Instr &In);
  void doSpawn(ThreadExec &T, const Instr &In);
  void doNew(ThreadExec &T, const Instr &In);
  void doSuperCtor(ThreadExec &T, const Instr &In);
  void doRet(ThreadExec &T, const Instr &In);
  uint64_t runSlice(ThreadExec &T, uint64_t Budget);
  void renderForPrint(const Value &V);

  const CompiledProgram &Prog;
  const RunOptions &Options;
  ObjectStore Store;
  /// VM-private runtime string table. Kept separate from the shared trace
  /// interner on purpose: trace files serialize the shared table and
  /// fingerprints hash its symbol ids, so interning transient runtime
  /// strings there would change trace bytes. The recorder re-interns only
  /// the texts that actually reach the trace, in record order, exactly as
  /// the string-carrying VM did.
  StringInterner RtStrings;
  TraceRecorder Recorder;
  std::deque<ThreadExec> Threads;
  std::vector<uint64_t> AncestryHashes;
  std::vector<uint32_t> LitStrIds; ///< Compile symbol -> runtime string id.
  std::vector<uint32_t> InputIds;  ///< Pre-interned Options.Inputs.
  std::string Output;
  std::string ErrorMsg;
  bool HasError = false;
  uint64_t Steps = 0;
};

} // namespace

void Vm::renderForPrint(const Value &V) {
  switch (V.K) {
  case Value::Kind::Unit:
    Output += "unit";
    break;
  case Value::Kind::Null:
    Output += "null";
    break;
  case Value::Kind::Int:
    Output += std::to_string(V.I);
    break;
  case Value::Kind::Bool:
    Output += V.I ? "true" : "false";
    break;
  case Value::Kind::Float: {
    char Buf[48];
    std::snprintf(Buf, sizeof(Buf), "%.6g", V.F);
    Output += Buf;
    break;
  }
  case Value::Kind::Str:
    Output += str(V);
    break;
  case Value::Kind::Obj:
    Output += "<object>";
    break;
  }
  Output += '\n';
}

void Vm::doBinary(ThreadExec &T, BinOp OpCode) {
  Value R = T.Slots[T.Top - 1];
  Value L = T.Slots[T.Top - 2];
  --T.Top; // The result overwrites L's slot.
  Value *Res = &T.Slots[T.Top - 1];

  auto BothInt = [&] {
    return L.K == Value::Kind::Int && R.K == Value::Kind::Int;
  };
  auto BothFloat = [&] {
    return L.K == Value::Kind::Float && R.K == Value::Kind::Float;
  };
  auto BothStr = [&] {
    return L.K == Value::Kind::Str && R.K == Value::Kind::Str;
  };
  // Int arithmetic wraps (two's complement), like Java's: compute in
  // unsigned space so extreme values (runaway mutants, adversarial
  // workloads) stay defined behavior instead of UB.
  auto WrapAdd = [](int64_t A, int64_t B) {
    return static_cast<int64_t>(static_cast<uint64_t>(A) +
                                static_cast<uint64_t>(B));
  };
  auto WrapSub = [](int64_t A, int64_t B) {
    return static_cast<int64_t>(static_cast<uint64_t>(A) -
                                static_cast<uint64_t>(B));
  };
  auto WrapMul = [](int64_t A, int64_t B) {
    return static_cast<int64_t>(static_cast<uint64_t>(A) *
                                static_cast<uint64_t>(B));
  };

  switch (OpCode) {
  case BinOp::Add:
    if (BothInt())
      *Res = Value::ofInt(WrapAdd(L.I, R.I));
    else if (BothFloat())
      *Res = Value::ofFloat(L.F + R.F);
    else if (BothStr())
      *Res = strOf(str(L) + str(R));
    else
      fail("'+' on incompatible runtime values");
    return;
  case BinOp::Sub:
    if (BothInt())
      *Res = Value::ofInt(WrapSub(L.I, R.I));
    else if (BothFloat())
      *Res = Value::ofFloat(L.F - R.F);
    else
      fail("'-' on incompatible runtime values");
    return;
  case BinOp::Mul:
    if (BothInt())
      *Res = Value::ofInt(WrapMul(L.I, R.I));
    else if (BothFloat())
      *Res = Value::ofFloat(L.F * R.F);
    else
      fail("'*' on incompatible runtime values");
    return;
  case BinOp::Div:
    if (BothInt()) {
      if (R.I == 0)
        return fail("division by zero");
      // INT64_MIN / -1 overflows; wrap to INT64_MIN like Java.
      if (R.I == -1)
        *Res = Value::ofInt(WrapSub(0, L.I));
      else
        *Res = Value::ofInt(L.I / R.I);
    } else if (BothFloat()) {
      *Res = Value::ofFloat(L.F / R.F);
    } else {
      fail("'/' on incompatible runtime values");
    }
    return;
  case BinOp::Rem:
    if (BothInt()) {
      if (R.I == 0)
        return fail("remainder by zero");
      // INT64_MIN % -1 traps in hardware; the result is 0.
      *Res = Value::ofInt(R.I == -1 ? 0 : L.I % R.I);
    } else {
      fail("'%' on incompatible runtime values");
    }
    return;
  case BinOp::Lt:
  case BinOp::LtEq:
  case BinOp::Gt:
  case BinOp::GtEq: {
    int Cmp;
    if (BothInt())
      Cmp = L.I < R.I ? -1 : (L.I == R.I ? 0 : 1);
    else if (BothFloat())
      Cmp = L.F < R.F ? -1 : (L.F == R.F ? 0 : 1);
    else if (BothStr()) {
      // Interned ids make equality O(1); order still compares texts.
      const std::string &LS = str(L), &RS = str(R);
      Cmp = L.I == R.I ? 0 : (LS < RS ? -1 : (LS == RS ? 0 : 1));
    } else
      return fail("comparison on incompatible runtime values");
    bool Result = OpCode == BinOp::Lt     ? Cmp < 0
                  : OpCode == BinOp::LtEq ? Cmp <= 0
                  : OpCode == BinOp::Gt   ? Cmp > 0
                                          : Cmp >= 0;
    *Res = Value::ofBool(Result);
    return;
  }
  case BinOp::Eq:
  case BinOp::NotEq: {
    bool Equal;
    if (L.K != R.K) {
      // Only null-vs-object crosses kinds after type checking.
      Equal = false;
    } else {
      switch (L.K) {
      case Value::Kind::Unit:  Equal = true; break;
      case Value::Kind::Null:  Equal = true; break;
      case Value::Kind::Int:
      case Value::Kind::Bool:  Equal = L.I == R.I; break;
      case Value::Kind::Float: Equal = L.F == R.F; break;
      case Value::Kind::Str:   Equal = L.I == R.I; break; // Interned ids.
      case Value::Kind::Obj:   Equal = L.loc() == R.loc(); break;
      default:                 Equal = false; break;
      }
    }
    *Res = Value::ofBool(OpCode == BinOp::Eq ? Equal : !Equal);
    return;
  }
  case BinOp::And:
  case BinOp::Or:
    // Compiled to short-circuit jumps; never reaches the Binary opcode.
    fail("unexpected And/Or opcode");
    return;
  }
}

void Vm::doBuiltin(ThreadExec &T, BuiltinKind Kind, uint32_t Argc) {
  // Arguments are consumed in place: read at [Top - Argc, Top), then the
  // result overwrites the lowest argument slot.
  const Value *Args = T.Slots.data() + (T.Top - Argc);
  auto ClampIndex = [](int64_t I, size_t Size) -> size_t {
    if (I < 0)
      return 0;
    return I > static_cast<int64_t>(Size) ? Size : static_cast<size_t>(I);
  };

  Value Result;
  switch (Kind) {
  case BuiltinKind::Input: {
    size_t Index = static_cast<size_t>(Args[0].I);
    Result = Value::ofStr(Index < InputIds.size() ? InputIds[Index] : 0);
    break;
  }
  case BuiltinKind::InputInt: {
    size_t Index = static_cast<size_t>(Args[0].I);
    Result = Value::ofInt(
        Index < Options.IntInputs.size() ? Options.IntInputs[Index] : 0);
    break;
  }
  case BuiltinKind::Len:
    Result = Value::ofInt(static_cast<int64_t>(str(Args[0]).size()));
    break;
  case BuiltinKind::CharAt: {
    const std::string &S = str(Args[0]);
    int64_t I = Args[1].I;
    Result = Value::ofInt(
        I >= 0 && I < static_cast<int64_t>(S.size())
            ? static_cast<unsigned char>(S[static_cast<size_t>(I)])
            : -1);
    break;
  }
  case BuiltinKind::Substr: {
    const std::string &S = str(Args[0]);
    size_t Begin = ClampIndex(Args[1].I, S.size());
    size_t Len = ClampIndex(Args[2].I, S.size() - Begin);
    Result = strOf(std::string_view(S).substr(Begin, Len));
    break;
  }
  case BuiltinKind::Chr: {
    char C = static_cast<char>(Args[0].I & 0xff);
    Result = strOf(std::string_view(&C, 1));
    break;
  }
  case BuiltinKind::Ord: {
    const std::string &S = str(Args[0]);
    Result = Value::ofInt(S.empty() ? -1 : static_cast<unsigned char>(S[0]));
    break;
  }
  case BuiltinKind::StrOfInt:
    Result = strOf(std::to_string(Args[0].I));
    break;
  case BuiltinKind::StrOfFloat: {
    char Buf[48];
    std::snprintf(Buf, sizeof(Buf), "%.6g", Args[0].F);
    Result = strOf(Buf);
    break;
  }
  case BuiltinKind::ParseInt: {
    // Total: malformed input parses as 0; overlong digit strings wrap
    // (unsigned accumulation keeps the arithmetic defined).
    const std::string &S = str(Args[0]);
    uint64_t Acc = 0;
    bool Negative = false;
    size_t I = 0;
    if (I < S.size() && (S[I] == '-' || S[I] == '+')) {
      Negative = S[I] == '-';
      ++I;
    }
    for (; I < S.size() && S[I] >= '0' && S[I] <= '9'; ++I)
      Acc = Acc * 10 + static_cast<uint64_t>(S[I] - '0');
    Result = Value::ofInt(static_cast<int64_t>(Negative ? 0 - Acc : Acc));
    break;
  }
  case BuiltinKind::Contains:
    Result = Value::ofBool(str(Args[0]).find(str(Args[1])) !=
                           std::string::npos);
    break;
  case BuiltinKind::IndexOf: {
    size_t Pos = str(Args[0]).find(str(Args[1]));
    Result = Value::ofInt(
        Pos == std::string::npos ? -1 : static_cast<int64_t>(Pos));
    break;
  }
  case BuiltinKind::IntOfFloat:
    Result = Value::ofInt(static_cast<int64_t>(Args[0].F));
    break;
  case BuiltinKind::FloatOfInt:
    Result = Value::ofFloat(static_cast<double>(Args[0].I));
    break;
  default:
    return fail("unknown builtin");
  }
  T.Top -= Argc;
  pushVal(T, Result);
}

void Vm::doCall(ThreadExec &T, const Instr &In) {
  uint32_t Argc = static_cast<uint32_t>(In.B);
  uint32_t ArgsBase = T.Top - Argc;
  Value Recv = T.Slots[ArgsBase - 1];
  if (!Recv.isObj()) {
    fail("method call on null");
    return;
  }
  const HeapObj &Obj = Store.get(Recv.loc());
  const RtClass &Class = Prog.Classes[Obj.ClassId];
  uint32_t Target = Class.Dispatch[static_cast<uint32_t>(In.A)];
  if (Target == NoMethod) {
    fail("no method '" + Prog.Strings->text(Prog.MethodSlotNames[In.A]) +
         "' on class '" + Prog.Strings->text(Class.Name) + "'");
    return;
  }
  const CompiledMethod &Callee = Prog.Methods[Target];
  // METH-E: record in the caller's context, then enter the callee. The
  // arguments stay in place and become the callee's locals; the receiver
  // slot below them receives the return value.
  Recorder.recordCall(ctxOf(T), Recv.loc(), Callee.QualName,
                      T.Slots.data() + ArgsBase, Argc, In.Prov);
  pushFrame(T, Target, Recv.loc(), ArgsBase, /*RetBase=*/ArgsBase - 1,
            /*DiscardRet=*/false);
}

void Vm::doSpawn(ThreadExec &T, const Instr &In) {
  uint32_t Argc = static_cast<uint32_t>(In.B);
  uint32_t ArgsBase = T.Top - Argc;
  Value Recv = T.Slots[ArgsBase - 1];
  if (!Recv.isObj()) {
    fail("spawn on null");
    return;
  }
  const HeapObj &Obj = Store.get(Recv.loc());
  const RtClass &Class = Prog.Classes[Obj.ClassId];
  uint32_t Target = Class.Dispatch[static_cast<uint32_t>(In.A)];
  if (Target == NoMethod) {
    fail("no method to spawn on class '" + Prog.Strings->text(Class.Name) +
         "'");
    return;
  }
  const CompiledMethod &Callee = Prog.Methods[Target];

  uint32_t ChildTid = static_cast<uint32_t>(Threads.size());

  // FORK-E: capture the full spawn ancestry (spawn-point call stack chained
  // with the parent's ancestry hash) for cross-trace thread correlation.
  ThreadInfo Info;
  Info.Tid = ChildTid;
  Info.ParentTid = T.Tid;
  Info.EntryMethod = Callee.QualName;
  uint64_t StackHash = HashInit;
  for (const Frame &Fr : T.Frames) {
    Symbol Qual = Prog.Methods[Fr.Method].QualName;
    Info.SpawnStack.push_back(Qual);
    StackHash = hashMix(StackHash, Qual.Id);
  }
  Info.AncestryHash = hashCombine(AncestryHashes[T.Tid], StackHash,
                                  Callee.QualName.Id);
  AncestryHashes.push_back(Info.AncestryHash);
  Recorder.addThread(Info);
  Recorder.recordFork(ctxOf(T), ChildTid, In.Prov);

  ThreadExec Child;
  Child.Tid = ChildTid;
  // The child's root frame takes the arguments as its first locals.
  Child.Slots.assign(T.Slots.data() + ArgsBase, T.Slots.data() + T.Top);
  Child.Top = Argc;
  T.Top = ArgsBase - 1; // Consume receiver + arguments.
  Threads.push_back(std::move(Child));
  // Note: Threads is a deque, so &T stays valid across push_back.
  pushFrame(Threads.back(), Target, Recv.loc(), /*ArgsBase=*/0,
            /*RetBase=*/0, /*DiscardRet=*/true);
}

void Vm::doNew(ThreadExec &T, const Instr &In) {
  uint32_t ClassId = static_cast<uint32_t>(In.A);
  uint32_t Argc = static_cast<uint32_t>(In.B);
  const RtClass &Class = Prog.Classes[ClassId];
  uint32_t ArgsBase = T.Top - Argc;

  uint32_t Loc = Store.alloc(ClassId, Class.FieldNames.size());
  {
    HeapObj &Obj = Store.get(Loc);
    for (size_t I = 0; I != Class.FieldDefaults.size(); ++I)
      Obj.Fields[I] = defaultFieldValue(Class.FieldDefaults[I]);
  }

  // CONS-E: the init entry is the "--> C.new(...)" marker of Fig. 13.
  Recorder.recordInit(ctxOf(T), Class.Name, Loc, T.Slots.data() + ArgsBase,
                      Argc, In.Prov);

  if (Class.CtorMethod >= 0) {
    // The result sits *below* the ctor frame: slide the arguments up one
    // slot and park the object where the discarded ctor return pops to.
    if (T.Top == T.Slots.size())
      growSlots(T);
    for (uint32_t I = T.Top; I > ArgsBase; --I)
      T.Slots[I] = T.Slots[I - 1];
    T.Slots[ArgsBase] = Value::ofObj(Loc);
    ++T.Top;
    pushFrame(T, static_cast<uint32_t>(Class.CtorMethod), Loc,
              /*ArgsBase=*/ArgsBase + 1, /*RetBase=*/ArgsBase + 1,
              /*DiscardRet=*/true);
  } else {
    // No constructor body anywhere in the chain: emit the matching
    // "<-- C.new" immediately.
    T.Top = ArgsBase;
    pushVal(T, Value::ofObj(Loc));
    Symbol Qual = Prog.Strings->intern(Prog.Strings->text(Class.Name) +
                                       ".<init>");
    Recorder.recordReturn(ctxOf(T), Loc, Qual, Value::unit(), In.Prov);
  }
}

void Vm::doSuperCtor(ThreadExec &T, const Instr &In) {
  uint32_t Argc = static_cast<uint32_t>(In.A);
  uint32_t ArgsBase = T.Top - Argc;
  const Frame &F = T.Frames.back();
  const CompiledMethod &M = Prog.Methods[F.Method];
  assert(M.IsCtor && "SuperCtor outside a constructor");
  (void)M;

  // Nearest ancestor with its own constructor.
  int32_t Target = -1;
  for (uint32_t C = Prog.Classes[M.ClassId].SuperId; C != ~0u;
       C = Prog.Classes[C].SuperId) {
    if (Prog.Classes[C].OwnCtorMethod >= 0) {
      Target = Prog.Classes[C].OwnCtorMethod;
      break;
    }
  }
  if (Target < 0) {
    T.Top = ArgsBase; // Root of the ctor chain: args consumed, nothing runs.
    return;
  }

  const CompiledMethod &Callee = Prog.Methods[Target];
  uint32_t SelfLoc = F.SelfLoc;
  Recorder.recordCall(ctxOf(T), SelfLoc, Callee.QualName,
                      T.Slots.data() + ArgsBase, Argc, In.Prov);
  pushFrame(T, static_cast<uint32_t>(Target), SelfLoc, ArgsBase,
            /*RetBase=*/ArgsBase, /*DiscardRet=*/true);
}

void Vm::doRet(ThreadExec &T, const Instr &In) {
  Frame Finished = T.Frames.back();
  T.Frames.pop_back();
  Value Ret = T.Slots[T.Top - 1];
  const CompiledMethod &M = Prog.Methods[Finished.Method];
  T.Top = Finished.RetBase;

  if (T.Frames.empty()) {
    // END-E: thread root returned.
    RecordContext Ctx{T.Tid, M.QualName, M.ClassId, Finished.SelfLoc};
    Recorder.recordEnd(Ctx, T.Tid, In.Prov);
    T.Done = true;
    return;
  }

  // RETURN-E: recorded in the *caller's* context (the frame now on top).
  Recorder.recordReturn(ctxOf(T), Finished.SelfLoc, M.QualName,
                        M.IsCtor ? Value::unit() : Ret, In.Prov);
  if (!Finished.DiscardRet)
    T.Slots[T.Top++] = Ret; // RetBase < old Top, so capacity exists.
}

// The interpreter slice: runs \p Budget instructions on one thread (or
// fewer on error / thread completion) and returns the count actually
// executed. Each opcode body ends in one of three continuations:
//
//   RPRISM_NEXT()          the opcode cannot fail or change frames
//   RPRISM_NEXT_CHECKED()  the opcode may have called fail()
//   RPRISM_NEXT_SYNC()     the opcode may have pushed/popped frames (or
//                          ended the thread); resynchronize F/Code/Ip
//
// Frame-changing bodies write the advanced Ip back before calling their
// helper; everything else keeps Ip in a local.
uint64_t Vm::runSlice(ThreadExec &T, uint64_t Budget) {
  if (Budget == 0)
    return 0;
  uint64_t Left = Budget; // Decremented as each instruction begins.
  Frame *F = &T.Frames.back();
  const Instr *Code = Prog.Methods[F->Method].Code.data();
  uint32_t Ip = F->Ip;
  const Instr *In;

  // Token-threaded dispatch: one indirect branch per instruction, placed at
  // the end of every opcode body so the branch predictor keys on the
  // current opcode (a single shared switch branch is near-unpredictable).
  // The table must match the Op enum order exactly.
  static const void *const Labels[] = {
      &&Lbl_PushInt,   &&Lbl_PushFloat,   &&Lbl_PushStr,  &&Lbl_PushBool,
      &&Lbl_PushNull,  &&Lbl_PushUnit,    &&Lbl_LoadLocal, &&Lbl_StoreLocal,
      &&Lbl_Dup,       &&Lbl_Pop,         &&Lbl_LoadThis, &&Lbl_GetField,
      &&Lbl_SetField,  &&Lbl_Call,        &&Lbl_SuperCtor, &&Lbl_New,
      &&Lbl_Ret,       &&Lbl_Jump,        &&Lbl_JumpIfFalse,
      &&Lbl_JumpIfTrue, &&Lbl_Binary,     &&Lbl_Unary,    &&Lbl_Print,
      &&Lbl_Spawn,     &&Lbl_Builtin,
  };

#define RPRISM_DISPATCH()                                                      \
  do {                                                                         \
    --Left;                                                                    \
    In = &Code[Ip++];                                                          \
    goto *Labels[static_cast<size_t>(In->Code)];                               \
  } while (0)
#define RPRISM_NEXT()                                                          \
  do {                                                                         \
    if (Left == 0)                                                             \
      goto SliceDone;                                                          \
    RPRISM_DISPATCH();                                                         \
  } while (0)
#define RPRISM_NEXT_CHECKED()                                                  \
  do {                                                                         \
    if (HasError)                                                              \
      goto SliceDone;                                                          \
    RPRISM_NEXT();                                                             \
  } while (0)
#define RPRISM_NEXT_SYNC()                                                     \
  do {                                                                         \
    if (HasError || T.Done)                                                    \
      goto SliceDone;                                                          \
    F = &T.Frames.back();                                                      \
    Code = Prog.Methods[F->Method].Code.data();                                \
    Ip = F->Ip;                                                                \
    RPRISM_NEXT();                                                             \
  } while (0)

  RPRISM_DISPATCH();

  Lbl_PushInt: {
    pushVal(T, Value::ofInt(Prog.IntPool[In->A]));
  }
  RPRISM_NEXT();

  Lbl_PushFloat: {
    pushVal(T, Value::ofFloat(Prog.FloatPool[In->A]));
  }
  RPRISM_NEXT();

  Lbl_PushStr: {
    pushVal(T, Value::ofStr(litStrId(static_cast<uint32_t>(In->A))));
  }
  RPRISM_NEXT();

  Lbl_PushBool: {
    pushVal(T, Value::ofBool(In->A != 0));
  }
  RPRISM_NEXT();

  Lbl_PushNull: {
    pushVal(T, Value::null());
  }
  RPRISM_NEXT();

  Lbl_PushUnit: {
    pushVal(T, Value::unit());
  }
  RPRISM_NEXT();

  Lbl_LoadLocal: {
    pushVal(T, T.Slots[F->LocalBase + In->A]);
  }
  RPRISM_NEXT();

  Lbl_StoreLocal: {
    T.Slots[F->LocalBase + In->A] = T.Slots[--T.Top];
  }
  RPRISM_NEXT();

  Lbl_Dup: {
    pushVal(T, T.Slots[T.Top - 1]);
  }
  RPRISM_NEXT();

  Lbl_Pop: {
    --T.Top;
  }
  RPRISM_NEXT();

  Lbl_LoadThis: {
    pushVal(T, Value::ofObj(F->SelfLoc));
  }
  RPRISM_NEXT();

  Lbl_GetField: {
    Value ObjVal = T.Slots[T.Top - 1];
    if (!ObjVal.isObj()) {
      fail("field access on null");
      RPRISM_NEXT_CHECKED();
    }
    const Value &FieldVal = Store.get(ObjVal.loc()).Fields[In->A];
    // FIELD-ACC-E.
    Recorder.recordGet(ctxOf(T), ObjVal.loc(),
                       Symbol{static_cast<uint32_t>(In->B)}, FieldVal,
                       In->Prov);
    T.Slots[T.Top - 1] = FieldVal;
  }
  RPRISM_NEXT();

  Lbl_SetField: {
    Value NewVal = T.Slots[T.Top - 1];
    Value ObjVal = T.Slots[T.Top - 2];
    if (!ObjVal.isObj()) {
      fail("field assignment on null");
      RPRISM_NEXT_CHECKED();
    }
    Store.setField(ObjVal.loc(), static_cast<uint32_t>(In->A), NewVal);
    // FIELD-ASS-E.
    Recorder.recordSet(ctxOf(T), ObjVal.loc(),
                       Symbol{static_cast<uint32_t>(In->B)}, NewVal,
                       In->Prov);
    --T.Top;
    T.Slots[T.Top - 1] = NewVal;
  }
  RPRISM_NEXT();

  Lbl_Call: {
    F->Ip = Ip;
    doCall(T, *In);
  }
  RPRISM_NEXT_SYNC();

  Lbl_SuperCtor: {
    F->Ip = Ip;
    doSuperCtor(T, *In);
  }
  RPRISM_NEXT_SYNC();

  Lbl_New: {
    F->Ip = Ip;
    doNew(T, *In);
  }
  RPRISM_NEXT_SYNC();

  Lbl_Ret: {
    doRet(T, *In);
  }
  RPRISM_NEXT_SYNC();

  Lbl_Jump: {
    Ip = static_cast<uint32_t>(In->A);
  }
  RPRISM_NEXT();

  Lbl_JumpIfFalse: {
    if (!T.Slots[--T.Top].truthy())
      Ip = static_cast<uint32_t>(In->A);
  }
  RPRISM_NEXT();

  Lbl_JumpIfTrue: {
    if (T.Slots[--T.Top].truthy())
      Ip = static_cast<uint32_t>(In->A);
  }
  RPRISM_NEXT();

  Lbl_Binary: {
    doBinary(T, static_cast<BinOp>(In->A));
  }
  RPRISM_NEXT_CHECKED();

  Lbl_Unary: {
    Value V = T.Slots[T.Top - 1];
    if (static_cast<UnOp>(In->A) == UnOp::Not)
      T.Slots[T.Top - 1] = Value::ofBool(!V.truthy());
    else if (V.K == Value::Kind::Int)
      T.Slots[T.Top - 1] = Value::ofInt(static_cast<int64_t>(
          0 - static_cast<uint64_t>(V.I)));
    else
      T.Slots[T.Top - 1] = Value::ofFloat(-V.F);
  }
  RPRISM_NEXT();

  Lbl_Print: {
    renderForPrint(T.Slots[--T.Top]);
  }
  RPRISM_NEXT();

  Lbl_Spawn: {
    // Appends to Threads (a deque: T stays valid) and pushes onto the
    // *child's* frame stack only, so no resync of F/Code/Ip is needed.
    doSpawn(T, *In);
  }
  RPRISM_NEXT_CHECKED();

  Lbl_Builtin: {
    doBuiltin(T, static_cast<BuiltinKind>(In->A),
              static_cast<uint32_t>(In->B));
  }
  RPRISM_NEXT_CHECKED();

SliceDone:
  if (!T.Done)
    F->Ip = Ip;
  return Budget - Left;
}

#undef RPRISM_DISPATCH
#undef RPRISM_NEXT
#undef RPRISM_NEXT_CHECKED
#undef RPRISM_NEXT_SYNC

RunResult Vm::run() {
  // Main thread (tid 0).
  Symbol MainSym = Prog.Strings->intern("main");
  ThreadInfo MainInfo;
  MainInfo.Tid = 0;
  MainInfo.ParentTid = 0;
  MainInfo.EntryMethod = MainSym;
  MainInfo.AncestryHash = hashCombine(MainSym.Id);
  Recorder.addThread(MainInfo);
  AncestryHashes.push_back(MainInfo.AncestryHash);

  // Lazy literal-id cache: compile-time symbols are all interned already,
  // so the table size is fixed for the whole run.
  LitStrIds.assign(Prog.Strings->size(), ~0u);
  InputIds.reserve(Options.Inputs.size());
  for (const std::string &Input : Options.Inputs)
    InputIds.push_back(RtStrings.intern(Input).Id);

  ThreadExec Main;
  Main.Tid = 0;
  Threads.push_back(std::move(Main));
  pushFrame(Threads.front(), Prog.MainMethod, NoLoc, /*ArgsBase=*/0,
            /*RetBase=*/0, /*DiscardRet=*/true);

  bool StepLimit = false;
  while (!HasError && !StepLimit) {
    bool AnyAlive = false;
    // Index loop: doSpawn may append to Threads mid-round; new threads get
    // their first slice next round, deterministically.
    size_t NumAtRoundStart = Threads.size();
    for (size_t I = 0; I != NumAtRoundStart; ++I) {
      ThreadExec &T = Threads[I];
      if (T.Done)
        continue;
      AnyAlive = true;
      if (Steps >= Options.MaxSteps) {
        // Same observable as the per-instruction guard: Steps counts the
        // attempted instruction that tripped the limit.
        ++Steps;
        StepLimit = true;
        break;
      }
      uint64_t Budget =
          std::min<uint64_t>(Options.Quantum, Options.MaxSteps - Steps);
      Steps += runSlice(T, Budget);
      if (HasError)
        break;
    }
    if (!AnyAlive)
      break;
  }

  RunResult Result;
  Result.Steps = Steps;
  if (StepLimit) {
    Result.Error = "step limit exceeded";
    Output += "!error: step limit exceeded\n";
  } else if (HasError) {
    Result.Error = ErrorMsg;
    Output += "!error: " + ErrorMsg + "\n";
  } else {
    Result.Completed = true;
  }
  Result.Output = std::move(Output);
  {
    TelemetrySpan RecordSpan("record");
    Result.ExecTrace = Recorder.take();
  }
  Telemetry::counterAdd("vm.steps", Steps);
  Telemetry::counterAdd("vm.instructions", Steps);
  Telemetry::counterAdd("trace.entries_recorded", Result.ExecTrace.size());
  Telemetry::counterAdd("vm.entries_emitted", Result.ExecTrace.size());
  Telemetry::counterAdd("vm.repr_memo_hits", Recorder.memoHits());
  return Result;
}

RunResult rprism::runProgram(const CompiledProgram &Prog,
                             const RunOptions &Options) {
  TelemetrySpan Span("vm-run");
  Vm Machine(Prog, Options);
  return Machine.run();
}
