//===- runtime/Compiler.cpp -----------------------------------------------===//

#include "runtime/Compiler.h"

#include "support/Telemetry.h"

#include <cassert>
#include <sstream>
#include <unordered_map>

using namespace rprism;

const char *rprism::opName(Op Code) {
  switch (Code) {
  case Op::PushInt:     return "push.int";
  case Op::PushFloat:   return "push.float";
  case Op::PushStr:     return "push.str";
  case Op::PushBool:    return "push.bool";
  case Op::PushNull:    return "push.null";
  case Op::PushUnit:    return "push.unit";
  case Op::LoadLocal:   return "load";
  case Op::StoreLocal:  return "store";
  case Op::Dup:         return "dup";
  case Op::Pop:         return "pop";
  case Op::LoadThis:    return "this";
  case Op::GetField:    return "getfield";
  case Op::SetField:    return "setfield";
  case Op::Call:        return "call";
  case Op::SuperCtor:   return "superctor";
  case Op::New:         return "new";
  case Op::Ret:         return "ret";
  case Op::Jump:        return "jmp";
  case Op::JumpIfFalse: return "jmp.false";
  case Op::JumpIfTrue:  return "jmp.true";
  case Op::Binary:      return "binop";
  case Op::Unary:       return "unop";
  case Op::Print:       return "print";
  case Op::Spawn:       return "spawn";
  case Op::Builtin:     return "builtin";
  }
  return "?";
}

std::string rprism::disassemble(const CompiledProgram &Prog,
                                const CompiledMethod &Method) {
  std::ostringstream OS;
  OS << Prog.Strings->text(Method.QualName) << " (locals "
     << Method.NumLocals << "):\n";
  for (size_t I = 0; I != Method.Code.size(); ++I) {
    const Instr &In = Method.Code[I];
    OS << "  " << I << ": " << opName(In.Code) << ' ' << In.A << ' ' << In.B
       << '\n';
  }
  return OS.str();
}

namespace {

/// Translates one CheckedProgram into a CompiledProgram.
class Compiler {
public:
  Compiler(const CheckedProgram &Checked,
           std::shared_ptr<StringInterner> Strings)
      : Checked(Checked) {
    Out.Strings = Strings ? std::move(Strings)
                          : std::make_shared<StringInterner>();
  }

  Expected<CompiledProgram> run();

private:
  Symbol intern(const std::string &Str) { return Out.Strings->intern(Str); }

  /// The dispatch slot of method name \p Name, assigned densely on first
  /// use.
  uint32_t methodSlot(const std::string &Name) {
    Symbol Sym = intern(Name);
    auto [It, Inserted] = SlotOf.try_emplace(
        Sym.Id, static_cast<uint32_t>(Out.MethodSlotNames.size()));
    if (Inserted)
      Out.MethodSlotNames.push_back(Sym);
    return It->second;
  }

  int32_t intConst(int64_t Value) {
    for (size_t I = 0; I != Out.IntPool.size(); ++I)
      if (Out.IntPool[I] == Value)
        return static_cast<int32_t>(I);
    Out.IntPool.push_back(Value);
    return static_cast<int32_t>(Out.IntPool.size() - 1);
  }

  int32_t floatConst(double Value) {
    for (size_t I = 0; I != Out.FloatPool.size(); ++I)
      if (Out.FloatPool[I] == Value)
        return static_cast<int32_t>(I);
    Out.FloatPool.push_back(Value);
    return static_cast<int32_t>(Out.FloatPool.size() - 1);
  }

  void emit(Op Code, int32_t A = 0, int32_t B = 0, NodeId Prov = NoNode) {
    Body->push_back({Code, A, B, Prov});
  }

  size_t emitJump(Op Code, NodeId Prov) {
    emit(Code, -1, 0, Prov);
    return Body->size() - 1;
  }

  void patchJump(size_t At) {
    (*Body)[At].A = static_cast<int32_t>(Body->size());
  }

  void compileExpr(const Expr &E);
  void compileStmt(const Stmt &S);
  void compileBlock(const BlockStmt &Block);
  void compileMethod(const ClassInfo &Info, const MethodDecl &Decl);
  void compileMainMethod(const MethodDecl &Decl);

  const CheckedProgram &Checked;
  CompiledProgram Out;
  std::unordered_map<uint32_t, uint32_t> SlotOf; ///< Name symbol -> slot.
  std::vector<Instr> *Body = nullptr;
  const ClassInfo *CurClass = nullptr;
};

} // namespace

void Compiler::compileExpr(const Expr &E) {
  switch (E.Kind) {
  case ExprKind::IntLit:
    emit(Op::PushInt, intConst(static_cast<const IntLitExpr &>(E).Value), 0,
         E.Id);
    return;
  case ExprKind::FloatLit:
    emit(Op::PushFloat,
         floatConst(static_cast<const FloatLitExpr &>(E).Value), 0, E.Id);
    return;
  case ExprKind::BoolLit:
    emit(Op::PushBool, static_cast<const BoolLitExpr &>(E).Value ? 1 : 0, 0,
         E.Id);
    return;
  case ExprKind::StrLit:
    emit(Op::PushStr,
         static_cast<int32_t>(
             intern(static_cast<const StrLitExpr &>(E).Value).Id),
         0, E.Id);
    return;
  case ExprKind::NullLit:
    emit(Op::PushNull, 0, 0, E.Id);
    return;
  case ExprKind::UnitLit:
    emit(Op::PushUnit, 0, 0, E.Id);
    return;
  case ExprKind::ThisRef:
    emit(Op::LoadThis, 0, 0, E.Id);
    return;

  case ExprKind::VarRef: {
    const auto &Ref = static_cast<const VarRefExpr &>(E);
    assert(Ref.Slot >= 0 && "unresolved variable slot");
    emit(Op::LoadLocal, Ref.Slot, 0, E.Id);
    return;
  }

  case ExprKind::VarSet: {
    const auto &Set = static_cast<const VarSetExpr &>(E);
    assert(Set.Slot >= 0 && "unresolved variable slot");
    compileExpr(*Set.Value);
    // Assignment is an expression: keep the value on the stack.
    emit(Op::Dup, 0, 0, E.Id);
    emit(Op::StoreLocal, Set.Slot, 0, E.Id);
    return;
  }

  case ExprKind::FieldGet: {
    const auto &Get = static_cast<const FieldGetExpr &>(E);
    assert(Get.FieldSlot >= 0 && "unresolved field slot");
    compileExpr(*Get.Object);
    emit(Op::GetField, Get.FieldSlot,
         static_cast<int32_t>(intern(Get.FieldName).Id), E.Id);
    return;
  }

  case ExprKind::FieldSet: {
    const auto &Set = static_cast<const FieldSetExpr &>(E);
    assert(Set.FieldSlot >= 0 && "unresolved field slot");
    compileExpr(*Set.Object);
    compileExpr(*Set.Value);
    emit(Op::SetField, Set.FieldSlot,
         static_cast<int32_t>(intern(Set.FieldName).Id), E.Id);
    return;
  }

  case ExprKind::MethodCall: {
    const auto &Call = static_cast<const MethodCallExpr &>(E);
    compileExpr(*Call.Receiver);
    for (const ExprPtr &Arg : Call.Args)
      compileExpr(*Arg);
    emit(Op::Call, static_cast<int32_t>(methodSlot(Call.MethodName)),
         static_cast<int32_t>(Call.Args.size()), E.Id);
    return;
  }

  case ExprKind::New: {
    const auto &New = static_cast<const NewExpr &>(E);
    assert(New.ClassId != ~0u && "unresolved class");
    for (const ExprPtr &Arg : New.Args)
      compileExpr(*Arg);
    emit(Op::New, static_cast<int32_t>(New.ClassId),
         static_cast<int32_t>(New.Args.size()), E.Id);
    return;
  }

  case ExprKind::Binary: {
    const auto &Bin = static_cast<const BinaryExpr &>(E);
    if (Bin.Op == BinOp::And || Bin.Op == BinOp::Or) {
      // Short-circuit: [lhs, dup, cond-jump end, pop, rhs] end:
      compileExpr(*Bin.Lhs);
      emit(Op::Dup, 0, 0, E.Id);
      size_t Skip = emitJump(
          Bin.Op == BinOp::And ? Op::JumpIfFalse : Op::JumpIfTrue, E.Id);
      emit(Op::Pop, 0, 0, E.Id);
      compileExpr(*Bin.Rhs);
      patchJump(Skip);
      return;
    }
    compileExpr(*Bin.Lhs);
    compileExpr(*Bin.Rhs);
    emit(Op::Binary, static_cast<int32_t>(Bin.Op), 0, E.Id);
    return;
  }

  case ExprKind::Unary: {
    const auto &Un = static_cast<const UnaryExpr &>(E);
    compileExpr(*Un.Operand);
    emit(Op::Unary, static_cast<int32_t>(Un.Op), 0, E.Id);
    return;
  }

  case ExprKind::Builtin: {
    const auto &Call = static_cast<const BuiltinExpr &>(E);
    for (const ExprPtr &Arg : Call.Args)
      compileExpr(*Arg);
    emit(Op::Builtin, static_cast<int32_t>(Call.Builtin),
         static_cast<int32_t>(Call.Args.size()), E.Id);
    return;
  }
  }
  assert(false && "unhandled expression kind");
}

void Compiler::compileStmt(const Stmt &S) {
  switch (S.Kind) {
  case StmtKind::Block:
    compileBlock(static_cast<const BlockStmt &>(S));
    return;

  case StmtKind::VarDecl: {
    const auto &Decl = static_cast<const VarDeclStmt &>(S);
    assert(Decl.Slot >= 0 && "unresolved variable slot");
    compileExpr(*Decl.Init);
    emit(Op::StoreLocal, Decl.Slot, 0, S.Id);
    return;
  }

  case StmtKind::ExprStmt:
    compileExpr(*static_cast<const ExprStmt &>(S).E);
    emit(Op::Pop, 0, 0, S.Id);
    return;

  case StmtKind::If: {
    const auto &If = static_cast<const IfStmt &>(S);
    compileExpr(*If.Cond);
    size_t ToElse = emitJump(Op::JumpIfFalse, S.Id);
    compileBlock(*If.Then);
    if (If.Else) {
      size_t ToEnd = emitJump(Op::Jump, S.Id);
      patchJump(ToElse);
      compileStmt(*If.Else);
      patchJump(ToEnd);
    } else {
      patchJump(ToElse);
    }
    return;
  }

  case StmtKind::While: {
    const auto &While = static_cast<const WhileStmt &>(S);
    size_t Top = Body->size();
    compileExpr(*While.Cond);
    size_t Exit = emitJump(Op::JumpIfFalse, S.Id);
    compileBlock(*While.Body);
    emit(Op::Jump, static_cast<int32_t>(Top), 0, S.Id);
    patchJump(Exit);
    return;
  }

  case StmtKind::Return: {
    const auto &Ret = static_cast<const ReturnStmt &>(S);
    if (Ret.Value)
      compileExpr(*Ret.Value);
    else
      emit(Op::PushUnit, 0, 0, S.Id);
    emit(Op::Ret, 0, 0, S.Id);
    return;
  }

  case StmtKind::Print:
    compileExpr(*static_cast<const PrintStmt &>(S).Value);
    emit(Op::Print, 0, 0, S.Id);
    return;

  case StmtKind::Spawn: {
    const auto &Spawn = static_cast<const SpawnStmt &>(S);
    compileExpr(*Spawn.Call->Receiver);
    for (const ExprPtr &Arg : Spawn.Call->Args)
      compileExpr(*Arg);
    emit(Op::Spawn, static_cast<int32_t>(methodSlot(Spawn.Call->MethodName)),
         static_cast<int32_t>(Spawn.Call->Args.size()), S.Id);
    return;
  }

  case StmtKind::SuperCall: {
    const auto &Super = static_cast<const SuperCallStmt &>(S);
    for (const ExprPtr &Arg : Super.Args)
      compileExpr(*Arg);
    emit(Op::SuperCtor, static_cast<int32_t>(Super.Args.size()), 0, S.Id);
    return;
  }
  }
  assert(false && "unhandled statement kind");
}

void Compiler::compileBlock(const BlockStmt &Block) {
  for (const StmtPtr &S : Block.Stmts)
    compileStmt(*S);
}

void Compiler::compileMethod(const ClassInfo &Info, const MethodDecl &Decl) {
  CompiledMethod Method;
  Method.QualName = intern(Info.Name + "." + Decl.Name);
  Method.SimpleName = intern(Decl.Name);
  Method.ClassId = Info.Id;
  Method.NumParams = static_cast<uint32_t>(Decl.Params.size());
  Method.NumLocals = Decl.NumLocals;
  Method.IsCtor = Decl.IsCtor;

  Body = &Method.Code;
  CurClass = &Info;

  // Implicit super-constructor call: when the ctor body does not start with
  // an explicit super(...), chain to the nearest superclass ctor (the
  // checker guarantees it takes no arguments in that case).
  if (Decl.IsCtor) {
    bool HasExplicitSuper = !Decl.Body->Stmts.empty() &&
                            Decl.Body->Stmts.front()->Kind ==
                                StmtKind::SuperCall;
    bool SuperHasCtor = false;
    for (uint32_t C = Info.SuperId; C != ~0u;
         C = Checked.Classes[C].SuperId) {
      if (Checked.Classes[C].CtorIndex >= 0) {
        SuperHasCtor = true;
        break;
      }
    }
    if (!HasExplicitSuper && SuperHasCtor)
      emit(Op::SuperCtor, 0, 0, Decl.Id);
  }

  compileBlock(*Decl.Body);
  // Fall-off-the-end: return unit.
  emit(Op::PushUnit, 0, 0, Decl.Id);
  emit(Op::Ret, 0, 0, Decl.Id);

  Out.Methods.push_back(std::move(Method));
}

void Compiler::compileMainMethod(const MethodDecl &Decl) {
  CompiledMethod Method;
  Method.QualName = intern("main");
  Method.SimpleName = intern("main");
  Method.ClassId = ~0u;
  Method.NumParams = 0;
  Method.NumLocals = Decl.NumLocals;

  Body = &Method.Code;
  CurClass = nullptr;
  compileBlock(*Decl.Body);
  emit(Op::PushUnit, 0, 0, Decl.Id);
  emit(Op::Ret, 0, 0, Decl.Id);

  Out.MainMethod = static_cast<uint32_t>(Out.Methods.size());
  Out.Methods.push_back(std::move(Method));
}

Expected<CompiledProgram> Compiler::run() {
  // First pass: class metadata so `new`/dispatch tables can reference any
  // class regardless of declaration order.
  for (const ClassInfo &Info : Checked.Classes) {
    RtClass Class;
    Class.Name = intern(Info.Name);
    Class.SuperId = Info.SuperId;
    for (const FieldInfo &Field : Info.Fields) {
      Class.FieldNames.push_back(intern(Field.Name));
      switch (Field.Type.Kind) {
      case TypeKind::Int:   Class.FieldDefaults.push_back(FieldDefaultKind::Int); break;
      case TypeKind::Bool:  Class.FieldDefaults.push_back(FieldDefaultKind::Bool); break;
      case TypeKind::Float: Class.FieldDefaults.push_back(FieldDefaultKind::Float); break;
      case TypeKind::Str:   Class.FieldDefaults.push_back(FieldDefaultKind::Str); break;
      case TypeKind::Class: Class.FieldDefaults.push_back(FieldDefaultKind::Null); break;
      case TypeKind::Unit:  Class.FieldDefaults.push_back(FieldDefaultKind::Unit); break;
      }
    }
    Out.Classes.push_back(std::move(Class));
  }

  // Second pass: compile every method body; record the compiled index of
  // each (class, method) so dispatch tables can be built afterwards.
  std::vector<std::vector<int32_t>> MethodIndexOf(Checked.Classes.size());
  for (const ClassInfo &Info : Checked.Classes) {
    MethodIndexOf[Info.Id].assign(Info.Methods.size(), -1);
    if (!Info.Decl)
      continue;
    for (const auto &Decl : Info.Decl->Methods) {
      uint32_t CompiledIndex = static_cast<uint32_t>(Out.Methods.size());
      compileMethod(Info, *Decl);
      // Find this decl's position in the flattened method table.
      for (size_t I = 0; I != Info.Methods.size(); ++I)
        if (Info.Methods[I].Decl == Decl.get())
          MethodIndexOf[Info.Id][I] = static_cast<int32_t>(CompiledIndex);
    }
  }

  // Third pass: dispatch tables, indexed by method slot. For inherited
  // methods, chase the declaring class's compiled index.
  for (const ClassInfo &Info : Checked.Classes) {
    RtClass &Class = Out.Classes[Info.Id];
    for (size_t I = 0; I != Info.Methods.size(); ++I) {
      const MethodInfo &Method = Info.Methods[I];
      // Locate the compiled body in the declaring class's table.
      const ClassInfo &DeclClass = Checked.Classes[Method.DeclClass];
      int32_t Compiled = -1;
      for (size_t J = 0; J != DeclClass.Methods.size(); ++J) {
        if (DeclClass.Methods[J].Decl == Method.Decl) {
          Compiled = MethodIndexOf[Method.DeclClass][J];
          break;
        }
      }
      if (Compiled < 0)
        continue;
      if (Method.isCtor()) {
        // Constructors are not virtually dispatched; only the table slot of
        // the class's own `new` matters.
        if (Info.CtorIndex == static_cast<int>(I)) {
          Class.CtorMethod = Compiled;
          if (Method.DeclClass == Info.Id)
            Class.OwnCtorMethod = Compiled;
        }
        continue;
      }
      uint32_t Slot = methodSlot(Method.Name);
      if (Class.Dispatch.size() <= Slot)
        Class.Dispatch.resize(Slot + 1, NoMethod);
      Class.Dispatch[Slot] = static_cast<uint32_t>(Compiled);
    }
  }

  // Fourth pass: a class without its own ctor inherits the nearest
  // ancestor's (the checker enforces it is zero-arg). Runs after every own
  // ctor has been recorded, since subclasses may be declared before their
  // superclasses; chains of ctor-less classes resolve by walking up.
  for (const ClassInfo &Info : Checked.Classes) {
    RtClass &Class = Out.Classes[Info.Id];
    if (Class.CtorMethod >= 0)
      continue;
    for (uint32_t C = Info.SuperId; C != ~0u;
         C = Checked.Classes[C].SuperId) {
      if (Out.Classes[C].CtorMethod >= 0) {
        Class.CtorMethod = Out.Classes[C].CtorMethod;
        break;
      }
    }
  }

  compileMainMethod(*Checked.Ast.Main);
  // Every table covers every slot, including those of names that only a
  // call site uses, so a call indexes without a bounds check.
  for (RtClass &Class : Out.Classes)
    Class.Dispatch.resize(Out.MethodSlotNames.size(), NoMethod);
  return std::move(Out);
}

Expected<CompiledProgram>
rprism::compileProgram(const CheckedProgram &Checked,
                       std::shared_ptr<StringInterner> Strings) {
  Compiler C(Checked, std::move(Strings));
  return C.run();
}

Expected<CompiledProgram>
rprism::compileSource(std::string_view Source,
                      std::shared_ptr<StringInterner> Strings) {
  TelemetrySpan Span("compile");
  Expected<CheckedProgram> Checked = parseAndCheck(Source);
  if (!Checked)
    return Checked.error();
  return compileProgram(*Checked, std::move(Strings));
}
