//===- runtime/Bytecode.h - Compiled program representation ---------------===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small stack bytecode the checked AST compiles to. A bytecode VM (rather
/// than a tree walker) keeps per-thread execution state explicit, which the
/// deterministic round-robin scheduler needs to interleave threads, and
/// bounds C++ recursion on deep workload call chains.
///
//===----------------------------------------------------------------------===//

#ifndef RPRISM_RUNTIME_BYTECODE_H
#define RPRISM_RUNTIME_BYTECODE_H

#include "support/StringInterner.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace rprism {

/// Opcodes. Operands A/B are indices or immediates as documented per-op.
enum class Op : uint8_t {
  PushInt,     ///< A: index into IntPool.
  PushFloat,   ///< A: index into FloatPool.
  PushStr,     ///< A: Symbol id of the literal.
  PushBool,    ///< A: 0 or 1.
  PushNull,
  PushUnit,
  LoadLocal,   ///< A: slot.
  StoreLocal,  ///< A: slot; pops the value.
  Dup,
  Pop,
  LoadThis,
  GetField,    ///< A: field slot; B: field-name Symbol id. [obj] -> [value]
  SetField,    ///< A: slot; B: name. [obj, value] -> [value]
  Call,        ///< A: method slot; B: argc. [recv, args...] -> [ret]
  SuperCtor,   ///< A: argc. [args...] -> []; runs the superclass ctor.
  New,         ///< A: class id; B: argc. [args...] -> [obj]
  Ret,         ///< Returns TOS from the current frame.
  Jump,        ///< A: target ip.
  JumpIfFalse, ///< A: target ip; pops the condition.
  JumpIfTrue,  ///< A: target ip; pops the condition.
  Binary,      ///< A: BinOp. [lhs, rhs] -> [result]
  Unary,       ///< A: UnOp. [v] -> [result]
  Print,       ///< Pops and appends to program output.
  Spawn,       ///< A: method slot; B: argc. [recv, args...] -> []
  Builtin,     ///< A: BuiltinKind; B: argc. [args...] -> [ret]
};

/// Printable opcode name for the disassembler.
const char *opName(Op Code);

/// One instruction. Prov is the AST NodeId of the construct this
/// instruction implements (trace provenance).
struct Instr {
  Op Code;
  int32_t A = 0;
  int32_t B = 0;
  uint32_t Prov = 0;
};

/// A compiled method body.
struct CompiledMethod {
  Symbol QualName;   ///< "Class.method", "Class.<init>", or "main".
  Symbol SimpleName;
  uint32_t ClassId = ~0u; ///< Declaring class; ~0u for main.
  uint32_t NumParams = 0;
  uint32_t NumLocals = 0; ///< Including params.
  bool IsCtor = false;
  std::vector<Instr> Code;
};

/// Default kinds for field initialization before the constructor runs.
enum class FieldDefaultKind : uint8_t { Null, Int, Bool, Float, Str, Unit };

/// A Dispatch entry for a method name the class does not define.
inline constexpr uint32_t NoMethod = ~0u;

/// Runtime class metadata.
struct RtClass {
  Symbol Name;
  uint32_t SuperId = ~0u;
  std::vector<Symbol> FieldNames; ///< Full layout, inherited first.
  std::vector<FieldDefaultKind> FieldDefaults;
  /// Dispatch: method slot (see CompiledProgram::MethodSlotNames) ->
  /// compiled method index, or NoMethod. One entry per slot, flattened
  /// with overrides applied, so a call is one load.
  std::vector<uint32_t> Dispatch;
  /// Constructor to run for `new` (own or nearest inherited zero-arg);
  /// -1 when the chain has no explicit constructor.
  int32_t CtorMethod = -1;
  /// The class's *own* constructor, -1 if it declares none. SuperCtor
  /// resolution walks ancestor OwnCtorMethods.
  int32_t OwnCtorMethod = -1;
};

/// A whole compiled program.
struct CompiledProgram {
  std::shared_ptr<StringInterner> Strings;
  std::vector<RtClass> Classes;
  std::vector<CompiledMethod> Methods;
  /// The method name of each dispatch slot: every name that a class
  /// defines or a call or spawn names gets one dense slot.
  std::vector<Symbol> MethodSlotNames;
  uint32_t MainMethod = 0;
  std::vector<int64_t> IntPool;
  std::vector<double> FloatPool;
};

/// Disassembles a method (testing/debugging aid).
std::string disassemble(const CompiledProgram &Prog,
                        const CompiledMethod &Method);

} // namespace rprism

#endif // RPRISM_RUNTIME_BYTECODE_H
