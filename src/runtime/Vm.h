//===- runtime/Vm.h - Bytecode interpreter with tracing -------------------===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution substrate: a deterministic, multi-threaded bytecode VM
/// whose execution emits trace entries exactly per the paper's operational
/// semantics (Fig. 6):
///
///   METH-E      -> a `call` entry in the caller's context
///   RETURN-E    -> a `return` entry in the caller's context
///   FIELD-ACC-E -> a `get` entry
///   FIELD-ASS-E -> a `set` entry
///   CONS-E      -> an `init` entry (plus a constructor frame whose
///                  completion emits the matching `return`, cf. Fig. 13's
///                  paired "--> NUM-1.new" / "<-- NUM-1.new" lines)
///   FORK-E      -> a `fork` entry, with full spawn-ancestry capture
///   END-E       -> an `end` entry when a thread's root frame returns
///
/// Threads are scheduled round-robin with a fixed instruction quantum, so
/// runs are bit-for-bit reproducible.
///
/// The interpreter is built for trace-production throughput: values are
/// 16-byte tagged scalars (strings live in a VM-private intern table and
/// travel as 32-bit ids), frames share one contiguous per-thread slot
/// array (arguments are passed by leaving them in place), and dispatch is
/// token-threaded (computed goto, a GNU extension the build already needs
/// for `__builtin_prefetch`). The golden digests in
/// tests/golden/vm_trace_digests.txt pin the bytes it produces.
///
//===----------------------------------------------------------------------===//

#ifndef RPRISM_RUNTIME_VM_H
#define RPRISM_RUNTIME_VM_H

#include "runtime/Bytecode.h"
#include "trace/Trace.h"

#include <string>
#include <type_traits>
#include <unordered_set>
#include <vector>

namespace rprism {

/// A runtime value: a kind tag plus an 8-byte payload. Strings are interned
/// in the VM's private runtime string table and carried as dense ids, so
/// copying a Value is always a 16-byte move — no allocation on push, local
/// store, or argument pass. String ids are only meaningful against the run's
/// own table; the trace layer re-interns the texts it records into the
/// shared trace interner.
struct Value {
  enum class Kind : uint8_t { Unit, Null, Int, Bool, Float, Str, Obj };

  Kind K;
  union {
    int64_t I; ///< Int payload; Bool 0/1; Obj location; Str runtime-table id.
    double F;  ///< Float payload.
  };

  Value() : K(Kind::Unit), I(0) {}

  static Value unit() { return {}; }
  static Value null() {
    Value V;
    V.K = Kind::Null;
    return V;
  }
  static Value ofInt(int64_t I) {
    Value V;
    V.K = Kind::Int;
    V.I = I;
    return V;
  }
  static Value ofBool(bool B) {
    Value V;
    V.K = Kind::Bool;
    V.I = B ? 1 : 0;
    return V;
  }
  static Value ofFloat(double F) {
    Value V;
    V.K = Kind::Float;
    V.F = F;
    return V;
  }
  /// \p StrId indexes the owning VM's runtime string table.
  static Value ofStr(uint32_t StrId) {
    Value V;
    V.K = Kind::Str;
    V.I = StrId;
    return V;
  }
  static Value ofObj(uint32_t Loc) {
    Value V;
    V.K = Kind::Obj;
    V.I = Loc;
    return V;
  }

  bool isObj() const { return K == Kind::Obj; }
  uint32_t loc() const { return static_cast<uint32_t>(I); }
  uint32_t strId() const { return static_cast<uint32_t>(I); }
  bool truthy() const { return K == Kind::Bool && I != 0; }
};

static_assert(sizeof(Value) == 16 && std::is_trivially_copyable_v<Value>,
              "Value is a two-word tagged scalar; keep it allocation-free");

/// A heap object.
struct HeapObj {
  uint32_t ClassId = 0;
  uint32_t CreationSeq = 0; ///< n-th instance of its class in this run.
  uint32_t Version = 0;     ///< Bumped on every field assignment.
  std::vector<Value> Fields;
};

/// The object store E of the operational semantics. Mutations are
/// version-counted (per object and globally) so the trace recorder can
/// memoize structural object representations: a memoized repr is valid
/// while the versions it snapshotted are unchanged.
class ObjectStore {
public:
  explicit ObjectStore(size_t NumClasses) : PerClassCounts(NumClasses, 0) {}

  /// Allocates an instance of \p ClassId with \p NumFields default slots.
  uint32_t alloc(uint32_t ClassId, size_t NumFields) {
    HeapObj Obj;
    Obj.ClassId = ClassId;
    Obj.CreationSeq = ++PerClassCounts[ClassId];
    Obj.Fields.resize(NumFields);
    Objects.push_back(std::move(Obj));
    return static_cast<uint32_t>(Objects.size() - 1);
  }

  /// Assigns field \p Field of the object at \p Loc, bumping both the
  /// object's and the store's mutation version.
  void setField(uint32_t Loc, uint32_t Field, const Value &V) {
    HeapObj &Obj = Objects[Loc];
    Obj.Fields[Field] = V;
    ++Obj.Version;
    ++GlobalVersion;
  }

  HeapObj &get(uint32_t Loc) { return Objects[Loc]; }
  const HeapObj &get(uint32_t Loc) const { return Objects[Loc]; }
  size_t size() const { return Objects.size(); }

  /// Counts every field assignment in the run; snapshotting it validates
  /// memoized representations of objects that may reference other objects.
  uint64_t globalVersion() const { return GlobalVersion; }

private:
  std::vector<HeapObj> Objects;
  std::vector<uint32_t> PerClassCounts;
  uint64_t GlobalVersion = 0;
};

/// Tracing configuration — the analog of RPRISM's AspectJ pointcuts.
struct TraceOptions {
  bool Enabled = true;
  /// Classes excluded from tracing (library/data-structure internals in the
  /// paper's evaluation). Events targeting them, and events emitted while a
  /// method of theirs executes, are not recorded.
  std::unordered_set<std::string> ExcludeClasses;
  /// Classes with no meaningful value representation (the paper's "default
  /// Object hashCode/toString => empty representation" rule).
  std::unordered_set<std::string> NoReprClasses;
  /// Recursive value-serialization depth (E'# of Fig. 8).
  unsigned ReprDepth = 3;
};

/// Per-run configuration.
struct RunOptions {
  std::vector<std::string> Inputs;   ///< input(i) test inputs.
  std::vector<int64_t> IntInputs;    ///< inputInt(i) test inputs.
  uint64_t MaxSteps = 50'000'000;    ///< Infinite-loop guard.
  unsigned Quantum = 40;             ///< Instructions per scheduler slice.
  std::string TraceName = "trace";
  TraceOptions Tracing;
};

/// Outcome of a run. Runtime errors and step-limit hits are program
/// *outcomes* (the Derby benchmark regresses by throwing), so they are
/// folded into Output, which is the observable behavior regressions are
/// defined against.
struct RunResult {
  std::string Output;
  bool Completed = false;
  std::string Error; ///< Runtime error message, empty if none.
  uint64_t Steps = 0;
  Trace ExecTrace;
};

/// Runs \p Prog to completion (or error/step limit) and returns the result
/// with its execution trace.
RunResult runProgram(const CompiledProgram &Prog,
                     const RunOptions &Options = RunOptions());

} // namespace rprism

#endif // RPRISM_RUNTIME_VM_H
