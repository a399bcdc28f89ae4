//===- runtime/TraceRecorder.h - Event recording (Fig. 6 -> Fig. 4) -------===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds the Trace during VM execution: computes the extended object and
/// value representations of Fig. 8 (recursive, depth-limited serialization
/// hashes; printable renderings truncated to 128 characters like the
/// paper's toString approximation) and applies the pointcut-style class
/// exclusion filter.
///
/// Recording is built for throughput: entries append straight into the
/// trace's columnar builders (no intermediate TraceEntry), and the
/// representation builders are memoized — unit/null/bool/int rows,
/// per-runtime-string-id value reprs, and per-(loc, store-version) object
/// reprs — so the steady state is id lookups and column appends, not
/// string formatting. Scalar rows (unit, null, int, bool, float) carry no
/// text: the renderer recovers it from the row's hash (trace/ValueHash.h),
/// so the string table holds only names, string values and "Class-Seq"
/// object renderings. Memo hits are by construction state-identical to
/// recomputation (a valid memo implies the same computation ran before and
/// already interned the same strings), so the string table is exactly what
/// the unmemoized recorder produced.
///
/// The memos also carry the dictionary encoding of the trace (Trace.h):
/// each holds the row id of the representation it memoizes, so a memo hit
/// records a 4-byte id and only a new representation appends a table row.
/// A recomputed object representation equal to its memoized row keeps
/// that row; floats and evicted big ints append a row per computation.
/// Structural hashes read a scalar field's hash directly and make no row
/// for it.
///
//===----------------------------------------------------------------------===//

#ifndef RPRISM_RUNTIME_TRACERECORDER_H
#define RPRISM_RUNTIME_TRACERECORDER_H

#include "runtime/Vm.h"

namespace rprism {

/// The execution context an event is recorded in: entry(eid, tid, m, rho, e).
struct RecordContext {
  uint32_t Tid = 0;
  Symbol Method;            ///< Qualified executing method.
  uint32_t MethodClass = ~0u; ///< Class of the executing method (~0u: main).
  uint32_t SelfLoc = NoLoc; ///< Receiver location (NoLoc in main).
};

/// Accumulates trace entries for one run.
class TraceRecorder {
public:
  /// \p RtStrings is the VM's private runtime string table (Str values
  /// carry ids into it); the recorder reads texts from it and re-interns
  /// what it records into the trace's shared interner.
  TraceRecorder(const CompiledProgram &Prog, const ObjectStore &Store,
                const StringInterner &RtStrings, const TraceOptions &Options,
                std::string TraceName);

  /// The finished trace; call once after the run. Finalization flushes
  /// the staged rows and computes the per-entry equality fingerprints
  /// (recording appends entries, so the hashes are taken once here rather
  /// than maintained online).
  Trace take();

  // -- Representation builders (memoized) --------------------------------
  /// Row ids into the trace's ObjReprs / ValueReprs tables (0 for NoLoc /
  /// the empty representation).
  uint32_t objRepr(uint32_t Loc);
  uint32_t valueRepr(const Value &V);

  // -- Event recording (one per Fig. 6 rule) ------------------------------
  void recordCall(const RecordContext &Ctx, uint32_t TargetLoc,
                  Symbol QualMethod, const Value *Args, size_t NumArgs,
                  uint32_t Prov);
  void recordReturn(const RecordContext &Ctx, uint32_t TargetLoc,
                    Symbol QualMethod, const Value &Ret, uint32_t Prov);
  void recordGet(const RecordContext &Ctx, uint32_t TargetLoc, Symbol Field,
                 const Value &V, uint32_t Prov);
  void recordSet(const RecordContext &Ctx, uint32_t TargetLoc, Symbol Field,
                 const Value &V, uint32_t Prov);
  void recordInit(const RecordContext &Ctx, Symbol ClassName,
                  uint32_t NewLoc, const Value *Args, size_t NumArgs,
                  uint32_t Prov);
  void recordFork(const RecordContext &Ctx, uint32_t ChildTid,
                  uint32_t Prov);
  void recordEnd(const RecordContext &Ctx, uint32_t Tid, uint32_t Prov);

  /// Registers a thread in the trace's thread table.
  void addThread(ThreadInfo Info) { Out.Threads.push_back(std::move(Info)); }

  size_t numEntries() const { return Out.size() + StageLen; }
  StringInterner &strings() { return *Out.Strings; }

  /// Representation-memo hits so far (vm.repr_memo_hits telemetry).
  uint64_t memoHits() const { return MemoHits; }

private:
  /// True when the event must be dropped (tracing disabled, excluded
  /// context class, or excluded target class).
  bool filtered(const RecordContext &Ctx, uint32_t TargetClassId) const;

  /// Appends one entry directly to the trace's columns. The representation
  /// row ids must be computed by the caller (record order of the
  /// representation builders is part of the byte-stable trace contract:
  /// interning happens in the same first-sight order as the entry fields
  /// are populated).
  void emit(const RecordContext &Ctx, EventKind Kind, Symbol Name,
            uint32_t SelfId, uint32_t TargetId, uint32_t ValueId,
            uint32_t ArgsBegin, uint32_t ArgsEnd, uint32_t ChildTid,
            uint32_t Prov);

  /// Scatters the staged rows into the trace columns (one bulk append per
  /// column) and resets the stage. Called when the stage fills and at
  /// take().
  void flushStage();
  uint64_t structuralHash(uint32_t Loc, unsigned Depth);
  /// Appends the row of scalar \p V (kind \p Kind, no text).
  uint32_t addScalarRow(ReprKind Kind, const Value &V);
  /// The memoized row of scalar \p V in \p Slot, appended on a miss.
  uint32_t memoScalarRow(uint32_t &Slot, ReprKind Kind, const Value &V);
  uint32_t pushArgs(const Value *Args, size_t NumArgs);

  /// Memoized representation of one heap object. ReprId is its ObjReprs
  /// row (0: not computed yet); Snap is the mutation version the repr was
  /// computed at: the object's own version for scalar-only classes (no
  /// field can reference another object), the store's global version
  /// otherwise (any assignment anywhere could mutate the reachable
  /// subgraph). ValueId is the ValueReprs row of the object as a value,
  /// derived from row ValueOf. Text is the "Class-Seq" rendering,
  /// immutable once interned.
  struct ObjMemoEntry {
    uint64_t Snap = 0;
    uint32_t ReprId = 0;
    uint32_t ValueId = 0;
    uint32_t ValueOf = 0;
    Symbol Text;
    uint8_t TextValid = 0;
  };

  static constexpr int64_t SmallIntMin = -1024;
  static constexpr int64_t SmallIntMax = 1024;

  /// Direct-mapped cache slot for integers outside the small-int range
  /// (counters and accumulators blow past it quickly). Collisions evict;
  /// recomputation appends a duplicate row.
  struct IntMemoEntry {
    int64_t Key = 0;
    uint32_t Id = 0; ///< ValueReprs row; 0 marks an empty slot.
  };
  static constexpr size_t BigIntMemoSize = 8192; // Power of two.

  const CompiledProgram &Prog;
  const ObjectStore &Store;
  const StringInterner &RtStrings;
  const TraceOptions &Options;
  Trace Out;
  std::vector<uint8_t> ClassExcluded; ///< Per class id.
  std::vector<uint8_t> ClassNoRepr;
  std::vector<uint8_t> ClassScalarOnly; ///< No obj-typed fields.

  // -- Representation memos (row id 0 marks an empty slot) ----------------
  uint32_t UnitMemo = 0, NullMemo = 0, TrueMemo = 0, FalseMemo = 0;
  std::vector<uint32_t> SmallIntMemo;   ///< [SmallIntMin, SmallIntMax].
  std::vector<IntMemoEntry> BigIntMemo; ///< Direct-mapped, by value hash.
  std::vector<uint32_t> StrMemo;        ///< By runtime string id.
  std::vector<ObjMemoEntry> ObjMemo;    ///< By store location.
  uint64_t MemoHits = 0;
  /// Cycle guard of structuralHash, reused across recomputations.
  std::vector<uint32_t> Visiting;

  /// Reserved capacities of the entry columns / argument pool. Growth goes
  /// through reserveEntries in 4x steps (see flushStage) instead of each
  /// column re-doubling on its own. A column of 2 MiB or more sits on huge
  /// pages (ColumnAllocator), so a step no longer faults in its new buffer
  /// 4 KiB at a time: a 2M-entry runProgram takes 2.5-7K minor faults
  /// (32-42K on the heap), and 2x steps measured the same as 4x within
  /// run-to-run noise (best of 6 runs, 3 rounds).
  size_t EntryCap = 0;
  size_t ArgCap = 0;

  // -- Row staging ---------------------------------------------------------
  // Entries are first written into these small structure-of-arrays buffers
  // (resident in cache, plain indexed stores) and batch-flushed into the
  // trace columns with one bulk append per column: 11 capacity checks and
  // pointer updates per StageCap rows instead of per row. Flush order is
  // emit order, so the resulting columns are byte-identical to direct
  // per-row appends.
  static constexpr size_t StageCap = 256;
  size_t StageLen = 0;
  uint32_t StTids[StageCap];
  Symbol StMethods[StageCap];
  uint32_t StSelfIds[StageCap];
  uint8_t StKinds[StageCap];
  Symbol StNames[StageCap];
  uint32_t StTargetIds[StageCap];
  uint32_t StValueIds[StageCap];
  uint32_t StArgsBegins[StageCap];
  uint32_t StArgsEnds[StageCap];
  uint32_t StChildTids[StageCap];
  uint32_t StProvs[StageCap];
};

} // namespace rprism

#endif // RPRISM_RUNTIME_TRACERECORDER_H
