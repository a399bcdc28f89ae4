//===- trace/Event.h - Trace events and representations (Fig. 4/8) --------===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's trace grammar:
///
///   event e  ::= FE | ME | KE | TE
///   FE       ::= get(rho, f, nu) | set(rho, f, nu)
///   ME       ::= call(rho, m, nu*) | return(rho, m, nu)
///   KE       ::= init(A, nu*, rho)
///   TE       ::= fork(S) | end(S)
///   entry    ::= entry(eid, tid, m, rho, e)
///
/// with the *extended* object representation of Fig. 8 used for
/// differencing: an object is a pair <l, r> of its location and a
/// recursively computed value representation. Locations are never compared
/// across traces (they are not stable across versions); equality uses the
/// value-representation hash, falling back to the class-specific creation
/// sequence number when a class opts out of value representations (the
/// paper's "default java.lang.Object hashCode/toString => empty
/// representation" rule, §5).
///
/// ObjRepr and ValueRepr are the rows of a Trace's representation tables
/// (and written verbatim into trace files), so both are packed, explicitly
/// padded, trivially copyable value types: every byte of the struct is
/// meaningful or a zero-initialized pad, and no field is a `bool` (reading
/// an arbitrary mmap'd byte as bool is undefined behavior; flags are
/// uint8_t with 0/non-0 semantics instead).
///
//===----------------------------------------------------------------------===//

#ifndef RPRISM_TRACE_EVENT_H
#define RPRISM_TRACE_EVENT_H

#include "support/StringInterner.h"

#include <cstdint>
#include <type_traits>

namespace rprism {

/// Kinds of trace events (Fig. 4).
enum class EventKind : uint8_t {
  FieldGet, // get(rho, f, nu)
  FieldSet, // set(rho, f, nu)
  Call,     // call(rho, m, nu*)
  Return,   // return(rho, m, nu)
  Init,     // init(A, nu*, rho)
  Fork,     // fork(S)
  End,      // end(S)
};

/// Largest valid EventKind value; loaders validate untrusted bytes against
/// this before casting.
inline constexpr uint8_t MaxEventKind = static_cast<uint8_t>(EventKind::End);

/// Printable name ("get", "call", ...).
const char *eventKindName(EventKind Kind);

/// "No location" marker for contexts without a receiver (main, thread
/// roots) and for value objects.
inline constexpr uint32_t NoLoc = 0xffffffffu;

/// The extended object representation <l, r> of Fig. 8. `r` is summarized
/// as a 64-bit structural hash (ValueHash); HasRepr is zero when the
/// object's class opts out of value representation, in which case identity
/// across traces falls back to (class name, creation sequence number).
/// 24 bytes, 8-aligned, written verbatim into trace files (one row per
/// distinct representation, see Trace.h).
struct ObjRepr {
  uint64_t ValueHash = 0;   ///< Recursive serialization hash (E'#).
  uint32_t Loc = NoLoc;     ///< Store location; *never* compared cross-trace.
  Symbol ClassName;         ///< Interned class name.
  uint32_t CreationSeq = 0; ///< n-th instance of this class in this run.
  uint8_t HasRepr = 0;      ///< 0/non-0 flag (not bool: mmap-safe).
  uint8_t Pad[3] = {0, 0, 0};

  bool isNone() const { return Loc == NoLoc && ClassName.empty(); }

  /// Version-stable equality: same class, then value representation if both
  /// sides have one, else creation sequence number.
  friend bool reprEquals(const ObjRepr &A, const ObjRepr &B) {
    if (A.ClassName != B.ClassName)
      return false;
    if (A.HasRepr && B.HasRepr)
      return A.ValueHash == B.ValueHash;
    return A.CreationSeq == B.CreationSeq;
  }
};

static_assert(sizeof(ObjRepr) == 24 && std::is_trivially_copyable_v<ObjRepr>,
              "ObjRepr is a packed on-disk column element");

/// Kinds of value representations (the nu's of the trace grammar).
enum class ReprKind : uint8_t {
  None, ///< Absent slot (e.g. return value of a Unit method is Unit, but
        ///< unused Value fields of non-carrying events are None).
  Unit,
  Null,
  Int,
  Bool,
  Float,
  Str,
  Obj,
};

inline constexpr uint8_t MaxReprKind = static_cast<uint8_t>(ReprKind::Obj);

/// A value representation: a kind, a version-stable hash, and, for Str and
/// Obj rows, an interned printable rendering (truncated to 128 characters,
/// mirroring the paper's toString truncation). A scalar row (Unit, Null,
/// Int, Bool, Float) is described by its kind and its kind-seeded hash
/// (trace/ValueHash.h) alone: its text is recovered from the hash, so its
/// Text is symbol 0 and is ignored when set. Read a row's text through
/// Trace::valueText or Trace::renderValue, never Text directly. 16 bytes,
/// written verbatim into trace files.
struct ValueRepr {
  uint64_t Hash = 0;
  Symbol Text; ///< Str/Obj rendering; symbol 0 (ignored) for scalars.
  ReprKind Kind = ReprKind::None;
  uint8_t Pad[3] = {0, 0, 0};

  friend bool reprEquals(const ValueRepr &A, const ValueRepr &B) {
    return A.Kind == B.Kind && A.Hash == B.Hash;
  }
};

static_assert(sizeof(ValueRepr) == 16 &&
                  std::is_trivially_copyable_v<ValueRepr>,
              "ValueRepr is a packed on-disk column element");

/// True if an event of \p Kind with target \p Target belongs to a
/// target-object view (FE/ME/KE events with a real target do; fork/end
/// never do): the target-object rule of viewKey (trace/ViewIndex.h).
inline bool eventHasTargetObject(EventKind Kind, const ObjRepr &Target) {
  switch (Kind) {
  case EventKind::FieldGet:
  case EventKind::FieldSet:
  case EventKind::Call:
  case EventKind::Return:
  case EventKind::Init:
    return !Target.isNone();
  case EventKind::Fork:
  case EventKind::End:
    return false;
  }
  return false;
}

/// One trace event. Argument lists (call/init) live in the owning trace's
/// argument pool; [ArgsBegin, ArgsEnd) index into it.
struct Event {
  EventKind Kind = EventKind::Call;
  Symbol Name;      ///< Field, method, or (init) class name.
  ObjRepr Target;   ///< rho of FE/ME; created object of KE.
  ValueRepr Value;  ///< Field value (get/set) or return value.
  uint32_t ArgsBegin = 0;
  uint32_t ArgsEnd = 0;
  uint32_t ChildTid = 0; ///< Fork: spawned thread; End: ending thread.

  uint32_t numArgs() const { return ArgsEnd - ArgsBegin; }
};

/// entry(eid, tid, m, rho, e): the generic context (executing thread,
/// method at the top of the call stack, its receiver) plus the event.
/// Prov is the AST NodeId of the construct that emitted the entry; it is
/// used only for scoring against injected ground truth.
///
/// Since the columnar storage rework, TraceEntry is a *value type*: the
/// Trace stores each field in its own contiguous column, and
/// Trace::entry(eid) materializes this struct on demand (recorders build
/// one and Trace::append scatters it into the columns). Code on hot paths
/// reads the columns directly instead.
struct TraceEntry {
  uint32_t Eid = 0;
  uint32_t Tid = 0;
  Symbol Method;  ///< Qualified executing method ("SP.setRequestType").
  ObjRepr Self;   ///< Receiver of the executing method (none in main).
  Event Ev;
  uint32_t Prov = 0;
  /// Equality fingerprint: a 64-bit hash of exactly the components =e
  /// compares (kind, name, target/value representations, argument
  /// representations, and the spawned thread's entry method for fork/end).
  /// Unequal fingerprints imply unequal events, so eventEquals rejects
  /// mismatches with one integer compare; equal fingerprints are verified
  /// on the slow path. Valid only while the owning Trace's HasFingerprints
  /// flag is set; symbol ids feed the hash, so fingerprints compare only
  /// between traces sharing a StringInterner (the same precondition =e
  /// already has) and are recomputed when a trace is deserialized into a
  /// different symbol space.
  uint64_t Fp = 0;
};

} // namespace rprism

#endif // RPRISM_TRACE_EVENT_H
