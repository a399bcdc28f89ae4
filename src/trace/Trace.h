//===- trace/Trace.h - Execution traces (columnar storage) ----------------===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Trace is the sequence of entries produced by one program run, plus the
/// side tables entries reference: the representation tables, the argument
/// pool and the thread table (spawn ancestry for the fork(S)/end(S)
/// events — the paper tracks the full creation context of a thread's
/// ancestry to correlate threads across traces). The string interner is
/// shared: a DiffSession interns both traces' names in one table so
/// symbols compare across versions.
///
/// Storage is *columnar* (structure of arrays): each logical TraceEntry
/// field lives in its own contiguous column indexed by eid. The pipeline
/// stages are memory-bound, and each stage reads only a few fields — the
/// view-web build keys on tid/method/target/self, the lock-step evaluator
/// on the fingerprint column, the render paths on everything — so packing
/// per-field keeps each stage's working set to exactly the bytes it
/// touches. Columns are either owned (a vector) or *borrowed* zero-copy
/// views into a memory-mapped trace file; `Backing` keeps the
/// mapping alive. The eid of an entry is its index: the recorder assigns
/// eids densely, so no Eid column is stored.
///
/// Representations are *dictionary-encoded*: each trace keeps one table of
/// ObjRepr rows and one of ValueRepr rows (row 0 of each is the empty
/// representation), and the self, target and value columns and the
/// argument pool hold 4-byte row ids. Most entries repeat a representation
/// seen before, so this stores each one once (~57 bytes/entry in all,
/// against ~103 for per-entry copies). Rows may repeat — equality is always
/// by content, never by id — and code outside this module and the recorder
/// reads representations through self()/target()/value()/arg() only.
///
//===----------------------------------------------------------------------===//

#ifndef RPRISM_TRACE_TRACE_H
#define RPRISM_TRACE_TRACE_H

#include "trace/Event.h"

#include <cassert>
#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace rprism {

namespace detail {
/// Owned column storage of at least this many bytes (one huge page) gets
/// its own mapping; see ColumnAllocator.
inline constexpr size_t HugeColumnBytes = size_t(2) << 20;

/// True when this process can get transparent huge pages: the system THP
/// mode is not `never` and PR_GET_THP_DISABLE is clear. Read once, at the
/// first call.
bool hugeColumnsAvailable();

/// Storage for \p Bytes of column data, and its release. Large requests on
/// a process with huge pages are mappings, everything else is heap memory.
void *allocateColumn(size_t Bytes);
void releaseColumn(void *P, size_t Bytes) noexcept;
} // namespace detail

/// The allocator behind every Column's owned storage.
///
/// A request of detail::HugeColumnBytes or more is its own anonymous
/// mapping, 2 MiB-aligned, whole huge pages long and advised
/// MADV_HUGEPAGE, and is unmapped on release. Filling such a column takes
/// one page fault per 2 MiB instead of one per 4 KiB, and a released
/// column returns its memory to the system instead of to the malloc heap.
/// Smaller requests, and every request on a process that cannot get huge
/// pages, use the heap.
///
/// Value-less construction default-initializes, so a vector's resize()
/// leaves new elements of a packed value type unwritten (see
/// Column::resize).
template <typename T> struct ColumnAllocator : std::allocator<T> {
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                "column storage has operator new's alignment");
  using std::allocator<T>::allocator;

  T *allocate(size_t N) {
    if (N > SIZE_MAX / sizeof(T))
      throw std::bad_array_new_length();
    return static_cast<T *>(detail::allocateColumn(N * sizeof(T)));
  }
  void deallocate(T *P, size_t N) noexcept {
    detail::releaseColumn(P, N * sizeof(T));
  }

  template <typename U> void construct(U *P) noexcept {
    ::new (static_cast<void *>(P)) U;
  }
  template <typename U, typename... Args>
  void construct(U *P, Args &&...A) noexcept {
    ::new (static_cast<void *>(P)) U(std::forward<Args>(A)...);
  }
};

/// One column of the columnar trace: a contiguous array of a trivially
/// copyable element type. Either *owning* (backed by its own vector) or
/// *borrowed* (a pointer/length view into memory owned elsewhere — the
/// mapped bytes of a trace file, kept alive by Trace::Backing). Reads go
/// through (Ptr, Len) either way; any mutation of a borrowed column first
/// detaches it (copies the bytes into owned storage).
template <typename T> class Column {
  static_assert(std::is_trivially_copyable_v<T>,
                "columns hold packed value types");

public:
  Column() = default;

  // Copies deep-copy into owned storage (trace copies are rare: tests and
  // benchmarks); moves transfer the vector, whose data pointer is stable.
  Column(const Column &Other) { assignFrom(Other); }
  Column &operator=(const Column &Other) {
    if (this != &Other)
      assignFrom(Other);
    return *this;
  }
  Column(Column &&Other) noexcept
      : Own(std::move(Other.Own)), Ptr(Other.Ptr), Len(Other.Len),
        Borrowed(Other.Borrowed) {
    Other.reset();
  }
  Column &operator=(Column &&Other) noexcept {
    if (this != &Other) {
      Own = std::move(Other.Own);
      Ptr = Other.Ptr;
      Len = Other.Len;
      Borrowed = Other.Borrowed;
      Other.reset();
    }
    return *this;
  }

  size_t size() const { return Len; }
  bool empty() const { return Len == 0; }
  const T *data() const { return Ptr; }
  const T *begin() const { return Ptr; }
  const T *end() const { return Ptr + Len; }
  const T &operator[](size_t I) const { return Ptr[I]; }
  const T &back() const { return Ptr[Len - 1]; }
  bool borrowed() const { return Borrowed; }
  uint64_t byteSize() const { return static_cast<uint64_t>(Len) * sizeof(T); }

  void clear() {
    Own.clear();
    reset();
  }

  void reserve(size_t N) {
    detach();
    Own.reserve(N);
    Ptr = Own.data();
  }

  void push_back(const T &V) {
    detach();
    Own.push_back(V);
    Ptr = Own.data();
    Len = Own.size();
  }

  /// Resizes to \p N elements. New elements are left uninitialized: the
  /// caller writes each one through mutData().
  void resize(size_t N) {
    detach();
    Own.resize(N);
    Ptr = Own.data();
    Len = N;
  }

  void append(const T *Data, size_t N) {
    detach();
    Own.insert(Own.end(), Data, Data + N);
    Ptr = Own.data();
    Len = Own.size();
  }

  /// Mutable element access; detaches a borrowed column.
  T &mut(size_t I) {
    detach();
    return Own[I];
  }

  /// Mutable raw access to the whole column; detaches a borrowed column.
  T *mutData() {
    detach();
    return Own.data();
  }

  /// Points the column at externally owned memory (zero-copy load path).
  /// The caller guarantees the memory outlives the column (Trace::Backing).
  void borrow(const T *Data, size_t N) {
    Own.clear();
    Ptr = Data;
    Len = N;
    Borrowed = true;
  }

  /// Materializes a borrowed column into owned storage; no-op when owned.
  void detach() {
    if (!Borrowed)
      return;
    Own.assign(Ptr, Ptr + Len);
    Ptr = Own.data();
    Borrowed = false;
  }

private:
  void assignFrom(const Column &Other) {
    Own.assign(Other.Ptr, Other.Ptr + Other.Len);
    Ptr = Own.data();
    Len = Own.size();
    Borrowed = false;
  }

  void reset() {
    Ptr = Own.data();
    Len = Own.size();
    Borrowed = false;
  }

  std::vector<T, ColumnAllocator<T>> Own;
  const T *Ptr = nullptr;
  size_t Len = 0;
  bool Borrowed = false;
};

/// Per-thread spawn ancestry. The spawn stack is the sequence of qualified
/// method names on the spawning thread's call stack at the spawn point;
/// AncestryHash chains the parent's ancestry hash with this spawn stack, so
/// two threads with identical full ancestries collide (intentionally — that
/// is the thread-correlation signal, X_TH).
struct ThreadInfo {
  uint32_t Tid = 0;
  uint32_t ParentTid = 0;      ///< == Tid for the main thread.
  Symbol EntryMethod;          ///< Qualified method the thread runs.
  std::vector<Symbol> SpawnStack; ///< Parent's call stack at spawn.
  uint64_t AncestryHash = 0;
};

/// The number of view families the web partitions a trace into (thread,
/// method, target-object, active-object — the order is part of the
/// persisted format and of dense view-id assignment).
inline constexpr size_t NumViewFamilies = 4;

/// A precomputed partitioning of a trace's entries into the four view
/// families — the data the view-web build derives by scanning the entry
/// columns, lifted out so it can be persisted (trace-file sections) and
/// the scan skipped on repeat loads.
///
/// Per family F (0 = thread, 1 = method, 2 = target-object, 3 =
/// active-object), Keys[F][i] is the identity of the family's i-th view in
/// first-appearance order (a tid, an interned method-symbol id, or a store
/// location) and Counts[F][i] its entry count. Entries is the flat
/// concatenation of every view's ascending entry-id list, family by
/// family, view by view — one contiguous column so a load borrows it
/// zero-copy from the mapped file.
struct ViewIndex {
  Column<uint32_t> Keys[NumViewFamilies];
  Column<uint32_t> Counts[NumViewFamilies];
  Column<uint32_t> Entries;

  /// True when the index describes the owning trace's current entries.
  /// Any entry mutation (append) resets it; readers must treat a
  /// non-Present index as absent.
  bool Present = false;

  void clear() {
    for (size_t F = 0; F != NumViewFamilies; ++F) {
      Keys[F].clear();
      Counts[F].clear();
    }
    Entries.clear();
    Present = false;
  }

  size_t numViews() const {
    size_t Total = 0;
    for (size_t F = 0; F != NumViewFamilies; ++F)
      Total += Keys[F].size();
    return Total;
  }
};

/// A full execution trace, stored as columns indexed by eid (see the file
/// comment). Hot paths read single columns through the accessors;
/// entry(eid) materializes a full TraceEntry for rendering, tests, and
/// other cold paths.
struct Trace {
  std::string Name; ///< For reports ("orig/regressing-input", ...).
  std::shared_ptr<StringInterner> Strings;

  Trace();

  // -- Entry columns (all of length size(); eid == index) -----------------
  Column<uint32_t> Tids;        ///< Executing thread.
  Column<Symbol> Methods;       ///< Qualified executing method.
  Column<uint32_t> SelfIds;     ///< Receiver of the method: ObjReprs row.
  Column<uint8_t> Kinds;        ///< EventKind, stored as raw bytes.
  Column<Symbol> Names;         ///< Event name (field/method/class).
  Column<uint32_t> TargetIds;   ///< Event target object: ObjReprs row.
  Column<uint32_t> ValueIds;    ///< Carried value: ValueReprs row.
  Column<uint32_t> ArgsBegins;  ///< Argument slice begin, into ArgIds.
  Column<uint32_t> ArgsEnds;    ///< Argument slice end.
  Column<uint32_t> ChildTids;   ///< Fork/end: the spawned/ending thread.
  Column<uint32_t> Provs;       ///< AST NodeId provenance (scoring only).
  Column<uint64_t> Fps;         ///< Equality fingerprints.

  // -- Side tables --------------------------------------------------------
  Column<uint32_t> ArgIds;      ///< Argument pool: ValueReprs rows.
  Column<ObjRepr> ObjReprs;     ///< Object representations; row 0 empty.
  Column<ValueRepr> ValueReprs; ///< Value representations; row 0 empty.
  std::vector<ThreadInfo> Threads;

  /// Keep-alive for borrowed columns: the mmap'd bytes of a trace file
  /// loaded with symbol identity. Null for fully owned traces (recorded or
  /// remapped).
  std::shared_ptr<void> Backing;

  /// Persisted view partitioning, when loaded from a file carrying index
  /// sections (or computed by computeViewIndex). Present only while it
  /// matches the entry columns — appends invalidate it.
  ViewIndex ViewIdx;

  /// True when every entry's fingerprint is current. Set by
  /// computeFingerprints (called at trace-finalize and deserialize time) or
  /// by the loader (stored fingerprints load verbatim when symbol ids are
  /// preserved); false for hand-built traces, which then compare on the
  /// slow path only.
  bool HasFingerprints = false;

  size_t size() const { return Kinds.size(); }

  // -- Column accessors (hot paths) ---------------------------------------
  uint32_t tid(uint32_t Eid) const { return Tids[Eid]; }
  Symbol method(uint32_t Eid) const { return Methods[Eid]; }
  const ObjRepr &self(uint32_t Eid) const { return ObjReprs[SelfIds[Eid]]; }
  EventKind kind(uint32_t Eid) const {
    return static_cast<EventKind>(Kinds[Eid]);
  }
  Symbol name(uint32_t Eid) const { return Names[Eid]; }
  const ObjRepr &target(uint32_t Eid) const {
    return ObjReprs[TargetIds[Eid]];
  }
  const ValueRepr &value(uint32_t Eid) const {
    return ValueReprs[ValueIds[Eid]];
  }
  uint32_t childTid(uint32_t Eid) const { return ChildTids[Eid]; }
  uint32_t prov(uint32_t Eid) const { return Provs[Eid]; }
  uint64_t fp(uint32_t Eid) const { return Fps[Eid]; }
  uint32_t numArgs(uint32_t Eid) const {
    return ArgsEnds[Eid] - ArgsBegins[Eid];
  }
  /// Argument \p I (< numArgs(Eid)) of entry \p Eid.
  const ValueRepr &arg(uint32_t Eid, uint32_t I) const {
    return ValueReprs[ArgIds[ArgsBegins[Eid] + I]];
  }
  /// Argument \p I (< Ev.numArgs()) of an event materialized from this
  /// trace.
  const ValueRepr &arg(const Event &Ev, uint32_t I) const {
    return ValueReprs[ArgIds[Ev.ArgsBegin + I]];
  }

  /// Prefetches the column bytes =e reads for entry \p Eid beyond the
  /// fingerprint (laneless diff paths, which walk strided entries).
  void prefetchEquals(uint32_t Eid) const {
    __builtin_prefetch(&Names[Eid]);
    __builtin_prefetch(&TargetIds[Eid]);
    __builtin_prefetch(&ValueIds[Eid]);
  }

  /// Materializes entry \p Eid as a value (Eid field set to the index).
  TraceEntry entry(uint32_t Eid) const;

  /// Appends \p Entry, scattering its fields into the columns and its
  /// self/target/value representations into new table rows. The Eid
  /// field is ignored: the entry's eid is its index. The argument slice
  /// indexes ArgIds as it stands.
  void append(const TraceEntry &Entry);

  /// Appends a row to ObjReprs / ValueReprs and returns its id.
  uint32_t addObjRepr(const ObjRepr &Obj);
  uint32_t addValueRepr(const ValueRepr &Value);

  /// Pre-sizes every entry column for \p N entries (recorders call this
  /// with a bytecode-derived hint so steady-state recording never
  /// reallocates early). Fps is excluded: computeFingerprints sizes it
  /// once at finalize time.
  void reserveEntries(size_t N);

  /// Fingerprint of entry \p Eid, read from the columns. Pure function of
  /// the entry fields, the argument pool, and the thread table.
  uint64_t entryFingerprint(uint32_t Eid) const;

  /// Fingerprint of a materialized entry (reference path; must agree with
  /// the index-based overload for materialized entries of this trace).
  uint64_t entryFingerprint(const TraceEntry &Entry) const;

  /// Fills the fingerprint column and sets HasFingerprints.
  void computeFingerprints();

  /// Bytes held by the entry columns, the argument pool and the two
  /// representation tables (the columnar footprint reported as
  /// bytes_per_entry in benchmarks).
  uint64_t storageBytes() const;

  /// Renders entry \p Eid as a human-readable line ("--> NUM-1.new(32,
  /// 127)" style, following Fig. 13).
  std::string renderEntry(uint32_t Eid) const;

  /// Renders a materialized entry (same output as the index overload).
  std::string renderEntry(const TraceEntry &Entry) const;

  /// Renders an object representation ("NUM-1" = first NUM instance).
  std::string renderObj(const ObjRepr &Obj) const;

  /// The unquoted printable text of a value representation ("32", "true",
  /// "NUM-1", a string's characters); empty for None. Scalar rows' text is
  /// recovered from their hash (trace/ValueHash.h).
  std::string valueText(const ValueRepr &Value) const;

  /// Renders a value representation: its text, a string in single quotes,
  /// "<none>" for an absent value.
  std::string renderValue(const ValueRepr &Value) const;
};

/// Counts trace-entry compare operations; the paper's speedup metric
/// (Fig. 14b) is LCS compare ops divided by views-based compare ops.
struct CompareCounter {
  uint64_t Count = 0;
  void tick() { ++Count; }
};

/// Event equality =e over column indices: kind, names, and the underlying
/// (version-stable) value representations; never raw locations. \p Counter,
/// when non-null, is ticked once per invocation.
bool eventEquals(const Trace &TA, uint32_t A, const Trace &TB, uint32_t B,
                 CompareCounter *Counter = nullptr);

/// =e over materialized entries (reference path for value-type entries;
/// agrees with the index overload when the entries were materialized from
/// the given traces).
bool eventEquals(const Trace &TA, const TraceEntry &A, const Trace &TB,
                 const TraceEntry &B, CompareCounter *Counter = nullptr);

} // namespace rprism

#endif // RPRISM_TRACE_TRACE_H
