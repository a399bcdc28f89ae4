//===- trace/Trace.cpp ----------------------------------------------------===//

#include "trace/Trace.h"

#include "support/Hashing.h"
#include "support/Telemetry.h"
#include "trace/ValueHash.h"

#include <cstdio>
#include <cstring>
#include <sstream>
#include <string_view>

#include <sys/mman.h>
#include <sys/prctl.h>

using namespace rprism;

namespace {

constexpr size_t HugePage = detail::HugeColumnBytes;

size_t wholeHugePages(size_t Bytes) {
  return (Bytes + HugePage - 1) & ~(HugePage - 1);
}

bool probeHugePages() {
  if (prctl(PR_GET_THP_DISABLE, 0, 0, 0, 0) == 1)
    return false;
  // The active mode is the bracketed word: "always [madvise] never".
  std::FILE *File =
      std::fopen("/sys/kernel/mm/transparent_hugepage/enabled", "r");
  if (!File)
    return false;
  char Buffer[128];
  size_t Got = std::fread(Buffer, 1, sizeof Buffer, File);
  std::fclose(File);
  std::string_view Modes(Buffer, Got);
  return Modes.find('[') != std::string_view::npos &&
         Modes.find("[never]") == std::string_view::npos;
}

} // namespace

bool detail::hugeColumnsAvailable() {
  static const bool Available = probeHugePages();
  return Available;
}

void *detail::allocateColumn(size_t Bytes) {
  if (Bytes < HugeColumnBytes || !hugeColumnsAvailable())
    return ::operator new(Bytes);
  // Map one huge page more than needed, then trim both ends so the column
  // starts on a 2 MiB boundary: only whole aligned 2 MiB ranges can be
  // backed by huge pages.
  size_t Len = wholeHugePages(Bytes);
  void *Raw = mmap(nullptr, Len + HugePage, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (Raw == MAP_FAILED)
    throw std::bad_alloc();
  auto *Start = static_cast<char *>(Raw);
  auto Skip = static_cast<size_t>(
      -reinterpret_cast<uintptr_t>(Start) & (HugePage - 1));
  if (Skip)
    munmap(Start, Skip);
  munmap(Start + Skip + Len, HugePage - Skip);
  // Advisory: where it fails the mapping keeps 4 KiB pages.
  madvise(Start + Skip, Len, MADV_HUGEPAGE);
  return Start + Skip;
}

void detail::releaseColumn(void *P, size_t Bytes) noexcept {
  if (Bytes < HugeColumnBytes || !hugeColumnsAvailable())
    ::operator delete(P);
  else
    munmap(P, wholeHugePages(Bytes));
}

const char *rprism::eventKindName(EventKind Kind) {
  switch (Kind) {
  case EventKind::FieldGet: return "get";
  case EventKind::FieldSet: return "set";
  case EventKind::Call:     return "call";
  case EventKind::Return:   return "return";
  case EventKind::Init:     return "init";
  case EventKind::Fork:     return "fork";
  case EventKind::End:      return "end";
  }
  return "?";
}

Trace::Trace() {
  ObjReprs.push_back(ObjRepr());
  ValueReprs.push_back(ValueRepr());
}

TraceEntry Trace::entry(uint32_t Eid) const {
  TraceEntry Entry;
  Entry.Eid = Eid;
  Entry.Tid = Tids[Eid];
  Entry.Method = Methods[Eid];
  Entry.Self = self(Eid);
  Entry.Ev.Kind = static_cast<EventKind>(Kinds[Eid]);
  Entry.Ev.Name = Names[Eid];
  Entry.Ev.Target = target(Eid);
  Entry.Ev.Value = value(Eid);
  Entry.Ev.ArgsBegin = ArgsBegins[Eid];
  Entry.Ev.ArgsEnd = ArgsEnds[Eid];
  Entry.Ev.ChildTid = ChildTids[Eid];
  Entry.Prov = Provs[Eid];
  Entry.Fp = Eid < Fps.size() ? Fps[Eid] : 0;
  return Entry;
}

uint32_t Trace::addObjRepr(const ObjRepr &Obj) {
  ObjReprs.push_back(Obj);
  return static_cast<uint32_t>(ObjReprs.size() - 1);
}

uint32_t Trace::addValueRepr(const ValueRepr &Value) {
  ValueReprs.push_back(Value);
  return static_cast<uint32_t>(ValueReprs.size() - 1);
}

void Trace::append(const TraceEntry &Entry) {
  // Any entry mutation makes a previously loaded/computed view index
  // stale; drop it rather than serve a wrong partitioning.
  if (ViewIdx.Present)
    ViewIdx.clear();
  Tids.push_back(Entry.Tid);
  Methods.push_back(Entry.Method);
  SelfIds.push_back(addObjRepr(Entry.Self));
  Kinds.push_back(static_cast<uint8_t>(Entry.Ev.Kind));
  Names.push_back(Entry.Ev.Name);
  TargetIds.push_back(addObjRepr(Entry.Ev.Target));
  ValueIds.push_back(addValueRepr(Entry.Ev.Value));
  ArgsBegins.push_back(Entry.Ev.ArgsBegin);
  ArgsEnds.push_back(Entry.Ev.ArgsEnd);
  ChildTids.push_back(Entry.Ev.ChildTid);
  Provs.push_back(Entry.Prov);
  Fps.push_back(Entry.Fp);
}

void Trace::reserveEntries(size_t N) {
  Tids.reserve(N);
  Methods.reserve(N);
  SelfIds.reserve(N);
  Kinds.reserve(N);
  Names.reserve(N);
  TargetIds.reserve(N);
  ValueIds.reserve(N);
  ArgsBegins.reserve(N);
  ArgsEnds.reserve(N);
  ChildTids.reserve(N);
  Provs.reserve(N);
}

uint64_t Trace::storageBytes() const {
  return Tids.byteSize() + Methods.byteSize() + SelfIds.byteSize() +
         Kinds.byteSize() + Names.byteSize() + TargetIds.byteSize() +
         ValueIds.byteSize() + ArgsBegins.byteSize() + ArgsEnds.byteSize() +
         ChildTids.byteSize() + Provs.byteSize() + Fps.byteSize() +
         ArgIds.byteSize() + ObjReprs.byteSize() + ValueReprs.byteSize();
}

std::string Trace::renderObj(const ObjRepr &Obj) const {
  if (Obj.isNone())
    return "<none>";
  return Strings->text(Obj.ClassName) + "-" + std::to_string(Obj.CreationSeq);
}

std::string Trace::valueText(const ValueRepr &Value) const {
  switch (Value.Kind) {
  case ReprKind::None: return {};
  case ReprKind::Unit: return "unit";
  case ReprKind::Null: return "null";
  // Int, Bool and Float rows carry no text: their hash is hashMix of the
  // kind's seed and the value's 64 bits, so invert it and print what the
  // recorder once interned.
  case ReprKind::Int:
    return std::to_string(
        static_cast<int64_t>(hashUnmix(SeedInt, Value.Hash)));
  case ReprKind::Bool:
    return hashUnmix(SeedBool, Value.Hash) != 0 ? "true" : "false";
  case ReprKind::Float: {
    uint64_t Bits = hashUnmix(SeedFloat, Value.Hash);
    double F;
    std::memcpy(&F, &Bits, sizeof(F));
    char Buf[48];
    std::snprintf(Buf, sizeof(Buf), "%.6g", F);
    return Buf;
  }
  case ReprKind::Str:
  case ReprKind::Obj:
    return Strings->text(Value.Text);
  }
  return "?";
}

std::string Trace::renderValue(const ValueRepr &Value) const {
  if (Value.Kind == ReprKind::None)
    return "<none>";
  if (Value.Kind == ReprKind::Str)
    return "'" + Strings->text(Value.Text) + "'";
  return valueText(Value);
}

std::string Trace::renderEntry(const TraceEntry &Entry) const {
  std::ostringstream OS;
  const Event &Ev = Entry.Ev;
  auto Args = [&]() {
    std::string Out;
    for (uint32_t I = Ev.ArgsBegin; I != Ev.ArgsEnd; ++I) {
      if (I != Ev.ArgsBegin)
        Out += ", ";
      Out += renderValue(ValueReprs[ArgIds[I]]);
    }
    return Out;
  };

  switch (Ev.Kind) {
  case EventKind::FieldGet:
    OS << "get " << renderObj(Ev.Target) << "." << Strings->text(Ev.Name)
       << " = " << renderValue(Ev.Value);
    break;
  case EventKind::FieldSet:
    OS << "set " << renderObj(Ev.Target) << "." << Strings->text(Ev.Name)
       << " = " << renderValue(Ev.Value);
    break;
  case EventKind::Call:
    OS << "--> " << renderObj(Ev.Target) << "." << Strings->text(Ev.Name)
       << "(" << Args() << ")";
    break;
  case EventKind::Return:
    OS << "<-- " << renderObj(Ev.Target) << "." << Strings->text(Ev.Name)
       << "(..) ret=" << renderValue(Ev.Value);
    break;
  case EventKind::Init:
    OS << "--> " << renderObj(Ev.Target) << ".new(" << Args() << ")";
    break;
  case EventKind::Fork:
    OS << "fork thread-" << Ev.ChildTid;
    break;
  case EventKind::End:
    OS << "end thread-" << Ev.ChildTid;
    break;
  }
  OS << "   [t" << Entry.Tid << " in " << Strings->text(Entry.Method) << "]";
  return OS.str();
}

std::string Trace::renderEntry(uint32_t Eid) const {
  return renderEntry(entry(Eid));
}

namespace {

// Branch tags keeping the two reprEquals(ObjRepr) comparison modes (value
// representation vs creation sequence) in distinct hash domains.
constexpr uint64_t FpObjByRepr = 0xa1;
constexpr uint64_t FpObjBySeq = 0xa2;

/// Fingerprint contribution of an object representation. Mirrors
/// reprEquals(ObjRepr): class name, then the value-representation hash when
/// the class has one, else the class-specific creation sequence. Exact
/// under the recorder's invariant that repr-ness is a per-class property
/// (TraceOptions.NoReprClasses keys on class names), which both traces of a
/// diff session share; a class whose repr-ness differs *across versions*
/// would fingerprint conservatively as unequal, and =e would fall back to
/// the creation sequence — the slow-path verify keeps every reported match
/// correct either way.
uint64_t objFingerprint(const ObjRepr &Obj) {
  uint64_t H = Obj.HasRepr ? hashMix(FpObjByRepr, Obj.ValueHash)
                           : hashMix(FpObjBySeq, Obj.CreationSeq);
  return hashMix(Obj.ClassName.Id, H);
}

/// Fingerprint contribution of a value representation; mirrors
/// reprEquals(ValueRepr) exactly (kind and hash).
uint64_t valueFingerprint(const ValueRepr &Value) {
  return hashMix(static_cast<uint64_t>(Value.Kind), Value.Hash);
}

} // namespace

namespace {

/// The fingerprint of entry \p Eid of \p T, given the contributions of
/// its representation rows: \p ObjFp(id) and \p ValueFp(id) return
/// objFingerprint / valueFingerprint of ObjReprs / ValueReprs row id.
template <typename ObjFpFn, typename ValueFpFn>
uint64_t fingerprintEntry(const Trace &T, uint32_t Eid, ObjFpFn ObjFp,
                          ValueFpFn ValueFp) {
  EventKind Kind = T.kind(Eid);
  uint64_t H = hashMix(HashInit, static_cast<uint64_t>(Kind));
  H = hashMix(H, T.Names[Eid].Id);
  H = hashMix(H, ObjFp(T.TargetIds[Eid]));
  H = hashMix(H, ValueFp(T.ValueIds[Eid]));
  uint32_t Begin = T.ArgsBegins[Eid], End = T.ArgsEnds[Eid];
  H = hashMix(H, End - Begin);
  for (uint32_t I = Begin; I != End; ++I)
    H = hashMix(H, ValueFp(T.ArgIds[I]));
  // Fork/end: =e compares the spawned thread's entry method (not the tid),
  // so only that symbol feeds the hash. The thread's AncestryHash is
  // deliberately excluded — =e does not compare it (ancestry drives view
  // *correlation*, not event equality), and hashing it would make equal
  // events fingerprint as unequal.
  if (Kind == EventKind::Fork || Kind == EventKind::End) {
    uint32_t Child = T.ChildTids[Eid];
    if (Child < T.Threads.size())
      H = hashMix(H, T.Threads[Child].EntryMethod.Id);
    else
      H = hashMix(H, 0xbadc0deULL); // Corrupt tid; =e rejects on verify.
  }
  return H;
}

/// Every row's fingerprint contribution, computed once per pass over the
/// entries: most rows are shared by many entries, and the per-entry
/// lookups then touch 8 bytes a row instead of the row itself.
struct RowFingerprints {
  std::vector<uint64_t, ColumnAllocator<uint64_t>> Obj, Value;

  explicit RowFingerprints(const Trace &T)
      : Obj(T.ObjReprs.size()), Value(T.ValueReprs.size()) {
    for (size_t I = 0; I != Obj.size(); ++I)
      Obj[I] = objFingerprint(T.ObjReprs[I]);
    for (size_t I = 0; I != Value.size(); ++I)
      Value[I] = valueFingerprint(T.ValueReprs[I]);
  }

  uint64_t of(const Trace &T, uint32_t Eid) const {
    return fingerprintEntry(
        T, Eid, [this](uint32_t Id) { return Obj[Id]; },
        [this](uint32_t Id) { return Value[Id]; });
  }
};

} // namespace

uint64_t Trace::entryFingerprint(uint32_t Eid) const {
  return fingerprintEntry(
      *this, Eid,
      [this](uint32_t Id) { return objFingerprint(ObjReprs[Id]); },
      [this](uint32_t Id) { return valueFingerprint(ValueReprs[Id]); });
}

uint64_t Trace::entryFingerprint(const TraceEntry &Entry) const {
  const Event &Ev = Entry.Ev;
  uint64_t H = hashMix(HashInit, static_cast<uint64_t>(Ev.Kind));
  H = hashMix(H, Ev.Name.Id);
  H = hashMix(H, objFingerprint(Ev.Target));
  H = hashMix(H, valueFingerprint(Ev.Value));
  H = hashMix(H, Ev.numArgs());
  for (uint32_t I = Ev.ArgsBegin; I != Ev.ArgsEnd; ++I)
    H = hashMix(H, valueFingerprint(ValueReprs[ArgIds[I]]));
  if (Ev.Kind == EventKind::Fork || Ev.Kind == EventKind::End) {
    if (Ev.ChildTid < Threads.size())
      H = hashMix(H, Threads[Ev.ChildTid].EntryMethod.Id);
    else
      H = hashMix(H, 0xbadc0deULL);
  }
  return H;
}

void Trace::computeFingerprints() {
  TelemetrySpan Span("fingerprint");
  size_t N = size();
  Fps.resize(N);
  uint64_t *Out = Fps.mutData();
  RowFingerprints Rows(*this);
  for (size_t I = 0; I != N; ++I)
    Out[I] = Rows.of(*this, static_cast<uint32_t>(I));
  HasFingerprints = true;
}

bool rprism::eventEquals(const Trace &TA, uint32_t A, const Trace &TB,
                         uint32_t B, CompareCounter *Counter) {
  if (Counter)
    Counter->tick();

  // Fingerprint fast path: unequal fingerprints prove inequality (the
  // fingerprint hashes exactly the components compared below). Equal
  // fingerprints fall through to the slow-path verify, so a 64-bit
  // collision can never fabricate a match.
  if (TA.HasFingerprints && TB.HasFingerprints && TA.Fps[A] != TB.Fps[B])
    return false;

  if (TA.Kinds[A] != TB.Kinds[B] || TA.Names[A] != TB.Names[B])
    return false;
  if (!reprEquals(TA.target(A), TB.target(B)))
    return false;
  if (!reprEquals(TA.value(A), TB.value(B)))
    return false;
  uint32_t NumArgs = TA.numArgs(A);
  if (NumArgs != TB.numArgs(B))
    return false;
  for (uint32_t I = 0; I != NumArgs; ++I)
    if (!reprEquals(TA.arg(A, I), TB.arg(B, I)))
      return false;

  // Fork/end events compare by the spawned thread's ancestry, not the tid
  // (tids are assigned in scheduling order and may differ across versions).
  // A tid outside the thread table (deserialized or corrupt trace) cannot
  // be validated, so it never matches.
  EventKind Kind = TA.kind(A);
  if (Kind == EventKind::Fork || Kind == EventKind::End) {
    uint32_t ChildA = TA.ChildTids[A], ChildB = TB.ChildTids[B];
    if (ChildA >= TA.Threads.size() || ChildB >= TB.Threads.size())
      return false;
    if (TA.Threads[ChildA].EntryMethod != TB.Threads[ChildB].EntryMethod)
      return false;
  }
  return true;
}

bool rprism::eventEquals(const Trace &TA, const TraceEntry &A,
                         const Trace &TB, const TraceEntry &B,
                         CompareCounter *Counter) {
  if (Counter)
    Counter->tick();

  if (TA.HasFingerprints && TB.HasFingerprints && A.Fp != B.Fp)
    return false;

  const Event &EA = A.Ev;
  const Event &EB = B.Ev;
  if (EA.Kind != EB.Kind || EA.Name != EB.Name)
    return false;
  if (!reprEquals(EA.Target, EB.Target))
    return false;
  if (!reprEquals(EA.Value, EB.Value))
    return false;
  if (EA.numArgs() != EB.numArgs())
    return false;
  for (uint32_t I = 0; I != EA.numArgs(); ++I)
    if (!reprEquals(TA.arg(EA, I), TB.arg(EB, I)))
      return false;

  if (EA.Kind == EventKind::Fork || EA.Kind == EventKind::End) {
    if (EA.ChildTid >= TA.Threads.size() || EB.ChildTid >= TB.Threads.size())
      return false;
    const ThreadInfo &ThreadA = TA.Threads[EA.ChildTid];
    const ThreadInfo &ThreadB = TB.Threads[EB.ChildTid];
    if (ThreadA.EntryMethod != ThreadB.EntryMethod)
      return false;
  }
  return true;
}
