//===- trace/Serialize.cpp ------------------------------------------------===//

#include "trace/Serialize.h"

#include "support/Hashing.h"
#include "support/Telemetry.h"
#include "trace/TraceError.h"
#include "trace/ViewIndex.h"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <optional>
#include <sstream>
#include <unordered_set>
#include <vector>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace rprism;

namespace {

constexpr uint32_t TraceMagic = 0x52505452; // "RPTR"
// Version history. Only 8 is read; every other version field is refused
// with trace.version, so trace files from older builds must be recorded
// again.
//   1, 2 — retired per-entry stream formats.
//   3 — a whole-trace columnar layout: a 16-byte header, one section table,
//       then 8-byte-aligned column payloads written verbatim, with FNV-1a
//       section checksums.
//   4 — a segmented layout, with FNV-1a checksums: a file header; segments,
//       each a segment header, a section table and payloads (its slice of
//       every entry column, deltas of the side tables, a view-index
//       delta); then a footer segment directory and a fixed trailer.
//   5 — layout 3 with the word-wise checksumBytes (support/Hashing.h).
//   6 — layout 4 with checksumBytes.
//   7 — layout 6 with dictionary-encoded representations: the self, target
//       and value columns and the argument pool hold u32 row ids into two
//       per-trace tables of ObjRepr and ValueRepr rows (row 0 of each the
//       empty representation). Files held exactly one segment.
//   8 — layout 7's sections in one frame: a 32-byte header, the section
//       table and the payloads. The segment header, the footer directory,
//       the trailer and the side tables' delta bases are gone.
constexpr uint32_t TraceVersion = 8;

/// Section ids. Entry columns are parallel arrays of exactly the header's
/// entry-count many elements; side tables have their own framing.
enum SectionId : uint32_t {
  SecName = 1,       ///< Raw bytes of Trace::Name.
  SecTid = 10,       ///< uint32_t[]
  SecMethod = 11,    ///< Symbol[]
  SecSelf = 12,      ///< uint32_t[]: ObjRepr row ids.
  SecKind = 13,      ///< uint8_t[]
  SecEvName = 14,    ///< Symbol[]
  SecTarget = 15,    ///< uint32_t[]: ObjRepr row ids.
  SecValue = 16,     ///< uint32_t[]: ValueRepr row ids.
  SecArgsBegin = 17, ///< uint32_t[]
  SecArgsEnd = 18,   ///< uint32_t[]
  SecChildTid = 19,  ///< uint32_t[]
  SecProv = 20,      ///< uint32_t[]
  SecFp = 21,        ///< uint64_t[] (absent for unfingerprinted traces)
  // Optional persisted view partitioning (see trace/ViewIndex.h) of the
  // entries. Both sections appear together or not at all.
  SecViewMeta = 22,    ///< Per family: u32 count, keys[], counts[].
  SecViewEntries = 23, ///< uint32_t[]: flat per-view entry-id lists.
  // Side tables, each whole.
  SecStrings = 24, ///< u32 count, count x (u32 len, bytes).
  SecThreads = 25, ///< u32 count, ThreadInfo records.
  SecArgPool = 26, ///< uint32_t[]: ValueRepr row ids.
  SecObjRows = 27, ///< ObjRepr[].
  SecValRows = 28, ///< ValueRepr[].
};

/// Largest section id this reader understands; higher ids are skipped for
/// forward compatibility.
constexpr uint32_t MaxSectionId = SecValRows;

// File header: u32 magic, u32 version, u64 header checksum, u32 entry
// count, u32 section count, u64 declared file length. The checksum covers
// the header from byte 16 through the end of the section table, so it
// seals the counts, the length and every section record; each record seals
// its payload with its own checksum.
constexpr size_t HeaderBytes = 32;
constexpr size_t HeaderSealedFrom = 16;
// Section record: u32 id, u32 pad, u64 absolute offset, u64 length, u64
// checksum.
constexpr size_t SectionRecordBytes = 32;
constexpr uint32_t MaxSections = 64;

/// Little buffered binary writer over stdio. The final flush happens in
/// close(), which reports it: a full disk must fail the write, not vanish
/// in a destructor.
class Writer {
public:
  explicit Writer(const std::string &Path)
      : File(std::fopen(Path.c_str(), "wb")) {}
  ~Writer() {
    if (File)
      std::fclose(File);
  }
  Writer(const Writer &) = delete;
  Writer &operator=(const Writer &) = delete;

  bool ok() const { return File && !Error; }

  void u32(uint32_t V) { raw(&V, sizeof(V)); }
  void u64(uint64_t V) { raw(&V, sizeof(V)); }
  void raw(const void *Data, size_t Size) {
    if (!File || Error)
      return;
    if (Size && std::fwrite(Data, 1, Size, File) != Size)
      Error = true;
  }
  void zeros(size_t Size) {
    static const char Pad[8] = {0};
    while (Size && ok()) {
      size_t Chunk = Size < sizeof(Pad) ? Size : sizeof(Pad);
      raw(Pad, Chunk);
      Size -= Chunk;
    }
  }

  /// Flushes and closes the file. True only when every byte reached it.
  bool close() {
    if (!File)
      return false;
    bool Ok = !Error && std::fflush(File) == 0;
    Ok = std::fclose(File) == 0 && Ok;
    File = nullptr;
    return Ok;
  }

private:
  std::FILE *File;
  bool Error = false;
};

/// Growable byte buffer for the serialized (non-column) sections.
struct ByteBuffer {
  std::string Out;

  void u32(uint32_t V) { Out.append(reinterpret_cast<const char *>(&V), 4); }
  void u64(uint64_t V) { Out.append(reinterpret_cast<const char *>(&V), 8); }
  void str(const std::string &S) {
    u32(static_cast<uint32_t>(S.size()));
    Out.append(S);
  }
};

/// Bounds-checked, memcpy-based cursor over an untrusted byte range (the
/// serialized sections of a mapped trace file). Never forms references
/// into the mapped memory; all reads copy out, so truncated or misaligned
/// data cannot cause UB.
class ByteCursor {
public:
  ByteCursor(const uint8_t *Data, size_t Size) : Ptr(Data), Remaining(Size) {}

  bool ok() const { return !Error; }
  bool atEnd() const { return Remaining == 0; }

  uint32_t u32() {
    uint32_t V = 0;
    raw(&V, sizeof(V));
    return V;
  }
  uint64_t u64() {
    uint64_t V = 0;
    raw(&V, sizeof(V));
    return V;
  }
  std::string str() {
    uint32_t Size = u32();
    if (Error || Size > Remaining) {
      Error = true;
      return "";
    }
    std::string S(reinterpret_cast<const char *>(Ptr), Size);
    Ptr += Size;
    Remaining -= Size;
    return S;
  }

private:
  void raw(void *Out, size_t Size) {
    if (Error || Size > Remaining) {
      Error = true;
      return;
    }
    std::memcpy(Out, Ptr, Size);
    Ptr += Size;
    Remaining -= Size;
  }

  const uint8_t *Ptr;
  size_t Remaining;
  bool Error = false;
};

// --- Writer ---------------------------------------------------------------

/// One payload the file carries: raw bytes, a view into a column or into a
/// serialized side buffer.
struct SectionOut {
  uint32_t Id;
  const void *Data;
  uint64_t Length;
};

// --- Reader ---------------------------------------------------------------

/// The bytes of a trace file, mapped read-only. `Holder` unmaps them when
/// the last owner (the open file here, a loaded trace's Backing) lets go.
struct FileBytes {
  std::shared_ptr<void> Holder;
  const uint8_t *Data = nullptr;
  size_t Size = 0;
};

/// Maps \p Path and checks the magic and version field every trace file
/// starts with; only a current-version trace file gets past here. Only a
/// regular file is mapped. The open does not block, so a FIFO without a
/// writer is refused like a directory, a pipe or a device: trace.open.
Expected<FileBytes> openTraceFile(const std::string &Path) {
  int Fd = ::open(Path.c_str(), O_RDONLY | O_NONBLOCK);
  if (Fd < 0)
    return errno == ENOENT || errno == ENOTDIR ? TraceError::notFound(Path)
                                               : TraceError::cannotOpen(Path);
  FileBytes File;
  struct stat St;
  bool Ok = ::fstat(Fd, &St) == 0 && S_ISREG(St.st_mode);
  if (Ok && St.st_size > 0) {
    const size_t Size = static_cast<size_t>(St.st_size);
    void *Map = ::mmap(nullptr, Size, PROT_READ, MAP_PRIVATE, Fd, 0);
    Ok = Map != MAP_FAILED;
    if (Ok) {
      File.Holder.reset(Map, [Size](void *P) { ::munmap(P, Size); });
      File.Data = static_cast<const uint8_t *>(Map);
      File.Size = Size;
    }
  }
  ::close(Fd); // The mapping survives the descriptor.
  if (!Ok)
    return TraceError::cannotOpen(Path);
  uint32_t Magic = 0, Version = 0;
  if (File.Size >= 4)
    std::memcpy(&Magic, File.Data, 4);
  if (Magic != TraceMagic)
    return TraceError::notATrace(Path);
  if (File.Size < 8)
    return TraceError::truncated(Path);
  std::memcpy(&Version, File.Data + 4, 4);
  if (Version != TraceVersion)
    return TraceError::unsupportedVersion(Path, Version);
  return File;
}

/// A section as parsed from the table: a pointer into the file bytes and
/// the recorded payload length. Present only when the whole payload is in
/// the file and matches its checksum; Damaged marks a derived section that
/// was dropped.
struct SectionIn {
  const uint8_t *Data = nullptr;
  uint64_t Length = 0;
  bool Seen = false; ///< A record with this id was in the table.
  bool Present = false;
  bool Damaged = false;
};

/// The fingerprint lane and the two view-index sections are derived from
/// the entry columns, so damage to one drops it instead of failing the
/// read, and the read rebuilds what it held.
bool isDerivedSection(uint32_t Id) {
  return Id == SecFp || Id == SecViewMeta || Id == SecViewEntries;
}

/// The required entry-column sections and their element sizes (ChildTid's
/// consumers bounds-check themselves).
struct ColumnSize {
  uint32_t Id;
  uint64_t ElemSize;
};
constexpr ColumnSize ColumnSizes[] = {
    {SecTid, 4},     {SecMethod, 4},   {SecSelf, 4},   {SecKind, 1},
    {SecEvName, 4},  {SecTarget, 4},   {SecValue, 4},  {SecArgsBegin, 4},
    {SecArgsEnd, 4}, {SecChildTid, 4}, {SecProv, 4},
};

/// The file header's fields after the magic and version.
struct FileHeader {
  uint64_t Checksum = 0;
  uint32_t NumEntries = 0;
  uint32_t NumSections = 0;
  uint64_t Length = 0; ///< Declared file length.
};

FileHeader readHeader(const uint8_t *P) {
  FileHeader H;
  std::memcpy(&H.Checksum, P + 8, 8);
  std::memcpy(&H.NumEntries, P + 16, 4);
  std::memcpy(&H.NumSections, P + 20, 4);
  std::memcpy(&H.Length, P + 24, 8);
  return H;
}

/// The sections of a file, indexed by id.
using SectionTable = std::array<SectionIn, MaxSectionId + 1>;

/// Parses the \p NumSections records after the header. Payloads must lie
/// between the table and the declared length \p End and match their
/// checksums. The first damaged primary section fails the parse, and so
/// does a file that ends inside a primary payload (trace.truncated); a
/// damaged derived section is marked and left out.
Expected<SectionTable> parseSections(const std::string &Path,
                                     const FileBytes &File,
                                     uint32_t NumSections, uint64_t End) {
  SectionTable Out;
  bool Cut = false; ///< The end of the file cuts entry data or a side table.
  auto DropDerived = [&Out](uint32_t Id) {
    if (!isDerivedSection(Id))
      return false;
    Out[Id].Seen = Out[Id].Damaged = true;
    return true;
  };
  const uint64_t TableEnd =
      HeaderBytes + uint64_t{NumSections} * SectionRecordBytes;
  for (uint32_t I = 0; I != NumSections; ++I) {
    const uint8_t *Record = File.Data + HeaderBytes + I * SectionRecordBytes;
    uint32_t Id;
    uint64_t Offset, Length, Checksum;
    std::memcpy(&Id, Record, 4);
    std::memcpy(&Offset, Record + 8, 8);
    std::memcpy(&Length, Record + 16, 8);
    std::memcpy(&Checksum, Record + 24, 8);
    if (Offset % 8 != 0 || Offset < TableEnd || Offset > End ||
        Length > End - Offset) {
      if (DropDerived(Id))
        continue;
      return TraceError::sectionBounds(Path, Id, Offset);
    }
    if (Id > MaxSectionId)
      continue; // Unknown section: forward compatibility.
    SectionIn &S = Out[Id];
    if (S.Seen) {
      if (DropDerived(Id))
        continue;
      return TraceError::duplicateSection(Path, Id);
    }
    S.Seen = true;
    const uint64_t Start = std::min<uint64_t>(Offset, File.Size);
    if (Length > File.Size - Start) {
      // The file ends inside this payload.
      Cut |= !DropDerived(Id);
      continue;
    }
    const uint8_t *Data = File.Data + Start;
    if (checksumBytes(Data, Length) != Checksum) {
      if (DropDerived(Id))
        continue;
      return TraceError::sectionChecksum(Path, Id, Offset);
    }
    S.Data = Data;
    S.Length = Length;
    S.Present = true;
  }
  if (Cut)
    return TraceError::truncated(Path);
  return Out;
}

/// Points \p Col at the first \p N elements of section \p S.
template <typename E>
void takeColumn(Column<E> &Col, const SectionIn &S, size_t N) {
  Col.borrow(reinterpret_cast<const E *>(S.Data), N);
}

/// Points \p Col at a side table of whole elements. False, leaving \p Col
/// as it was, unless \p Valid accepts every element with its index.
template <typename E, typename Pred>
bool takeTable(Column<E> &Col, const SectionIn &S, Pred Valid) {
  if (S.Length % sizeof(E) != 0)
    return false;
  size_t Count = static_cast<size_t>(S.Length / sizeof(E));
  const auto *Elems = reinterpret_cast<const E *>(S.Data);
  for (size_t K = 0; K != Count; ++K)
    if (!Valid(Elems[K], K))
      return false;
  Col.borrow(Elems, Count);
  return true;
}

/// True when \p Row is byte-identical to a default-constructed row: the
/// empty representation row 0 of each table must be.
template <typename E> bool isEmptyRow(const E &Row) {
  static const E Empty{};
  return std::memcmp(&Row, &Empty, sizeof(E)) == 0;
}

/// Parses the file's view index into \p Out: the small meta section
/// copied out, the flat entry lists borrowed. Structural validity is
/// checked by the caller.
bool parseViewIndex(const SectionTable &S, uint64_t NumEntries,
                    size_t NumStrings, ViewIndex &Out) {
  const SectionIn &Meta = S[SecViewMeta], &Flat = S[SecViewEntries];
  if (!Meta.Present || !Flat.Present || Flat.Length % sizeof(uint32_t) != 0)
    return false;
  ByteCursor VC(Meta.Data, Meta.Length);
  for (size_t F = 0; F != NumViewFamilies; ++F) {
    uint32_t NumViews = VC.u32();
    // Each view takes a key and a count, 8 meta bytes, so a view count the
    // section cannot hold never becomes a huge reservation.
    if (!VC.ok() || NumViews > NumEntries || NumViews > Meta.Length / 8)
      return false;
    Out.Keys[F].reserve(NumViews);
    Out.Counts[F].reserve(NumViews);
    for (uint32_t V = 0; V != NumViews && VC.ok(); ++V) {
      uint32_t Key = VC.u32();
      // Method-view keys are symbol ids; validate them against the
      // string table like every other symbol-bearing field.
      if (F == 1 && VC.ok() && Key >= NumStrings)
        return false;
      Out.Keys[F].push_back(Key);
    }
    for (uint32_t V = 0; V != NumViews && VC.ok(); ++V)
      Out.Counts[F].push_back(VC.u32());
  }
  if (!VC.ok() || !VC.atEnd())
    return false;
  Out.Entries.borrow(reinterpret_cast<const uint32_t *>(Flat.Data),
                     static_cast<size_t>(Flat.Length / sizeof(uint32_t)));
  Out.Present = true;
  return true;
}

/// Rewrites every symbol id of \p T — the method and name columns, the
/// two representation tables, the view index's method keys — from the
/// file's numbering to the interner's through \p Map. Those are copied
/// out of the file bytes; every other column, the representation-id
/// columns included, stays borrowed.
void remapSymbols(Trace &T, const std::vector<Symbol> &Map) {
  T.Fps.clear(); // Fingerprints hash symbol ids: recomputed by the caller.
  if (T.ViewIdx.Present) {
    // The index survives the remap: the partition structure and the
    // first-appearance order are invariant under re-interning — only the
    // method family's keys are symbol ids and need translation. Two
    // file-table strings interning to one symbol (possible only in a
    // hand-crafted table) would collapse two method views into one
    // identity; the fresh build would merge them, so the index is dropped
    // rather than reconstructing a diverging web.
    uint32_t *MethodKeys = T.ViewIdx.Keys[1].mutData();
    bool Collapsed = false;
    std::unordered_set<uint32_t> SeenKeys;
    SeenKeys.reserve(T.ViewIdx.Keys[1].size());
    for (size_t I = 0; I != T.ViewIdx.Keys[1].size(); ++I) {
      MethodKeys[I] = Map[MethodKeys[I]].Id;
      Collapsed |= !SeenKeys.insert(MethodKeys[I]).second;
    }
    if (Collapsed)
      T.ViewIdx.clear();
  }
  Symbol *M = T.Methods.mutData();
  Symbol *Nm = T.Names.mutData();
  for (size_t I = 0; I != T.size(); ++I) {
    M[I] = Map[M[I].Id];
    Nm[I] = Map[Nm[I].Id];
  }
  ObjRepr *Objs = T.ObjReprs.mutData();
  for (size_t I = 0; I != T.ObjReprs.size(); ++I)
    Objs[I].ClassName = Map[Objs[I].ClassName.Id];
  ValueRepr *Vals = T.ValueReprs.mutData();
  for (size_t I = 0; I != T.ValueReprs.size(); ++I)
    Vals[I].Text = Map[Vals[I].Text.Id];
}

/// The one trace reader. Verifies every section checksum, validates the
/// untrusted values (kinds, tids, symbol ids, representation rows and row
/// ids, argument slices) so nothing downstream needs to distrust them,
/// and *borrows* the columns, tables and view index zero-copy from the
/// file bytes. Damage to a primary section fails the read; a damaged
/// derived section is dropped and rebuilt. When the file's strings intern
/// to identical symbol ids — the common case for a fresh or same-session
/// interner — the stored fingerprints are used as they are; otherwise the
/// symbols are remapped and the fingerprints recomputed.
Expected<Trace> readTraceBytes(const std::string &Path, const FileBytes &File,
                               std::shared_ptr<StringInterner> Strings,
                               TraceReadReport *Report) {
  auto Corrupt = [&](const char *What) {
    return TraceError::corruptSection(Path, What);
  };
  if (File.Size < HeaderBytes)
    return TraceError::truncated(Path);

  // One child span of `load` per reader phase; emplace closes the previous
  // phase, and it is reset before `fingerprint` so that nests under `load`.
  std::optional<TelemetrySpan> Phase;
  Phase.emplace("checksum");

  // The header and the section table it seals must be intact, and the file
  // no longer than its declared length. A file cut short still loads when
  // the cut takes only derived sections or the final padding; a cut into
  // the table, entry data or a side table is trace.truncated.
  const FileHeader H = readHeader(File.Data);
  const uint64_t TableEnd =
      HeaderBytes + uint64_t{H.NumSections} * SectionRecordBytes;
  if (H.NumSections == 0 || H.NumSections > MaxSections)
    return Corrupt("header");
  if (File.Size < TableEnd)
    return TraceError::truncated(Path);
  if (H.Length < TableEnd ||
      checksumBytes(File.Data + HeaderSealedFrom,
                    TableEnd - HeaderSealedFrom) != H.Checksum)
    return Corrupt("header");
  if (File.Size > H.Length)
    return Corrupt("file-size");

  Expected<SectionTable> Parsed =
      parseSections(Path, File, H.NumSections, H.Length);
  if (!Parsed)
    return Parsed.error();
  const SectionTable &Sections = *Parsed;

  // Every entry refers into the side tables.
  if (!Sections[SecStrings].Present || !Sections[SecThreads].Present ||
      !Sections[SecObjRows].Present || !Sections[SecValRows].Present ||
      !Sections[SecArgPool].Present)
    return Corrupt("side-table");

  Trace T;
  T.Strings = std::move(Strings);
  if (Sections[SecName].Present)
    T.Name.assign(reinterpret_cast<const char *>(Sections[SecName].Data),
                  Sections[SecName].Length);

  Phase.emplace("intern");
  // Strings. The count is untrusted: every string costs at least its
  // 4-byte length prefix, so a count beyond Length/4 is corrupt — and can
  // never become a huge up-front allocation.
  std::vector<Symbol> Map; ///< File symbol id -> interner symbol.
  bool Identity = true;
  {
    ByteCursor SC(Sections[SecStrings].Data, Sections[SecStrings].Length);
    uint32_t Count = SC.u32();
    bool Ok = SC.ok() && uint64_t{Count} <= Sections[SecStrings].Length / 4;
    for (uint32_t K = 0; Ok && K != Count; ++K) {
      std::string Str = SC.str();
      Ok = SC.ok();
      if (Ok) {
        Map.push_back(T.Strings->intern(Str));
        Identity &= Map.back().Id == Map.size() - 1;
      }
    }
    if (!Ok || !SC.atEnd())
      return Corrupt("string");
  }

  // Threads.
  {
    ByteCursor TC(Sections[SecThreads].Data, Sections[SecThreads].Length);
    uint32_t Count = TC.u32();
    bool Ok = TC.ok();
    for (uint32_t K = 0; Ok && K != Count; ++K) {
      ThreadInfo Thread;
      Thread.Tid = TC.u32();
      Thread.ParentTid = TC.u32();
      uint32_t Method = TC.u32();
      Thread.AncestryHash = TC.u64();
      uint32_t StackSize = TC.u32();
      Ok = TC.ok() && Method < Map.size();
      if (Ok)
        Thread.EntryMethod = Map[Method];
      for (uint32_t J = 0; Ok && J != StackSize; ++J) {
        uint32_t Sym = TC.u32();
        Ok = TC.ok() && Sym < Map.size();
        if (Ok)
          Thread.SpawnStack.push_back(Map[Sym]);
      }
      if (Ok)
        T.Threads.push_back(std::move(Thread));
    }
    if (!Ok || !TC.atEnd())
      return Corrupt("thread");
  }

  Phase.emplace("validate");
  // Representation rows, each checked once here (kind and symbols), so
  // the per-entry checks below are id range checks. Row 0 of each table
  // is the empty representation the id columns use for "none"; the tables
  // come from the file, row 0 included.
  T.ObjReprs.clear();
  T.ValueReprs.clear();
  if (!takeTable(T.ObjReprs, Sections[SecObjRows],
                 [&](const ObjRepr &Row, uint64_t Id) {
                   return Row.ClassName.Id < Map.size() &&
                          (Id != 0 || isEmptyRow(Row));
                 }) ||
      !takeTable(T.ValueReprs, Sections[SecValRows],
                 [&](const ValueRepr &Row, uint64_t Id) {
                   return static_cast<uint8_t>(Row.Kind) <= MaxReprKind &&
                          Row.Text.Id < Map.size() &&
                          (Id != 0 || isEmptyRow(Row));
                 }))
    return Corrupt("representation-table");
  // Argument pool: value-row ids.
  const uint64_t NumObjRows = T.ObjReprs.size();
  const uint64_t NumValRows = T.ValueReprs.size();
  if (!takeTable(T.ArgIds, Sections[SecArgPool],
                 [NumValRows](uint32_t Id, uint64_t) {
                   return Id < NumValRows;
                 }))
    return Corrupt("argument-pool");
  const uint64_t PoolCount = T.ArgIds.size();

  // Entry columns: every one present, with exactly the declared entry
  // count.
  const uint64_t N = H.NumEntries;
  for (const ColumnSize &Col : ColumnSizes) {
    const SectionIn &S = Sections[Col.Id];
    if (!S.Present || S.Length != N * Col.ElemSize)
      return Corrupt("column");
  }
  auto Lane = [&Sections](uint32_t Id) {
    return reinterpret_cast<const uint32_t *>(Sections[Id].Data);
  };
  const uint8_t *Kinds = Sections[SecKind].Data;
  const uint32_t *Tids = Lane(SecTid);
  const auto *Methods =
      reinterpret_cast<const Symbol *>(Sections[SecMethod].Data);
  const auto *Names =
      reinterpret_cast<const Symbol *>(Sections[SecEvName].Data);
  const uint32_t *SelfIds = Lane(SecSelf);
  const uint32_t *TargetIds = Lane(SecTarget);
  const uint32_t *ValueIds = Lane(SecValue);
  const uint32_t *ArgsBegins = Lane(SecArgsBegin);
  const uint32_t *ArgsEnds = Lane(SecArgsEnd);
  const uint64_t NumThreads = T.Threads.size();
  for (uint64_t K = 0; K != N; ++K) {
    if (Kinds[K] > MaxEventKind)
      return Corrupt("kind");
    if (Tids[K] >= NumThreads)
      return Corrupt("tid");
    if (Methods[K].Id >= Map.size() || Names[K].Id >= Map.size())
      return Corrupt("symbol");
    if (SelfIds[K] >= NumObjRows || TargetIds[K] >= NumObjRows)
      return Corrupt("object");
    if (ValueIds[K] >= NumValRows)
      return Corrupt("value");
    if (ArgsBegins[K] > ArgsEnds[K] || ArgsEnds[K] > PoolCount)
      return Corrupt("argument-slice");
  }

  const size_t Count = static_cast<size_t>(N);
  takeColumn(T.Tids, Sections[SecTid], Count);
  takeColumn(T.Methods, Sections[SecMethod], Count);
  takeColumn(T.SelfIds, Sections[SecSelf], Count);
  takeColumn(T.Kinds, Sections[SecKind], Count);
  takeColumn(T.Names, Sections[SecEvName], Count);
  takeColumn(T.TargetIds, Sections[SecTarget], Count);
  takeColumn(T.ValueIds, Sections[SecValue], Count);
  takeColumn(T.ArgsBegins, Sections[SecArgsBegin], Count);
  takeColumn(T.ArgsEnds, Sections[SecArgsEnd], Count);
  takeColumn(T.ChildTids, Sections[SecChildTid], Count);
  takeColumn(T.Provs, Sections[SecProv], Count);

  // The derived sections. Stored fingerprints are used only from an intact
  // lane covering every entry; any other lane is dropped and recomputed
  // below (a wrong fingerprint would corrupt =e instead of merely costing
  // time).
  const SectionIn &Fp = Sections[SecFp];
  const bool UseFps = Fp.Present && Fp.Length == N * 8;
  const bool FpsDropped = Fp.Damaged || (Fp.Present && !UseFps);
  if (UseFps)
    takeColumn(T.Fps, Fp, Count);
  // Any damage to the persisted index (checksum, structure, one section
  // without the other) drops it: the view web is rebuilt from the entries,
  // and the drop is counted as `robust.view_index_dropped`.
  const SectionIn &Meta = Sections[SecViewMeta];
  const SectionIn &Flat = Sections[SecViewEntries];
  if (Meta.Seen || Flat.Seen) {
    bool Keep = !Meta.Damaged && !Flat.Damaged &&
                parseViewIndex(Sections, N, Map.size(), T.ViewIdx);
    if (!Keep || !viewIndexIsValid(T.ViewIdx, Count)) {
      T.ViewIdx.clear();
      Telemetry::counterAdd("robust.view_index_dropped");
      if (Report)
        Report->ViewIndexDropped = true;
    }
  }
  Phase.reset();

  // Borrowed columns point into the file bytes; Backing keeps them alive
  // for the life of the trace.
  T.Backing = File.Holder;
  if (!Identity) {
    // The interner assigned different ids: remap the symbol-bearing
    // columns and tables. Fingerprints hash symbol ids, so they are
    // recomputed below.
    Phase.emplace("remap");
    remapSymbols(T, Map);
    Phase.reset();
  }
  // Counted so repeat-load pipelines can spot that sharing one interner
  // across loads would make this free, and so a dropped lane shows.
  if (!Identity || FpsDropped)
    Telemetry::counterAdd("load.fp_recompute", 1);
  if (FpsDropped && Report)
    Report->FingerprintsDropped = true;
  // Zero-copy: with identical symbol ids a stored lane is used in place.
  if (Identity && T.Fps.size() == Count)
    T.HasFingerprints = true;
  else
    T.computeFingerprints();
  return T;
}

} // namespace

bool rprism::writeTrace(const Trace &T, const std::string &Path,
                        bool WithViewIndex) {
  // Opening truncates any previous file at Path, which for a large trace is
  // work of its own, so the span covers it.
  TelemetrySpan Span("write");
  Writer W(Path);
  if (!W.ok())
    return false;
  const size_t N = T.size();
  const bool WithFps = T.HasFingerprints && T.Fps.size() >= N;

  // The serialized side tables: strings and threads. The representation
  // tables and the argument pool are written straight from their columns.
  ByteBuffer StringsBuf;
  StringsBuf.u32(static_cast<uint32_t>(T.Strings->size()));
  for (size_t K = 0; K != T.Strings->size(); ++K)
    StringsBuf.str(T.Strings->text(Symbol{static_cast<uint32_t>(K)}));

  ByteBuffer ThreadsBuf;
  ThreadsBuf.u32(static_cast<uint32_t>(T.Threads.size()));
  for (const ThreadInfo &Thread : T.Threads) {
    ThreadsBuf.u32(Thread.Tid);
    ThreadsBuf.u32(Thread.ParentTid);
    ThreadsBuf.u32(Thread.EntryMethod.Id);
    ThreadsBuf.u64(Thread.AncestryHash);
    ThreadsBuf.u32(static_cast<uint32_t>(Thread.SpawnStack.size()));
    for (Symbol Sym : Thread.SpawnStack)
      ThreadsBuf.u32(Sym.Id);
  }

  // A trace that already holds a current index (loaded from an indexed
  // file) writes that index back verbatim; otherwise it is computed here,
  // at save time — the cost the indexed load amortizes.
  ViewIndex Computed;
  const ViewIndex *Idx = nullptr;
  ByteBuffer ViewMetaBuf;
  if (WithViewIndex) {
    if (!T.ViewIdx.Present) {
      TelemetrySpan IndexSpan("view-index");
      Computed = computeViewIndex(T);
    }
    Idx = T.ViewIdx.Present ? &T.ViewIdx : &Computed;
    for (size_t F = 0; F != NumViewFamilies; ++F) {
      ViewMetaBuf.u32(static_cast<uint32_t>(Idx->Keys[F].size()));
      for (uint32_t Key : Idx->Keys[F])
        ViewMetaBuf.u32(Key);
      for (uint32_t ListCount : Idx->Counts[F])
        ViewMetaBuf.u32(ListCount);
    }
  }

  // The entry columns are exactly N elements each; a side table is whole.
  auto EntryColumn = [N](uint32_t Id, const auto &Col) {
    return SectionOut{Id, Col.data(), N * sizeof(*Col.data())};
  };
  auto Table = [](uint32_t Id, const auto &Col) {
    return SectionOut{Id, Col.data(), Col.byteSize()};
  };
  std::vector<SectionOut> Sections = {
      {SecName, T.Name.data(), T.Name.size()},
      {SecStrings, StringsBuf.Out.data(), StringsBuf.Out.size()},
      {SecThreads, ThreadsBuf.Out.data(), ThreadsBuf.Out.size()},
      Table(SecObjRows, T.ObjReprs),
      Table(SecValRows, T.ValueReprs),
      Table(SecArgPool, T.ArgIds),
      EntryColumn(SecTid, T.Tids),
      EntryColumn(SecMethod, T.Methods),
      EntryColumn(SecSelf, T.SelfIds),
      EntryColumn(SecKind, T.Kinds),
      EntryColumn(SecEvName, T.Names),
      EntryColumn(SecTarget, T.TargetIds),
      EntryColumn(SecValue, T.ValueIds),
      EntryColumn(SecArgsBegin, T.ArgsBegins),
      EntryColumn(SecArgsEnd, T.ArgsEnds),
      EntryColumn(SecChildTid, T.ChildTids),
      EntryColumn(SecProv, T.Provs),
  };
  if (WithFps)
    Sections.push_back(EntryColumn(SecFp, T.Fps));
  if (Idx) {
    Sections.push_back(
        {SecViewMeta, ViewMetaBuf.Out.data(), ViewMetaBuf.Out.size()});
    Sections.push_back(
        {SecViewEntries, Idx->Entries.data(), Idx->Entries.byteSize()});
  }

  // Lay the payloads out 8-aligned after the section table, so mapped
  // column views satisfy their element alignment; the file ends 8-aligned.
  uint64_t Pos = HeaderBytes + Sections.size() * SectionRecordBytes;
  std::vector<uint64_t> Offsets(Sections.size());
  for (size_t K = 0; K != Sections.size(); ++K) {
    Pos = (Pos + 7) & ~uint64_t{7};
    Offsets[K] = Pos;
    Pos += Sections[K].Length;
  }
  const uint64_t Length = (Pos + 7) & ~uint64_t{7};

  // The sealed part of the header — counts and declared length — and the
  // section table, whose records carry each payload's checksum.
  ByteBuffer Sealed;
  uint64_t HeaderChecksum;
  {
    TelemetrySpan ChecksumSpan("checksum");
    Sealed.u32(static_cast<uint32_t>(N));
    Sealed.u32(static_cast<uint32_t>(Sections.size()));
    Sealed.u64(Length);
    for (size_t K = 0; K != Sections.size(); ++K) {
      Sealed.u32(Sections[K].Id);
      Sealed.u32(0); // pad
      Sealed.u64(Offsets[K]);
      Sealed.u64(Sections[K].Length);
      Sealed.u64(checksumBytes(Sections[K].Data, Sections[K].Length));
    }
    HeaderChecksum = checksumBytes(Sealed.Out.data(), Sealed.Out.size());
  }

  W.u32(TraceMagic);
  W.u32(TraceVersion);
  W.u64(HeaderChecksum);
  W.raw(Sealed.Out.data(), Sealed.Out.size());
  Pos = HeaderBytes + Sections.size() * SectionRecordBytes;
  for (size_t K = 0; K != Sections.size(); ++K) {
    W.zeros(Offsets[K] - Pos);
    W.raw(Sections[K].Data, Sections[K].Length);
    Pos = Offsets[K] + Sections[K].Length;
  }
  W.zeros(Length - Pos);
  return W.close();
}

Expected<Trace> rprism::readTrace(const std::string &Path,
                                  std::shared_ptr<StringInterner> Strings,
                                  TraceReadReport *Report) {
  TelemetrySpan Span("load");
  if (!Strings)
    Strings = std::make_shared<StringInterner>();
  Expected<FileBytes> File = openTraceFile(Path);
  if (!File)
    return File.error();
  Expected<Trace> Result =
      readTraceBytes(Path, *File, std::move(Strings), Report);
  if (Result)
    Telemetry::counterAdd("trace.entries_loaded", Result->size());
  return Result;
}

Expected<uint64_t> rprism::traceFileDigest(const std::string &Path) {
  Expected<FileBytes> Opened = openTraceFile(Path);
  if (!Opened)
    return Opened.error();
  const FileBytes &File = *Opened;
  // The header checksum seals the section table, and the table each
  // payload's checksum, so the header and the size cover the whole file
  // without touching the (potentially large) payload bytes.
  return hashCombine(
      checksumBytes(File.Data, std::min<size_t>(File.Size, HeaderBytes)),
      File.Size);
}

std::string rprism::dumpTrace(const Trace &T) {
  std::ostringstream OS;
  OS << "trace '" << T.Name << "': " << T.size() << " entries, "
     << T.Threads.size() << " thread(s)\n";
  for (uint32_t I = 0; I != T.size(); ++I)
    OS << "  [" << I << "] " << T.renderEntry(I) << '\n';
  return OS.str();
}
