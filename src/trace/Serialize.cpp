//===- trace/Serialize.cpp ------------------------------------------------===//

#include "trace/Serialize.h"

#include "robustness/FaultInjector.h"
#include "robustness/Retry.h"
#include "support/Hashing.h"
#include "support/Telemetry.h"
#include "trace/TraceError.h"
#include "trace/ViewIndex.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <optional>
#include <sstream>
#include <unordered_set>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#define RPRISM_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

using namespace rprism;

namespace {

constexpr uint32_t TraceMagic = 0x52505452; // "RPTR"
// Version history. Only 7 is read; every other version field is refused
// with trace.version, so trace files from older builds must be recorded
// again.
//   1, 2 — retired per-entry stream formats.
//   3 — a whole-trace columnar layout: a 16-byte header, one section table,
//       then 8-byte-aligned column payloads written verbatim, with FNV-1a
//       section checksums.
//   4 — the segmented layout below, with FNV-1a checksums.
//   5 — layout 3 with checksumBytes. Retired when the segmented layout
//       became the only one: a one-segment file holds the same payloads and
//       loads zero-copy the same way.
//   6 — the segmented layout, every checksum and digest computed by the
//       word-wise checksumBytes (support/Hashing.h): a 32-byte file header;
//       segments, each a segment header, a section table of (id, offset,
//       length, checksum) records and 8-byte-aligned payloads — its slice
//       of every entry column plus *deltas* of the side tables (strings and
//       threads first seen in the segment, the argument-pool slice its
//       entries reference) and a view-index delta; then a footer segment
//       directory and a fixed trailer. Per-segment checksums confine damage
//       to the segment it hits.
//   7 — layout 6 with dictionary-encoded representations: the self, target
//       and value columns and the argument-pool slice hold u32 row ids into
//       two per-trace tables of ObjRepr and ValueRepr rows (row 0 of each
//       the empty representation), which travel as two more side deltas.
//       Each representation is stored once, not once per entry. A file
//       holds exactly one segment (index 0, first entry id 0) whose side
//       deltas carry the whole tables from base 0, and a one-record
//       directory; readers refuse a second segment.
constexpr uint32_t TraceVersion = 7;

/// Section ids. Entry columns are parallel arrays of exactly the segment's
/// entry-count many elements; side sections have their own framing.
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
  // Side tables, framed as deltas (a base index, then elements) with
  // base 0: the strings, the threads, the argument pool and both
  // representation tables.
  SecStrDelta = 24,    ///< u32 base, u32 count, count x (u32 len, bytes).
  SecThreadDelta = 25, ///< u32 base, u32 count, ThreadInfo records.
  SecArgSlice = 26,    ///< u64 pool base (elements), then uint32_t[] ids.
  SecObjDelta = 27,    ///< u64 row base, then ObjRepr[].
  SecValDelta = 28,    ///< u64 row base, then ValueRepr[].
};

/// Largest section id this reader understands; higher ids are skipped for
/// forward compatibility.
constexpr uint32_t MaxSectionId = SecValDelta;

constexpr size_t SectionRecordBytes = 32; // id, pad, offset, length, checksum
constexpr uint32_t MaxSections = 64;

constexpr uint32_t SegMagic = 0x52505347;     // "RPSG", leads every segment
constexpr uint32_t FooterMagic = 0x52504654;  // "RPFT", leads the directory
constexpr uint32_t TrailerMagic = 0x52505445; // "RPTE", ends the file
// File header: magic, version, flags, segment entries, 2 x u64 reserved.
// Segment header: seg magic, index, u64 begin eid, num entries, num
// sections, u64 payload bytes (table + padding + payloads, 8-aligned — the
// footer, or a second segment, starts exactly payload-bytes after the
// header ends).
constexpr size_t FileHeaderBytes = 32;
constexpr size_t SegHeaderBytes = 32;
// Directory record: u64 offset, u64 table digest, u64 lane digest,
// u32 begin eid, u32 num entries.
constexpr size_t DirRecordBytes = 32;
// Trailer: u64 footer offset, u64 footer checksum, u32 num segments,
// u32 trailer magic.
constexpr size_t TrailerBytes = 24;

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

/// A side table written whole: the u64 index of its first element (always
/// 0, the layout's delta framing), then every element verbatim (the
/// reader's takeDelta).
template <typename E> ByteBuffer sideTable(const Column<E> &Col) {
  ByteBuffer Buf;
  Buf.u64(0);
  Buf.Out.append(reinterpret_cast<const char *>(Col.data()), Col.byteSize());
  return Buf;
}

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

/// One payload the segment carries: raw bytes, a view into a column or into
/// a serialized side buffer.
struct SectionOut {
  uint32_t Id;
  const void *Data;
  uint64_t Length;
};

// --- Reader ---------------------------------------------------------------

/// The bytes of a trace file, either mmap'd or read into an arena.
/// `Holder` keeps the bytes alive (and unmaps/frees on release).
struct FileBytes {
  std::shared_ptr<void> Holder;
  const uint8_t *Data = nullptr;
  size_t Size = 0;
  bool Mapped = false;
};

/// How a load attempt ended. NotFound is terminal (retrying cannot create
/// the file); Error covers everything transient-looking and is retried.
enum class IoStatus { Ok, NotFound, Error };

IoStatus loadFileBytesOnce(const std::string &Path, FileBytes &Out) {
  if (FaultInjector::fire(FaultSite::FileOpen))
    return IoStatus::Error; // Injected EIO on open.
#if RPRISM_HAVE_MMAP
  int Fd = ::open(Path.c_str(), O_RDONLY);
  if (Fd < 0)
    return errno == ENOENT || errno == ENOTDIR ? IoStatus::NotFound
                                               : IoStatus::Error;
  struct stat St;
  if (::fstat(Fd, &St) != 0 || St.st_size < 0) {
    ::close(Fd);
    return IoStatus::Error;
  }
  size_t Size = static_cast<size_t>(St.st_size);
  if (Size == 0) {
    ::close(Fd);
    Out = FileBytes{std::shared_ptr<void>(), nullptr, 0, false};
    return IoStatus::Ok;
  }
  // An injected mmap failure exercises the arena fallback below.
  if (!FaultInjector::fire(FaultSite::FileMmap)) {
    void *Map = ::mmap(nullptr, Size, PROT_READ, MAP_PRIVATE, Fd, 0);
    if (Map != MAP_FAILED) {
      ::close(Fd); // The mapping survives the descriptor.
      Out.Holder = std::shared_ptr<void>(
          Map, [Size](void *P) { ::munmap(P, Size); });
      Out.Data = static_cast<const uint8_t *>(Map);
      Out.Size = Size;
      Out.Mapped = true;
      return IoStatus::Ok;
    }
  }
  ::close(Fd);
#endif
  // Fallback: one read into an arena. operator new guarantees alignment
  // for every fundamental type, which covers the 8-byte column elements.
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File)
    return errno == ENOENT || errno == ENOTDIR ? IoStatus::NotFound
                                               : IoStatus::Error;
  std::fseek(File, 0, SEEK_END);
  long EndPos = std::ftell(File);
  if (EndPos < 0) {
    std::fclose(File);
    return IoStatus::Error;
  }
  size_t FileSize = static_cast<size_t>(EndPos);
  std::fseek(File, 0, SEEK_SET);
  std::shared_ptr<void> Arena(::operator new(FileSize ? FileSize : 1),
                              [](void *P) { ::operator delete(P); });
  size_t Got = FileSize ? std::fread(Arena.get(), 1, FileSize, File) : 0;
  std::fclose(File);
  if (Got != FileSize || FaultInjector::fire(FaultSite::FileRead))
    return IoStatus::Error; // Real or injected short read.
  // Injected in-flight bit flip: must be caught downstream by the section
  // checksums, never crash.
  FaultInjector::corruptByte(FaultSite::FileRead, Arena.get(), FileSize);
  Out.Holder = std::move(Arena);
  Out.Data = static_cast<const uint8_t *>(Out.Holder.get());
  Out.Size = FileSize;
  Out.Mapped = false;
  return IoStatus::Ok;
}

/// Degradation-ladder rung: transient I/O failures get a bounded retry
/// with backoff (robust.io_retry counts each retry) before surfacing.
/// The policy is the process-wide one (`--retry-policy` /
/// RPRISM_RETRY_POLICY), shared by the mmap and arena-read paths.
IoStatus loadFileBytes(const std::string &Path, FileBytes &Out) {
  IoStatus Status = IoStatus::Error;
  retryWithBackoff(
      ioRetryPolicy(),
      [&] {
        Status = loadFileBytesOnce(Path, Out);
        return Status != IoStatus::Error; // NotFound is terminal: no retry.
      },
      [](unsigned) { Telemetry::counterAdd("robust.io_retry"); });
  return Status;
}

/// Loads \p Path and checks the magic and version field every trace file
/// starts with; only a current-version trace file gets past here.
Expected<FileBytes> openTraceFile(const std::string &Path) {
  FileBytes File;
  IoStatus Status = loadFileBytes(Path, File);
  if (Status == IoStatus::NotFound)
    return TraceError::notFound(Path);
  if (Status == IoStatus::Error)
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

/// A section as parsed from a segment's table: pointer into the file
/// bytes, recorded length, how many of its leading bytes are actually
/// present, and whether the payload is fully present and checksum-clean.
struct SectionIn {
  const uint8_t *Data = nullptr;
  uint64_t Length = 0; ///< Recorded payload length.
  uint64_t Avail = 0;  ///< Leading bytes of it present in the file.
  bool Present = false;
  bool Intact = false; ///< Fully present and checksum-verified.
};

/// The two view-index sections are derived data (rebuildable from the
/// columns), so damage to them degrades instead of failing the load.
bool isViewSection(uint32_t Id) {
  return Id == SecViewMeta || Id == SecViewEntries;
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

/// One segment located in the file: its header fields and byte extent.
struct SegExtent {
  uint64_t Offset = 0; ///< Absolute offset of the segment header.
  uint64_t BeginEid = 0;
  uint32_t NumEntries = 0;
  uint32_t NumSections = 0;
  uint64_t PayloadBytes = 0; ///< Declared bytes after the header.
  uint64_t PresentBytes = 0; ///< Of those, the bytes inside the file.
};

/// Parses the segment header at \p Off. False when the bytes there cannot
/// be segment number \p Index of this file (wrong magic or index, bad
/// section count, extent out of bounds) — which is also how the chain
/// scan detects the end of the segment chain. With \p Clip, a payload
/// running past the end of the file is accepted, clipped there.
bool parseSegHeader(const FileBytes &File, uint64_t Off, uint32_t Index,
                    bool Clip, SegExtent &Out) {
  if (Off % 8 != 0 || Off > File.Size || File.Size - Off < SegHeaderBytes)
    return false;
  const uint8_t *P = File.Data + Off;
  uint32_t Magic, SegIndex, NumEntries, NumSections;
  uint64_t BeginEid, PayloadBytes;
  std::memcpy(&Magic, P, 4);
  std::memcpy(&SegIndex, P + 4, 4);
  std::memcpy(&BeginEid, P + 8, 8);
  std::memcpy(&NumEntries, P + 16, 4);
  std::memcpy(&NumSections, P + 20, 4);
  std::memcpy(&PayloadBytes, P + 24, 8);
  if (Magic != SegMagic || SegIndex != Index || NumSections == 0 ||
      NumSections > MaxSections)
    return false;
  uint64_t Remaining = File.Size - Off - SegHeaderBytes;
  if (PayloadBytes < uint64_t{NumSections} * SectionRecordBytes ||
      (!Clip && PayloadBytes > Remaining))
    return false;
  Out = SegExtent{Off,         BeginEid,     NumEntries,
                  NumSections, PayloadBytes, std::min(PayloadBytes, Remaining)};
  return true;
}

/// The footer directory the trailer points at.
struct Footer {
  uint64_t Offset = 0;
  uint32_t NumSegments = 0;
  uint64_t Checksum = 0; ///< Of the footer bytes, verified.
};

/// Finds the footer through the trailer. False unless the trailer magic
/// holds, the footer fills exactly the bytes between the file header and
/// the trailer, and its checksum verifies.
bool findFooter(const FileBytes &File, Footer &Out) {
  if (File.Size < FileHeaderBytes + TrailerBytes)
    return false;
  const uint8_t *Tr = File.Data + File.Size - TrailerBytes;
  uint64_t Offset, Checksum;
  uint32_t NumSegments, Magic;
  std::memcpy(&Offset, Tr, 8);
  std::memcpy(&Checksum, Tr + 8, 8);
  std::memcpy(&NumSegments, Tr + 16, 4);
  std::memcpy(&Magic, Tr + 20, 4);
  // Subtraction form: on a hostile trailer the sum Offset + Bytes can wrap
  // around to pass a bounds test and hash from outside the mapping.
  uint64_t Bytes = 8 + uint64_t{NumSegments} * DirRecordBytes;
  if (Magic != TrailerMagic || Offset < FileHeaderBytes ||
      Offset > File.Size - TrailerBytes ||
      Bytes != File.Size - TrailerBytes - Offset)
    return false;
  Out = {Offset, NumSegments,
         checksumBytes(File.Data + Offset, static_cast<size_t>(Bytes))};
  return Out.Checksum == Checksum;
}

/// Locates the segments through the footer directory. False unless the
/// footer and every directory record verify against the segment header
/// and section table they point at.
bool readDirectory(const FileBytes &File, std::vector<SegExtent> &Segs) {
  Footer Foot;
  if (!findFooter(File, Foot))
    return false;
  const uint8_t *F = File.Data + Foot.Offset;
  uint32_t FMagic, FCount;
  std::memcpy(&FMagic, F, 4);
  std::memcpy(&FCount, F + 4, 4);
  if (FMagic != FooterMagic || FCount != Foot.NumSegments)
    return false;
  for (uint32_t S = 0; S != Foot.NumSegments; ++S) {
    const uint8_t *R = F + 8 + S * DirRecordBytes;
    uint64_t Offset, TableDigest;
    uint32_t BeginEid, NumEntries;
    std::memcpy(&Offset, R, 8);
    std::memcpy(&TableDigest, R + 8, 8);
    std::memcpy(&BeginEid, R + 24, 4);
    std::memcpy(&NumEntries, R + 28, 4);
    SegExtent E;
    if (!parseSegHeader(File, Offset, S, /*Clip=*/false, E) ||
        E.BeginEid != BeginEid || E.NumEntries != NumEntries ||
        checksumBytes(File.Data + Offset + SegHeaderBytes,
                      uint64_t{E.NumSections} * SectionRecordBytes) !=
            TableDigest) {
      Segs.clear();
      return false;
    }
    Segs.push_back(E);
  }
  return true;
}

/// Locates the segments by walking header to header from the top of the
/// file, for a file whose directory is damaged or missing: each header
/// declares its payload extent, the last one found clipped at the end of a
/// file cut short. The walk stops at the second segment, which is enough
/// to refuse the file. Returns whether the file was cut short: it ends
/// inside the chain rather than at bytes that are no segment header (a
/// footer, damage).
bool chainScan(const FileBytes &File, std::vector<SegExtent> &Segs) {
  uint64_t Off = FileHeaderBytes;
  for (uint32_t Index = 0; Index != 2; ++Index) {
    SegExtent E;
    if (!parseSegHeader(File, Off, Index, /*Clip=*/true, E))
      break;
    Segs.push_back(E);
    if (E.PresentBytes < E.PayloadBytes)
      return true;
    Off += SegHeaderBytes + E.PayloadBytes;
  }
  return File.Size - Off < SegHeaderBytes;
}

/// One segment's parsed section table. View-index damage is always
/// degradable; damage to any other section is a strict error (the first
/// is kept as Fault, a cut flagged as Cut) and, for salvage, leaves that
/// section absent or not intact for the caller to weigh.
struct SegSections {
  SectionIn S[MaxSectionId + 1] = {};
  bool ViewDamaged = false;
  bool Cut = false; ///< The end of the file cuts the table or entry data.
  std::optional<Err> Fault;
};

SegSections parseSegSections(const std::string &Path, const FileBytes &File,
                             const SegExtent &Seg) {
  SegSections Out;
  auto Damage = [&Out](uint32_t Id, Err E) {
    if (isViewSection(Id))
      Out.ViewDamaged = true;
    else if (!Out.Fault)
      Out.Fault = std::move(E);
  };
  uint64_t RelTableEnd =
      SegHeaderBytes + uint64_t{Seg.NumSections} * SectionRecordBytes;
  uint64_t RelEnd = SegHeaderBytes + Seg.PayloadBytes;
  uint64_t RelAvail = SegHeaderBytes + Seg.PresentBytes;
  if (RelAvail < RelTableEnd) {
    Out.Cut = true; // The end of the file cuts the table: nothing is usable.
    return Out;
  }
  const uint8_t *Base = File.Data + Seg.Offset;
  for (uint32_t I = 0; I != Seg.NumSections; ++I) {
    const uint8_t *Record = Base + SegHeaderBytes + I * SectionRecordBytes;
    uint32_t Id;
    uint64_t Offset, Length, Checksum;
    std::memcpy(&Id, Record, 4);
    std::memcpy(&Offset, Record + 8, 8);
    std::memcpy(&Length, Record + 16, 8);
    std::memcpy(&Checksum, Record + 24, 8);
    if (Offset % 8 != 0 || Offset < RelTableEnd || Offset > RelEnd ||
        Length > RelEnd - Offset) {
      // The record itself is unusable: salvage treats the section as
      // absent.
      Damage(Id, TraceError::sectionBounds(Path, Id, Seg.Offset + Offset));
      continue;
    }
    if (Id > MaxSectionId)
      continue; // Unknown section: forward compatibility.
    if (Out.S[Id].Present) {
      Damage(Id, TraceError::duplicateSection(Path, Id));
      continue; // Salvage keeps the first record seen.
    }
    uint64_t Avail =
        Offset < RelAvail ? std::min(Length, RelAvail - Offset) : 0;
    bool Intact = Avail == Length;
    const uint8_t *Data = Base + std::min(Offset, RelAvail);
    if (Intact && (checksumBytes(Data, Length) != Checksum ||
                   FaultInjector::fire(FaultSite::SectionChecksum))) {
      // Checksum mismatch (real or injected): the damage can be anywhere
      // in the payload, so unlike a cut no prefix is trustworthy.
      Damage(Id, TraceError::sectionChecksum(Path, Id, Seg.Offset + Offset));
      if (isViewSection(Id))
        continue;
      Intact = false;
      Avail = 0;
    } else if (!Intact) {
      // The file ends inside this payload.
      if (isViewSection(Id)) {
        Out.ViewDamaged = true;
        continue;
      }
      Out.Cut = true;
    }
    Out.S[Id] = SectionIn{Data, Length, Avail, true, Intact};
  }
  return Out;
}

/// Points \p Col at the first \p N elements of section \p S.
template <typename E>
void takeColumn(Column<E> &Col, const SectionIn &S, size_t N) {
  Col.borrow(reinterpret_cast<const E *>(S.Data), N);
}

/// Points \p Col at a side table — a u64 base, then whole elements, 8
/// bytes into the section so the borrowed elements stay aligned. False,
/// leaving \p Col as it was, unless the base is 0 (the table is whole) and
/// \p Valid accepts every element with its index.
template <typename E, typename Pred>
bool takeDelta(Column<E> &Col, const SectionIn &S, Pred Valid) {
  if (S.Length < 8 || (S.Length - 8) % sizeof(E) != 0)
    return false;
  uint64_t Base = 0;
  std::memcpy(&Base, S.Data, 8);
  if (Base != 0)
    return false;
  size_t Count = static_cast<size_t>((S.Length - 8) / sizeof(E));
  const auto *Elems = reinterpret_cast<const E *>(S.Data + 8);
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

/// Parses the segment's view index into \p Out: the small meta section
/// copied out, the flat entry lists borrowed. Structural validity is
/// checked by the caller.
bool parseViewIndex(const SectionIn *S, uint64_t NumEntries,
                    size_t NumStrings, ViewIndex &Out) {
  const SectionIn &Meta = S[SecViewMeta], &Flat = S[SecViewEntries];
  if (!Meta.Intact || !Flat.Intact || Flat.Length % sizeof(uint32_t) != 0)
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
/// and *borrows* the segment's columns, tables and view index zero-copy
/// from the file bytes. When the file's strings intern to identical symbol
/// ids — the common case for a fresh or same-session interner — the stored
/// fingerprints are used as they are; otherwise the symbols are remapped
/// and the fingerprints recomputed.
Expected<Trace> readTraceBytes(const std::string &Path, const FileBytes &File,
                               std::shared_ptr<StringInterner> Strings,
                               const ReadOptions &Options) {
  const bool Salvage = Options.Salvage;
  auto Corrupt = [&](const char *What) {
    return TraceError::corruptSection(Path, What);
  };
  // What salvage returns when damage leaves no entry usable.
  auto NothingRecovered = [&] {
    return TraceError::unsalvageable(Path, "no entries recovered");
  };
  if (File.Size < FileHeaderBytes)
    return TraceError::truncated(Path);

  // One child span of `load` per reader phase; emplace closes the previous
  // phase, and it is reset before `fingerprint` so that nests under `load`.
  std::optional<TelemetrySpan> Phase;
  Phase.emplace("checksum");

  // Locate the segment through the directory; without a valid one, by the
  // chain scan. A file holds exactly one segment, so a second one, found
  // either way, is refused in salvage reads too. A strict read needs the
  // directory unless the file ends inside the segment: a cut that takes
  // only the derived view index (and the directory after it) loads without
  // the index, a cut into entry data is trace.truncated.
  std::vector<SegExtent> Segs;
  bool DirValid = readDirectory(File, Segs);
  bool CutShort = !DirValid && chainScan(File, Segs);
  if (DirValid ? Segs.size() != 1 : Segs.size() > 1)
    return Corrupt("segment-count");
  if (!DirValid) {
    bool Clipped =
        !Segs.empty() && Segs[0].PresentBytes < Segs[0].PayloadBytes;
    if (!Salvage && !Clipped)
      return CutShort ? TraceError::truncated(Path)
                      : Corrupt("segment-directory");
    if (Segs.empty())
      return TraceError::unsalvageable(Path, "no intact segments");
  }
  const SegExtent &Seg = Segs[0];
  if (!Salvage && Seg.BeginEid != 0)
    return Corrupt("segment-header");

  SegSections Parsed = parseSegSections(Path, File, Seg);
  if (!Salvage && Parsed.Fault)
    return *Parsed.Fault;
  if (!Salvage && Parsed.Cut)
    return TraceError::truncated(Path);
  const SectionIn *Sections = Parsed.S;

  // Every entry refers into the side tables, and no prefix of them is
  // usable (they frame variable-length data), so damage to one leaves
  // salvage nothing.
  if (!Sections[SecStrDelta].Intact || !Sections[SecThreadDelta].Intact ||
      !Sections[SecObjDelta].Intact || !Sections[SecValDelta].Intact ||
      !Sections[SecArgSlice].Intact)
    return Salvage ? NothingRecovered() : Corrupt("segment-side-delta");

  Trace T;
  T.Strings = std::move(Strings);
  if (Sections[SecName].Intact)
    T.Name.assign(reinterpret_cast<const char *>(Sections[SecName].Data),
                  Sections[SecName].Length);

  Phase.emplace("intern");
  // Strings: the base must be 0 (the table is whole). The count is
  // untrusted: every string costs at least its 4-byte length prefix, so a
  // count beyond Length/4 is corrupt — and can never become a huge
  // up-front allocation.
  std::vector<Symbol> Map; ///< File symbol id -> interner symbol.
  bool Identity = true;
  {
    ByteCursor SC(Sections[SecStrDelta].Data, Sections[SecStrDelta].Length);
    uint32_t Base = SC.u32();
    uint32_t NumNew = SC.u32();
    bool Ok = SC.ok() && Base == 0 &&
              uint64_t{NumNew} <= Sections[SecStrDelta].Length / 4;
    for (uint32_t K = 0; Ok && K != NumNew; ++K) {
      std::string Str = SC.str();
      Ok = SC.ok();
      if (Ok) {
        Map.push_back(T.Strings->intern(Str));
        Identity &= Map.back().Id == Map.size() - 1;
      }
    }
    if (!Ok || !SC.atEnd())
      return Salvage ? NothingRecovered() : Corrupt("string");
  }

  // Threads.
  {
    ByteCursor TC(Sections[SecThreadDelta].Data,
                  Sections[SecThreadDelta].Length);
    uint32_t Base = TC.u32();
    uint32_t NumNew = TC.u32();
    bool Ok = TC.ok() && Base == 0;
    for (uint32_t K = 0; Ok && K != NumNew; ++K) {
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
      return Salvage ? NothingRecovered() : Corrupt("thread");
  }

  Phase.emplace("validate");
  // Representation rows, each checked once here (kind and symbols), so
  // the per-entry checks below are id range checks. Row 0 of each table
  // is the empty representation the id columns use for "none"; the tables
  // come from the file, row 0 included.
  T.ObjReprs.clear();
  T.ValueReprs.clear();
  if (!takeDelta(T.ObjReprs, Sections[SecObjDelta],
                 [&](const ObjRepr &Row, uint64_t Id) {
                   return Row.ClassName.Id < Map.size() &&
                          (Id != 0 || isEmptyRow(Row));
                 }) ||
      !takeDelta(T.ValueReprs, Sections[SecValDelta],
                 [&](const ValueRepr &Row, uint64_t Id) {
                   return static_cast<uint8_t>(Row.Kind) <= MaxReprKind &&
                          Row.Text.Id < Map.size() &&
                          (Id != 0 || isEmptyRow(Row));
                 }))
    return Salvage ? NothingRecovered() : Corrupt("representation-table");
  // Argument pool: value-row ids.
  const uint64_t NumObjRows = T.ObjReprs.size();
  const uint64_t NumValRows = T.ValueReprs.size();
  if (!takeDelta(T.ArgIds, Sections[SecArgSlice],
                 [NumValRows](uint32_t Id, uint64_t) {
                   return Id < NumValRows;
                 }))
    return Salvage ? NothingRecovered() : Corrupt("argument-pool");
  const uint64_t PoolCount = T.ArgIds.size();

  // Entry columns. A strict read demands every column present with
  // exactly the declared entry count. Salvage keeps the longest prefix
  // every column covers — a checksum-failed column covers nothing, one
  // cut by the end of the file its whole elements — and that validates.
  uint64_t N = Seg.NumEntries;
  for (const ColumnSize &Col : ColumnSizes) {
    const SectionIn &S = Sections[Col.Id];
    if (!Salvage && (!S.Present || S.Length != N * Col.ElemSize))
      return Corrupt("column");
    N = std::min(N, S.Avail / Col.ElemSize);
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
    const char *Bad = nullptr;
    if (Kinds[K] > MaxEventKind)
      Bad = "kind";
    else if (Tids[K] >= NumThreads)
      Bad = "tid";
    else if (Methods[K].Id >= Map.size() || Names[K].Id >= Map.size())
      Bad = "symbol";
    else if (SelfIds[K] >= NumObjRows || TargetIds[K] >= NumObjRows)
      Bad = "object";
    else if (ValueIds[K] >= NumValRows)
      Bad = "value";
    else if (ArgsBegins[K] > ArgsEnds[K] || ArgsEnds[K] > PoolCount)
      Bad = "argument-slice";
    if (!Bad)
      continue;
    if (!Salvage)
      return Corrupt(Bad);
    N = K; // Keep the prefix of entries that validate.
    break;
  }
  // Stored fingerprints are trusted only from an intact lane covering
  // every declared entry; otherwise they are recomputed (a wrong one would
  // corrupt =e instead of merely costing time).
  const SectionIn &Fp = Sections[SecFp];
  bool UseFps = Fp.Intact && Fp.Length == uint64_t{Seg.NumEntries} * 8;
  bool FpsDamaged = Fp.Present && !UseFps;
  if (FpsDamaged && !Salvage)
    return Corrupt("fingerprint");
  const uint64_t EntriesDropped = Seg.NumEntries - N;
  if (N == 0 && Seg.NumEntries != 0)
    return NothingRecovered();

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
  if (UseFps)
    takeColumn(T.Fps, Fp, Count);

  // The persisted index is derived data — rebuildable from the columns —
  // so *any* damage to it (checksum, structure, one section without the
  // other, an injected borrow failure) degrades to an index-less load: the
  // view web is rebuilt from the entries, and the fallback is observable
  // via `robust.view_index_dropped`. Dropped entries leave it describing
  // entries the trace lacks, so it is then not parsed at all.
  bool FileHasViewIndex = Parsed.ViewDamaged ||
                          Sections[SecViewMeta].Present ||
                          Sections[SecViewEntries].Present;
  if (FileHasViewIndex) {
    bool Keep = !Parsed.ViewDamaged && EntriesDropped == 0 &&
                parseViewIndex(Sections, N, Map.size(), T.ViewIdx) &&
                !FaultInjector::fire(FaultSite::ViewIndexBorrow);
    if (!Keep || !viewIndexIsValid(T.ViewIdx, Count)) {
      T.ViewIdx.clear();
      Telemetry::counterAdd("robust.view_index_dropped");
      if (Options.Report)
        Options.Report->ViewIndexDropped = true;
    }
  }
  Phase.reset();

  // Borrowed columns point into the file bytes; Backing keeps them alive
  // for the life of the trace.
  T.Backing = File.Holder;
  if (Identity) {
    // Zero-copy: symbol ids in the file are valid in this interner, so
    // borrowed columns (stored fingerprints included) are used in place.
    if (T.Fps.size() == Count)
      T.HasFingerprints = true;
    else
      T.computeFingerprints();
  } else {
    // The interner assigned different ids: remap the symbol-bearing
    // columns and tables, then recompute fingerprints (they hash symbol
    // ids). Counted so
    // repeat-load pipelines can spot that sharing one interner across
    // loads would make this free.
    Phase.emplace("remap");
    remapSymbols(T, Map);
    Phase.reset();
    Telemetry::counterAdd("load.fp_recompute", 1);
    T.computeFingerprints();
  }

  if (Salvage && (!DirValid || EntriesDropped != 0 || FpsDamaged)) {
    Telemetry::counterAdd("robust.salvage.used");
    Telemetry::counterAdd("robust.salvage.recovered_entries", Count);
    Telemetry::counterAdd("robust.salvage.dropped_entries", EntriesDropped);
    if (Options.Report) {
      Options.Report->Salvaged = true;
      Options.Report->EntriesRecovered = Count;
      Options.Report->EntriesDropped = EntriesDropped;
    }
  }
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

  // The side tables, each whole: strings, threads, both representation
  // tables and the argument pool.
  ByteBuffer StringsBuf;
  StringsBuf.u32(0); // Base: the layout's delta framing.
  StringsBuf.u32(static_cast<uint32_t>(T.Strings->size()));
  for (size_t K = 0; K != T.Strings->size(); ++K)
    StringsBuf.str(T.Strings->text(Symbol{static_cast<uint32_t>(K)}));

  ByteBuffer ThreadsBuf;
  ThreadsBuf.u32(0); // Base.
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
  ByteBuffer ObjTableBuf = sideTable(T.ObjReprs);
  ByteBuffer ValTableBuf = sideTable(T.ValueReprs);
  ByteBuffer ArgPoolBuf = sideTable(T.ArgIds);

  // A trace that already holds a current index (loaded from an indexed
  // file) writes that index back verbatim; otherwise it is computed here,
  // at save time — the cost the indexed load amortizes.
  ViewIndex Computed;
  const ViewIndex *Idx = nullptr;
  ByteBuffer ViewMetaBuf;
  if (WithViewIndex) {
    if (!T.ViewIdx.Present)
      Computed = computeViewIndex(T);
    Idx = T.ViewIdx.Present ? &T.ViewIdx : &Computed;
    for (size_t F = 0; F != NumViewFamilies; ++F) {
      ViewMetaBuf.u32(static_cast<uint32_t>(Idx->Keys[F].size()));
      for (uint32_t Key : Idx->Keys[F])
        ViewMetaBuf.u32(Key);
      for (uint32_t ListCount : Idx->Counts[F])
        ViewMetaBuf.u32(ListCount);
    }
  }

  // The entry columns are exactly N elements each.
  auto EntryColumn = [N](uint32_t Id, const auto &Col) {
    return SectionOut{Id, Col.data(), N * sizeof(*Col.data())};
  };
  std::vector<SectionOut> Sections = {
      {SecName, T.Name.data(), T.Name.size()},
      {SecStrDelta, StringsBuf.Out.data(), StringsBuf.Out.size()},
      {SecThreadDelta, ThreadsBuf.Out.data(), ThreadsBuf.Out.size()},
      {SecObjDelta, ObjTableBuf.Out.data(), ObjTableBuf.Out.size()},
      {SecValDelta, ValTableBuf.Out.data(), ValTableBuf.Out.size()},
      {SecArgSlice, ArgPoolBuf.Out.data(), ArgPoolBuf.Out.size()},
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

  // Lay the payloads out 8-aligned after the segment's table, offsets
  // relative to the segment header (the segment itself is 8-aligned), so
  // mapped column views satisfy their element alignment.
  uint64_t Rel = SegHeaderBytes + Sections.size() * SectionRecordBytes;
  std::vector<uint64_t> Offsets(Sections.size());
  for (size_t K = 0; K != Sections.size(); ++K) {
    Rel = (Rel + 7) & ~uint64_t{7};
    Offsets[K] = Rel;
    Rel += Sections[K].Length;
  }
  uint64_t RelEnd = (Rel + 7) & ~uint64_t{7};
  uint64_t PayloadBytes = RelEnd - SegHeaderBytes;

  ByteBuffer Table;
  uint64_t TableDigest, LaneDigest;
  {
    TelemetrySpan ChecksumSpan("checksum");
    uint64_t FpSum = 0, TidSum = 0;
    for (size_t K = 0; K != Sections.size(); ++K) {
      uint64_t Sum = checksumBytes(Sections[K].Data, Sections[K].Length);
      Table.u32(Sections[K].Id);
      Table.u32(0); // pad
      Table.u64(Offsets[K]);
      Table.u64(Sections[K].Length);
      Table.u64(Sum);
      if (Sections[K].Id == SecFp)
        FpSum = Sum;
      else if (Sections[K].Id == SecTid)
        TidSum = Sum;
    }
    TableDigest = checksumBytes(Table.Out.data(), Table.Out.size());
    // The directory's lane digest combines the fingerprint (0 when absent)
    // and tid lanes' section checksums.
    LaneDigest = hashCombine(FpSum, TidSum);
  }

  // File header: magic, version, flags (fingerprint presence is per
  // segment: SecFp), the segment's entry count (at least 1), reserved.
  W.u32(TraceMagic);
  W.u32(TraceVersion);
  W.u32(0);
  W.u32(static_cast<uint32_t>(std::min<size_t>(std::max<size_t>(N, 1), ~0u)));
  W.u64(0);
  W.u64(0);

  // The segment: its header, section table and payloads. An entry-less
  // trace still writes it, so the side tables have somewhere to live.
  W.u32(SegMagic);
  W.u32(0); // Segment index.
  W.u64(0); // First entry id.
  W.u32(static_cast<uint32_t>(N));
  W.u32(static_cast<uint32_t>(Sections.size()));
  W.u64(PayloadBytes);
  W.raw(Table.Out.data(), Table.Out.size());
  uint64_t Pos = SegHeaderBytes + Sections.size() * SectionRecordBytes;
  for (size_t K = 0; K != Sections.size(); ++K) {
    W.zeros(Offsets[K] - Pos);
    W.raw(Sections[K].Data, Sections[K].Length);
    Pos = Offsets[K] + Sections[K].Length;
  }
  W.zeros(RelEnd - Pos);

  // The one-record footer directory, then the trailer.
  ByteBuffer Footer;
  Footer.u32(FooterMagic);
  Footer.u32(1);
  Footer.u64(FileHeaderBytes); // The segment's offset.
  Footer.u64(TableDigest);
  Footer.u64(LaneDigest);
  Footer.u32(0); // First entry id.
  Footer.u32(static_cast<uint32_t>(N));
  W.raw(Footer.Out.data(), Footer.Out.size());
  W.u64(FileHeaderBytes + SegHeaderBytes + PayloadBytes); // Footer offset.
  W.u64(checksumBytes(Footer.Out.data(), Footer.Out.size()));
  W.u32(1); // Segment count.
  W.u32(TrailerMagic);
  return W.close();
}

Expected<Trace> rprism::readTrace(const std::string &Path,
                                  std::shared_ptr<StringInterner> Strings) {
  return readTrace(Path, std::move(Strings), ReadOptions{});
}

Expected<Trace> rprism::readTrace(const std::string &Path,
                                  std::shared_ptr<StringInterner> Strings,
                                  const ReadOptions &Options) {
  TelemetrySpan Span("load");
  if (!Strings)
    Strings = std::make_shared<StringInterner>();
  Expected<FileBytes> File = openTraceFile(Path);
  if (!File)
    return File.error();
  if (File->Mapped)
    Telemetry::counterAdd("load.mmap", 1);
  Expected<Trace> Result =
      readTraceBytes(Path, *File, std::move(Strings), Options);
  if (Result)
    Telemetry::counterAdd("trace.entries_loaded", Result->size());
  return Result;
}

Expected<uint64_t> rprism::traceFileDigest(const std::string &Path) {
  Expected<FileBytes> Opened = openTraceFile(Path);
  if (!Opened)
    return Opened.error();
  const FileBytes &File = *Opened;
  // The footer directory carries the segment's table digest, and the
  // segment table carries per-payload checksums, so header + footer cover
  // the whole content without touching the (potentially large) payload
  // bytes. A damaged footer, which the full read rejects anyway, falls
  // back to hashing the whole file.
  Footer Foot;
  if (findFooter(File, Foot))
    return hashCombine(checksumBytes(File.Data, FileHeaderBytes),
                       Foot.Checksum, File.Size);
  return hashCombine(checksumBytes(File.Data, File.Size), File.Size);
}

std::string rprism::dumpTrace(const Trace &T) {
  std::ostringstream OS;
  OS << "trace '" << T.Name << "': " << T.size() << " entries, "
     << T.Threads.size() << " thread(s)\n";
  for (uint32_t I = 0; I != T.size(); ++I)
    OS << "  [" << I << "] " << T.renderEntry(I) << '\n';
  return OS.str();
}
