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
#include <cstdlib>
#include <cstring>
#include <optional>
#include <sstream>
#include <unordered_map>
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
// Version history. The layouts keep their names (v3 columnar, v4
// segmented) across version-field bumps; only 5 and 6 are read.
//   1, 2 — retired per-entry stream formats; refused as trace.version.
//   3 — the v3 sectioned columnar layout (see Serialize.h): header +
//       section table + 8-byte-aligned column payloads written verbatim,
//       with per-section FNV-1a checksums. Fingerprints *are* stored (their
//       own column section, flagged in the header) and load zero-copy when
//       symbol identity holds. Refused as trace.version.
//   4 — the v4 segmented layout: a 32-byte file header, then
//       fixed-entry-count segments each framed like a miniature v3 file
//       (segment header + section table + aligned payloads, per-section
//       checksums) and carrying *deltas* of the side tables (strings/threads
//       newly seen since the previous segment, the argument-pool slice its
//       entries reference) plus a view-index delta, closed by a footer
//       segment directory and a fixed trailer. Independent per-segment
//       checksums are the point: damage confined to one segment's entry
//       columns costs exactly that segment under --salvage, and a recorder
//       can seal segments while still appending (the side tables only
//       grow). FNV-1a checksums; refused as trace.version.
//   5 — the v3 layout with every checksum and digest computed by the
//       word-wise checksumBytes (support/Hashing.h) instead of FNV-1a.
//   6 — the v4 layout, likewise with checksumBytes.
constexpr uint32_t TraceVersion = 5;
constexpr uint32_t SegTraceVersion = 6;

/// Header flag bit: the file carries a fingerprint column.
constexpr uint32_t FlagHasFingerprints = 1u << 0;

/// v3 section ids. Entry columns are parallel arrays of exactly the
/// entry-count many elements; side sections have their own framing.
enum SectionId : uint32_t {
  SecName = 1,    ///< Raw bytes of Trace::Name.
  SecStrings = 2, ///< u32 count, then count x (u32 len, bytes).
  SecThreads = 3, ///< u32 count, then serialized ThreadInfo records.
  SecArgPool = 4, ///< ValueRepr[] verbatim.
  SecTid = 10,       ///< uint32_t[]
  SecMethod = 11,    ///< Symbol[]
  SecSelf = 12,      ///< ObjRepr[]
  SecKind = 13,      ///< uint8_t[]  (defines the entry count)
  SecEvName = 14,    ///< Symbol[]
  SecTarget = 15,    ///< ObjRepr[]
  SecValue = 16,     ///< ValueRepr[]
  SecArgsBegin = 17, ///< uint32_t[]
  SecArgsEnd = 18,   ///< uint32_t[]
  SecChildTid = 19,  ///< uint32_t[]
  SecProv = 20,      ///< uint32_t[]
  SecFp = 21,        ///< uint64_t[] (present iff FlagHasFingerprints)
  // Optional persisted view partitioning (see trace/ViewIndex.h). Both
  // sections appear together or not at all; readers predating them skip
  // unknown ids, so emitting them needs no version bump.
  SecViewMeta = 22,    ///< Per family: u32 count, keys[], counts[].
  SecViewEntries = 23, ///< uint32_t[]: flat per-view entry-id lists.
  // v4 segment-only sections: side-table deltas. Each segment carries the
  // strings/threads interned since the previous seal and the argument-pool
  // slice its entries reference, so a sealed prefix is self-contained and
  // never rewritten. Never appear in whole-file v3 traces.
  SecStrDelta = 24,    ///< u32 base, u32 count, count x (u32 len, bytes).
  SecThreadDelta = 25, ///< u32 base, u32 count, ThreadInfo records.
  SecArgSlice = 26,    ///< u64 pool base (elements), then ValueRepr[].
};

/// Largest section id this reader understands; higher ids are skipped for
/// forward compatibility.
constexpr uint32_t MaxSectionId = SecViewEntries;

/// Largest section id a v4 segment can carry.
constexpr uint32_t MaxSegSectionId = SecArgSlice;

constexpr size_t HeaderBytes = 16;       // magic, version, flags, numSections
constexpr size_t SectionRecordBytes = 32; // id, pad, offset, length, checksum
constexpr uint32_t MaxSections = 64;

// --- v4 segmented-format framing constants --------------------------------
constexpr uint32_t SegMagic = 0x52505347;     // "RPSG", leads every segment
constexpr uint32_t FooterMagic = 0x52504654;  // "RPFT", leads the directory
constexpr uint32_t TrailerMagic = 0x52505445; // "RPTE", ends the file
// File header: magic, version, flags, segment-target entries, 2 x u64
// reserved. Segment header: seg magic, index, u64 begin eid, num entries,
// num sections, u64 payload bytes (table + padding + payloads, 8-aligned —
// the next segment starts exactly payload-bytes after the header ends).
constexpr size_t SegFileHeaderBytes = 32;
constexpr size_t SegHeaderBytes = 32;
// Directory record: u64 offset, u64 table digest, u64 lane digest,
// u32 begin eid, u32 num entries.
constexpr size_t SegDirRecordBytes = 32;
// Trailer: u64 footer offset, u64 footer checksum, u32 num segments,
// u32 trailer magic.
constexpr size_t SegTrailerBytes = 24;

/// Little buffered binary writer over stdio.
class Writer {
public:
  explicit Writer(const std::string &Path)
      : File(std::fopen(Path.c_str(), "wb")) {}
  ~Writer() {
    if (File)
      std::fclose(File);
  }

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

private:
  std::FILE *File;
  bool Error = false;
};

/// Growable byte buffer for the serialized (non-column) v3 sections.
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
/// serialized sections of a mapped v3 file). Never forms references into
/// the mapped memory; all reads copy out, so truncated or misaligned data
/// cannot cause UB.
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

// --- v3 sectioned columnar format ----------------------------------------

/// One payload the v3 writer emits: raw bytes, possibly a view into a
/// column (Data) or into a serialized side buffer.
struct SectionOut {
  uint32_t Id;
  const void *Data;
  uint64_t Length;
};

bool writeTraceV3Impl(const Trace &T, const std::string &Path,
                      bool WithViewIndex) {
  TelemetrySpan Span("write");
  size_t N = T.size();
  bool WithFps = T.HasFingerprints && T.Fps.size() == T.size();

  // A trace that already holds a current view index (loaded from an
  // indexed file) is written back verbatim; otherwise the partitioning is
  // computed here, at save time — this is the cost the indexed load path
  // amortizes away.
  ViewIndex LocalIdx;
  const ViewIndex *Idx = nullptr;
  if (WithViewIndex) {
    if (T.ViewIdx.Present) {
      Idx = &T.ViewIdx;
    } else {
      LocalIdx = computeViewIndex(T);
      Idx = &LocalIdx;
    }
  }
  ByteBuffer ViewMetaBuf;
  if (Idx) {
    for (size_t F = 0; F != NumViewFamilies; ++F) {
      uint32_t NumViews = static_cast<uint32_t>(Idx->Keys[F].size());
      ViewMetaBuf.u32(NumViews);
      for (uint32_t Key : Idx->Keys[F])
        ViewMetaBuf.u32(Key);
      for (uint32_t Count : Idx->Counts[F])
        ViewMetaBuf.u32(Count);
    }
  }

  ByteBuffer StringsBuf;
  StringsBuf.u32(static_cast<uint32_t>(T.Strings->size()));
  for (uint32_t I = 0; I != T.Strings->size(); ++I)
    StringsBuf.str(T.Strings->text(Symbol{I}));

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

  std::vector<SectionOut> Sections = {
      {SecName, T.Name.data(), T.Name.size()},
      {SecStrings, StringsBuf.Out.data(), StringsBuf.Out.size()},
      {SecThreads, ThreadsBuf.Out.data(), ThreadsBuf.Out.size()},
      {SecArgPool, T.ArgPool.data(), T.ArgPool.byteSize()},
      {SecTid, T.Tids.data(), N * sizeof(uint32_t)},
      {SecMethod, T.Methods.data(), N * sizeof(Symbol)},
      {SecSelf, T.Selfs.data(), N * sizeof(ObjRepr)},
      {SecKind, T.Kinds.data(), N * sizeof(uint8_t)},
      {SecEvName, T.Names.data(), N * sizeof(Symbol)},
      {SecTarget, T.Targets.data(), N * sizeof(ObjRepr)},
      {SecValue, T.Values.data(), N * sizeof(ValueRepr)},
      {SecArgsBegin, T.ArgsBegins.data(), N * sizeof(uint32_t)},
      {SecArgsEnd, T.ArgsEnds.data(), N * sizeof(uint32_t)},
      {SecChildTid, T.ChildTids.data(), N * sizeof(uint32_t)},
      {SecProv, T.Provs.data(), N * sizeof(uint32_t)},
  };
  if (WithFps)
    Sections.push_back({SecFp, T.Fps.data(), N * sizeof(uint64_t)});
  if (Idx) {
    Sections.push_back(
        {SecViewMeta, ViewMetaBuf.Out.data(), ViewMetaBuf.Out.size()});
    Sections.push_back(
        {SecViewEntries, Idx->Entries.data(), Idx->Entries.byteSize()});
  }

  // Lay the payloads out 8-byte aligned after the header and table, so
  // mmap'd column views satisfy their element alignment.
  uint64_t Offset = HeaderBytes + Sections.size() * SectionRecordBytes;
  std::vector<uint64_t> Offsets(Sections.size());
  for (size_t I = 0; I != Sections.size(); ++I) {
    Offset = (Offset + 7) & ~uint64_t{7};
    Offsets[I] = Offset;
    Offset += Sections[I].Length;
  }
  std::vector<uint64_t> Checksums(Sections.size());
  {
    TelemetrySpan ChecksumSpan("checksum");
    for (size_t I = 0; I != Sections.size(); ++I)
      Checksums[I] = checksumBytes(Sections[I].Data, Sections[I].Length);
  }

  Writer W(Path);
  W.u32(TraceMagic);
  W.u32(TraceVersion);
  W.u32(WithFps ? FlagHasFingerprints : 0);
  W.u32(static_cast<uint32_t>(Sections.size()));
  for (size_t I = 0; I != Sections.size(); ++I) {
    W.u32(Sections[I].Id);
    W.u32(0); // pad
    W.u64(Offsets[I]);
    W.u64(Sections[I].Length);
    W.u64(Checksums[I]);
  }
  uint64_t Pos = HeaderBytes + Sections.size() * SectionRecordBytes;
  for (size_t I = 0; I != Sections.size(); ++I) {
    W.zeros(Offsets[I] - Pos);
    W.raw(Sections[I].Data, Sections[I].Length);
    Pos = Offsets[I] + Sections[I].Length;
  }
  return W.ok();
}

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

/// A v3 section as parsed from the table: pointer into the file bytes,
/// recorded length, how many of its leading bytes are actually present,
/// and whether the payload is fully present and checksum-clean.
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

/// The required entry-column sections and their element sizes (shared by
/// the v3 and v4 readers; ChildTid's consumers bounds-check themselves).
struct ColumnSize {
  uint32_t Id;
  uint64_t ElemSize;
};
constexpr ColumnSize ColumnSizes[] = {
    {SecTid, 4},     {SecMethod, 4},   {SecSelf, 24},     {SecKind, 1},
    {SecEvName, 4},  {SecTarget, 24},  {SecValue, 16},    {SecArgsBegin, 4},
    {SecArgsEnd, 4}, {SecChildTid, 4}, {SecProv, 4},
};

Expected<Trace> readTraceV3(const std::string &Path, const FileBytes &File,
                            std::shared_ptr<StringInterner> Strings,
                            const ReadOptions &Options) {
  const bool Salvage = Options.Salvage;
  auto Truncated = [&] { return TraceError::truncated(Path); };
  auto Corrupt = [&](const char *What) {
    return TraceError::corruptSection(Path, What);
  };

  if (File.Size < HeaderBytes)
    return Truncated();
  uint32_t Head[4];
  std::memcpy(Head, File.Data, sizeof(Head));
  if (Head[0] != TraceMagic)
    return TraceError::notATrace(Path);
  uint32_t Flags = Head[2], NumSections = Head[3];
  if (NumSections == 0 || NumSections > MaxSections)
    return Corrupt("table");
  uint64_t TableEnd = HeaderBytes + uint64_t{NumSections} * SectionRecordBytes;
  if (TableEnd > File.Size)
    return Truncated();

  // One child span of `load` per reader phase; emplace closes the previous
  // phase, and it is reset before `fingerprint` so that nests under `load`.
  std::optional<TelemetrySpan> Phase;
  Phase.emplace("checksum");

  // Parse and verify the section table: every payload in bounds, aligned,
  // unique id, and checksum-clean. After this loop the payload bytes are
  // still *untrusted values* but are safe to address. Strict reads reject
  // any damage to a core section; damage confined to the view-index
  // sections only drops the index (first rung of the degradation ladder);
  // salvage additionally tolerates damaged entry columns, tracking how
  // many leading bytes of each survive.
  SectionIn Sections[MaxSectionId + 1] = {};
  bool DropViewIndex = false;
  bool Damaged = false; // Salvage: some core/fingerprint payload was hurt.
  for (uint32_t I = 0; I != NumSections; ++I) {
    uint8_t Record[SectionRecordBytes];
    std::memcpy(Record, File.Data + HeaderBytes + I * SectionRecordBytes,
                SectionRecordBytes);
    uint32_t Id;
    uint64_t Offset, Length, Checksum;
    std::memcpy(&Id, Record, 4);
    std::memcpy(&Offset, Record + 8, 8);
    std::memcpy(&Length, Record + 16, 8);
    std::memcpy(&Checksum, Record + 24, 8);
    if (Offset % 8 != 0 || Offset < TableEnd || Offset > File.Size) {
      // The record itself is unusable (misaligned or out-of-file offset).
      if (Id <= MaxSectionId && isViewSection(Id)) {
        DropViewIndex = true;
        continue;
      }
      if (Salvage) { // Treat the section as absent.
        Damaged = true;
        continue;
      }
      return TraceError::sectionBounds(Path, Id, Offset);
    }
    if (Id > MaxSectionId)
      continue; // Unknown section: ignore for forward compatibility.
    if (Sections[Id].Present) {
      if (isViewSection(Id)) {
        DropViewIndex = true;
        continue;
      }
      if (Salvage) // Ambiguous: keep the first record seen.
        continue;
      return TraceError::duplicateSection(Path, Id);
    }
    uint64_t Avail = std::min(Length, File.Size - Offset);
    bool Intact = Avail == Length;
    if (Intact && (checksumBytes(File.Data + Offset, Length) != Checksum ||
                   FaultInjector::fire(FaultSite::SectionChecksum))) {
      // Checksum mismatch (real or injected): the damage can be anywhere
      // in the payload, so unlike truncation no prefix is trustworthy.
      if (isViewSection(Id)) {
        DropViewIndex = true;
        continue;
      }
      if (!Salvage)
        return TraceError::sectionChecksum(Path, Id, Offset);
      Intact = false;
      Avail = 0;
      Damaged = true;
    } else if (!Intact) {
      // The file ends inside this payload.
      if (isViewSection(Id)) {
        DropViewIndex = true;
        continue;
      }
      if (!Salvage)
        return Truncated();
      Damaged = true;
    }
    Sections[Id] = SectionIn{File.Data + Offset, Length, Avail, true, Intact};
  }

  // Side sections frame variable-length data, so no prefix of them is
  // usable: they must be intact even under salvage.
  static constexpr uint32_t RequiredSide[] = {SecStrings, SecThreads,
                                              SecArgPool};
  for (uint32_t Id : RequiredSide)
    if (!Sections[Id].Present || !Sections[Id].Intact)
      return Salvage ? TraceError::unsalvageable(
                           Path, "side section " + std::to_string(Id) +
                                     " is missing or damaged")
                     : Truncated();
  static constexpr uint32_t RequiredColumns[] = {
      SecTid,   SecMethod,    SecSelf,    SecKind,     SecEvName, SecTarget,
      SecValue, SecArgsBegin, SecArgsEnd, SecChildTid, SecProv};
  for (uint32_t Id : RequiredColumns)
    if (!Sections[Id].Present)
      return Salvage ? TraceError::unsalvageable(
                           Path, "entry column " + std::to_string(Id) +
                                     " is missing")
                     : Truncated();
  bool WithFps = (Flags & FlagHasFingerprints) != 0;
  if (WithFps && !Sections[SecFp].Present) {
    if (!Salvage)
      return Truncated();
    WithFps = false; // Fingerprints are derived data: recompute below.
    Damaged = true;
  }

  Trace T;
  T.Strings = std::move(Strings);
  if (Sections[SecName].Present && Sections[SecName].Intact)
    T.Name.assign(reinterpret_cast<const char *>(Sections[SecName].Data),
                  Sections[SecName].Length);

  Phase.emplace("intern");
  // String table: re-intern and check for symbol identity (fresh interner,
  // or one already holding this exact table — the shared-interner diff
  // session case). The declared count is untrusted: every string costs at
  // least its 4-byte length prefix, so a count beyond Length/4 is corrupt
  // — and can never become a huge up-front allocation.
  ByteCursor SC(Sections[SecStrings].Data, Sections[SecStrings].Length);
  uint32_t NumStrings = SC.u32();
  if (!SC.ok() || uint64_t{NumStrings} > Sections[SecStrings].Length / 4)
    return Corrupt("string");
  std::vector<Symbol> Map;
  Map.reserve(NumStrings);
  bool Identity = true;
  for (uint32_t I = 0; I != NumStrings; ++I) {
    Map.push_back(T.Strings->intern(SC.str()));
    Identity &= Map[I].Id == I;
  }
  if (!SC.ok())
    return Corrupt("string");
  auto MapSym = [&Map](uint32_t Id) {
    return Id < Map.size() ? Map[Id] : Symbol{};
  };

  ByteCursor TC(Sections[SecThreads].Data, Sections[SecThreads].Length);
  uint32_t NumThreads = TC.u32();
  for (uint32_t I = 0; I != NumThreads && TC.ok(); ++I) {
    ThreadInfo Thread;
    Thread.Tid = TC.u32();
    Thread.ParentTid = TC.u32();
    uint32_t Method = TC.u32();
    if (Method >= NumStrings)
      return Corrupt("thread");
    Thread.EntryMethod = MapSym(Method);
    Thread.AncestryHash = TC.u64();
    uint32_t StackSize = TC.u32();
    for (uint32_t J = 0; J != StackSize && TC.ok(); ++J) {
      uint32_t Sym = TC.u32();
      if (TC.ok() && Sym >= NumStrings)
        return Corrupt("thread");
      Thread.SpawnStack.push_back(MapSym(Sym));
    }
    T.Threads.push_back(std::move(Thread));
  }
  if (!TC.ok())
    return Corrupt("thread");

  Phase.emplace("validate");
  // Entry columns: consistent lengths, then a validation scan over the
  // untrusted values so nothing downstream needs to distrust them (enum
  // ranges, symbol ids, argument slices). ChildTid is exempt: its only
  // consumers bounds-check against the thread table. Strict mode demands
  // every column carry exactly the declared entry count; salvage shrinks
  // the count to the longest prefix every (possibly truncated) column can
  // cover — a checksum-failed column covers none, so damage that is not a
  // truncation recovers nothing rather than something wrong.
  uint64_t DeclaredN = Sections[SecKind].Length;
  if (DeclaredN > (uint64_t{1} << 32) - 1)
    return Corrupt("kind");
  uint64_t N = DeclaredN;
  if (!Salvage) {
    for (const ColumnSize &Col : ColumnSizes)
      if (Sections[Col.Id].Length != DeclaredN * Col.ElemSize)
        return Corrupt("column");
    if (WithFps && Sections[SecFp].Length != DeclaredN * 8)
      return Corrupt("fingerprint");
  } else {
    for (const ColumnSize &Col : ColumnSizes)
      N = std::min(N, Sections[Col.Id].Avail / Col.ElemSize);
    if (N < DeclaredN)
      Damaged = true;
  }
  // Stored fingerprints are only trusted when their column is intact and
  // complete; otherwise they are recomputed (they are derived data, and a
  // wrong fingerprint would corrupt =e instead of merely costing time).
  bool UseStoredFps = WithFps && Sections[SecFp].Intact &&
                      Sections[SecFp].Length == DeclaredN * 8;
  if (Salvage && WithFps && !UseStoredFps)
    Damaged = true;
  if (Sections[SecArgPool].Length % sizeof(ValueRepr) != 0)
    return Corrupt("argument-pool");
  uint64_t PoolCount = Sections[SecArgPool].Length / sizeof(ValueRepr);

  auto ColPtr = [&](uint32_t Id) { return Sections[Id].Data; };
  const uint8_t *Kinds = ColPtr(SecKind);
  const auto *Methods = reinterpret_cast<const Symbol *>(ColPtr(SecMethod));
  const auto *Names = reinterpret_cast<const Symbol *>(ColPtr(SecEvName));
  const auto *Selfs = reinterpret_cast<const ObjRepr *>(ColPtr(SecSelf));
  const auto *Targets = reinterpret_cast<const ObjRepr *>(ColPtr(SecTarget));
  const auto *Values = reinterpret_cast<const ValueRepr *>(ColPtr(SecValue));
  const auto *ArgsBegins =
      reinterpret_cast<const uint32_t *>(ColPtr(SecArgsBegin));
  const auto *ArgsEnds = reinterpret_cast<const uint32_t *>(ColPtr(SecArgsEnd));
  const auto *Pool = reinterpret_cast<const ValueRepr *>(ColPtr(SecArgPool));

  {
    uint64_t ValidN = N;
    for (uint64_t I = 0; I != N; ++I) {
      const char *Bad = nullptr;
      if (Kinds[I] > MaxEventKind)
        Bad = "kind";
      else if (Methods[I].Id >= NumStrings || Names[I].Id >= NumStrings)
        Bad = "symbol";
      else if (Selfs[I].ClassName.Id >= NumStrings ||
               Targets[I].ClassName.Id >= NumStrings)
        Bad = "object";
      else if (static_cast<uint8_t>(Values[I].Kind) > MaxReprKind ||
               Values[I].Text.Id >= NumStrings)
        Bad = "value";
      else if (ArgsBegins[I] > ArgsEnds[I] || ArgsEnds[I] > PoolCount)
        Bad = "argument-slice";
      if (!Bad)
        continue;
      if (!Salvage)
        return Corrupt(Bad);
      ValidN = I; // Keep the prefix of entries that validate.
      Damaged = true;
      break;
    }
    N = ValidN;
  }
  for (uint64_t I = 0; I != PoolCount; ++I)
    if (static_cast<uint8_t>(Pool[I].Kind) > MaxReprKind ||
        Pool[I].Text.Id >= NumStrings)
      return Corrupt("argument-pool");

  size_t Count = static_cast<size_t>(N);

  // Optional view-index sections: parse the small meta section (copied
  // out), borrow the flat entry lists zero-copy, and validate the whole
  // structure before trusting it. The index is derived data — rebuildable
  // from the columns — so *any* damage to it (checksum, structure, one
  // section without the other, an injected borrow failure) degrades to an
  // index-less load: the view web is rebuilt from the entries, and the
  // fallback is observable via `robust.view_index_dropped`.
  bool FileHasViewIndex = DropViewIndex || Sections[SecViewMeta].Present ||
                          Sections[SecViewEntries].Present;
  auto ParseViewIndex = [&]() -> bool {
    if (DropViewIndex || !Sections[SecViewMeta].Present ||
        !Sections[SecViewEntries].Present)
      return false;
    if (Sections[SecViewEntries].Length % sizeof(uint32_t) != 0)
      return false;
    ByteCursor VC(Sections[SecViewMeta].Data, Sections[SecViewMeta].Length);
    for (size_t F = 0; F != NumViewFamilies; ++F) {
      uint32_t NumViews = VC.u32();
      if (!VC.ok() || NumViews > DeclaredN)
        return false;
      T.ViewIdx.Keys[F].reserve(NumViews);
      T.ViewIdx.Counts[F].reserve(NumViews);
      for (uint32_t V = 0; V != NumViews && VC.ok(); ++V) {
        uint32_t Key = VC.u32();
        // Method-view keys are symbol ids; validate them against the
        // string table like every other symbol-bearing field.
        if (F == 1 && VC.ok() && Key >= NumStrings)
          return false;
        T.ViewIdx.Keys[F].push_back(Key);
      }
      for (uint32_t V = 0; V != NumViews && VC.ok(); ++V)
        T.ViewIdx.Counts[F].push_back(VC.u32());
    }
    if (!VC.ok() || !VC.atEnd())
      return false;
    if (FaultInjector::fire(FaultSite::ViewIndexBorrow))
      return false;
    T.ViewIdx.Entries.borrow(
        reinterpret_cast<const uint32_t *>(Sections[SecViewEntries].Data),
        static_cast<size_t>(Sections[SecViewEntries].Length /
                            sizeof(uint32_t)));
    T.ViewIdx.Present = true;
    return viewIndexIsValid(T.ViewIdx, Count);
  };
  if (FileHasViewIndex && !ParseViewIndex()) {
    T.ViewIdx.clear();
    Telemetry::counterAdd("robust.view_index_dropped");
    if (Options.Report)
      Options.Report->ViewIndexDropped = true;
  }
  Phase.reset();

  auto BorrowAll = [&](Trace &Out) {
    Out.Tids.borrow(reinterpret_cast<const uint32_t *>(ColPtr(SecTid)), Count);
    Out.Methods.borrow(Methods, Count);
    Out.Selfs.borrow(Selfs, Count);
    Out.Kinds.borrow(Kinds, Count);
    Out.Names.borrow(Names, Count);
    Out.Targets.borrow(Targets, Count);
    Out.Values.borrow(Values, Count);
    Out.ArgsBegins.borrow(ArgsBegins, Count);
    Out.ArgsEnds.borrow(ArgsEnds, Count);
    Out.ChildTids.borrow(
        reinterpret_cast<const uint32_t *>(ColPtr(SecChildTid)), Count);
    Out.Provs.borrow(reinterpret_cast<const uint32_t *>(ColPtr(SecProv)),
                     Count);
    if (UseStoredFps)
      Out.Fps.borrow(reinterpret_cast<const uint64_t *>(ColPtr(SecFp)),
                     Count);
    Out.ArgPool.borrow(Pool, static_cast<size_t>(PoolCount));
  };

  BorrowAll(T);
  if (Identity) {
    // Zero-copy: symbol ids in the file are valid in this interner, so the
    // columns (including stored fingerprints) are used in place; Backing
    // keeps the mapping alive for the life of the trace. Salvaged prefix
    // borrows work the same way — a column prefix is contiguous.
    T.Backing = File.Holder;
    if (UseStoredFps)
      T.HasFingerprints = true;
    else
      T.computeFingerprints();
  } else {
    // The interner assigned different ids: materialize every column, remap
    // the symbol-bearing ones, and recompute fingerprints (they hash
    // symbol ids). Borrow-then-detach keeps this a straight memcpy per
    // column; the mapping is released when File goes out of scope.
    Phase.emplace("remap");
    T.Tids.detach();
    T.Methods.detach();
    T.Selfs.detach();
    T.Kinds.detach();
    T.Names.detach();
    T.Targets.detach();
    T.Values.detach();
    T.ArgsBegins.detach();
    T.ArgsEnds.detach();
    T.ChildTids.detach();
    T.Provs.detach();
    T.Fps.clear();
    T.ArgPool.detach();
    if (T.ViewIdx.Present) {
      // The index survives the remap: the partition structure and the
      // first-appearance order are invariant under re-interning — only
      // the method family's keys are symbol ids and need translation.
      // Two file-table strings interning to one symbol (possible only in
      // a hand-crafted table) would collapse two method views into one
      // identity; the fresh build would merge them, so the index is
      // dropped rather than reconstructing a diverging web.
      T.ViewIdx.Entries.detach();
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
    ObjRepr *Sf = T.Selfs.mutData();
    ObjRepr *Tg = T.Targets.mutData();
    ValueRepr *Vl = T.Values.mutData();
    for (size_t I = 0; I != Count; ++I) {
      M[I] = Map[M[I].Id];
      Nm[I] = Map[Nm[I].Id];
      Sf[I].ClassName = Map[Sf[I].ClassName.Id];
      Tg[I].ClassName = Map[Tg[I].ClassName.Id];
      Vl[I].Text = Map[Vl[I].Text.Id];
    }
    ValueRepr *Pl = T.ArgPool.mutData();
    for (size_t I = 0; I != PoolCount; ++I)
      Pl[I].Text = Map[Pl[I].Text.Id];
    Phase.reset();
    // Stored fingerprints hash the file's symbol ids, which the remap just
    // invalidated; recompute. Counted so repeat-load pipelines can spot
    // that sharing one interner across loads would make this free.
    Telemetry::counterAdd("load.fp_recompute", 1);
    T.computeFingerprints();
  }

  if (Salvage && Damaged) {
    Telemetry::counterAdd("robust.salvage.used");
    Telemetry::counterAdd("robust.salvage.recovered_entries", N);
    Telemetry::counterAdd("robust.salvage.dropped_entries", DeclaredN - N);
    if (Options.Report) {
      Options.Report->Salvaged = true;
      Options.Report->EntriesRecovered = N;
      Options.Report->EntriesDropped = DeclaredN - N;
    }
  }
  return T;
}

// --- v4 segmented format --------------------------------------------------

/// One segment located in the file: its header fields and byte extent.
struct SegExtent {
  uint64_t Offset = 0; ///< Absolute offset of the segment header.
  uint64_t BeginEid = 0;
  uint32_t NumEntries = 0;
  uint32_t NumSections = 0;
  uint64_t PayloadBytes = 0;
};

/// Parses the segment header at \p Off. False when the bytes there cannot
/// be segment number \p Index of this file (wrong magic or index, bad
/// section count, extent out of bounds) — which is also how the salvage
/// chain-scan detects the end of the sealed-segment chain.
bool parseSegHeader(const FileBytes &File, uint64_t Off, uint32_t Index,
                    SegExtent &Out) {
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
  if (PayloadBytes < uint64_t{NumSections} * SectionRecordBytes ||
      PayloadBytes > File.Size - Off - SegHeaderBytes)
    return false;
  Out = SegExtent{Off, BeginEid, NumEntries, NumSections, PayloadBytes};
  return true;
}

/// One segment's parsed section table. Records are v3-shaped with offsets
/// relative to the segment header. View-index damage is always degradable;
/// core damage is fatal in strict mode (StrictErr names the first) and
/// per-section in salvage mode (the affected section reads as absent or
/// not intact, and the caller decides between dropping the segment's
/// entries and dropping the suffix).
struct SegSections {
  SectionIn S[MaxSegSectionId + 1] = {};
  bool ViewDamaged = false;
  const char *StrictErr = nullptr;
};

SegSections parseSegSections(const FileBytes &File, const SegExtent &Seg) {
  SegSections Out;
  uint64_t TableStart = Seg.Offset + SegHeaderBytes;
  uint64_t RelEnd = SegHeaderBytes + Seg.PayloadBytes;
  uint64_t RelTableEnd =
      SegHeaderBytes + uint64_t{Seg.NumSections} * SectionRecordBytes;
  auto StrictBad = [&Out](const char *What) {
    if (!Out.StrictErr)
      Out.StrictErr = What;
  };
  for (uint32_t I = 0; I != Seg.NumSections; ++I) {
    uint8_t Record[SectionRecordBytes];
    std::memcpy(Record, File.Data + TableStart + I * SectionRecordBytes,
                SectionRecordBytes);
    uint32_t Id;
    uint64_t Offset, Length, Checksum;
    std::memcpy(&Id, Record, 4);
    std::memcpy(&Offset, Record + 8, 8);
    std::memcpy(&Length, Record + 16, 8);
    std::memcpy(&Checksum, Record + 24, 8);
    if (Offset % 8 != 0 || Offset < RelTableEnd || Offset > RelEnd) {
      if (Id <= MaxSegSectionId && isViewSection(Id))
        Out.ViewDamaged = true;
      else
        StrictBad("segment-section-bounds");
      continue; // Salvage treats the section as absent.
    }
    if (Id > MaxSegSectionId)
      continue; // Unknown section: forward compatibility.
    if (Out.S[Id].Present) {
      if (isViewSection(Id))
        Out.ViewDamaged = true;
      else
        StrictBad("segment-duplicate-section");
      continue; // Salvage keeps the first record seen.
    }
    uint64_t Avail = std::min(Length, RelEnd - Offset);
    bool Intact = Avail == Length;
    const uint8_t *Data = File.Data + Seg.Offset + Offset;
    if (Intact && (checksumBytes(Data, Length) != Checksum ||
                   FaultInjector::fire(FaultSite::SectionChecksum))) {
      if (isViewSection(Id)) {
        Out.ViewDamaged = true;
        continue;
      }
      StrictBad("segment-section-checksum");
      Intact = false;
      Avail = 0;
    } else if (!Intact) {
      if (isViewSection(Id)) {
        Out.ViewDamaged = true;
        continue;
      }
      StrictBad("segment-section-truncated");
    }
    Out.S[Id] = SectionIn{Data, Length, Avail, true, Intact};
  }
  return Out;
}

Expected<Trace> readTraceV4(const std::string &Path, const FileBytes &File,
                            std::shared_ptr<StringInterner> Strings,
                            const ReadOptions &Options) {
  const bool Salvage = Options.Salvage;
  auto Corrupt = [&](const char *What) {
    return TraceError::corruptSection(Path, What);
  };

  if (File.Size < SegFileHeaderBytes)
    return TraceError::truncated(Path);

  // Locate the segments: through the footer directory when the trailer,
  // footer checksum, and every directory record verify; otherwise (salvage
  // only) by chain-scanning segment headers from the top of the file —
  // each header declares its payload extent, so the chain recovers exactly
  // the sealed segments of an unfinalized or tail-truncated file.
  std::vector<SegExtent> Segs;
  bool DirValid = false;
  // Reader phases as child spans of `load`, as in the v3 reader; `assemble`
  // is the copy of each segment's slices into the one in-memory trace.
  std::optional<TelemetrySpan> Phase;
  Phase.emplace("checksum");
  [&] {
    if (File.Size < SegFileHeaderBytes + SegTrailerBytes)
      return;
    const uint8_t *Tr = File.Data + File.Size - SegTrailerBytes;
    uint64_t FooterOffset, FooterChecksum;
    uint32_t NumSegments, Magic;
    std::memcpy(&FooterOffset, Tr, 8);
    std::memcpy(&FooterChecksum, Tr + 8, 8);
    std::memcpy(&NumSegments, Tr + 16, 4);
    std::memcpy(&Magic, Tr + 20, 4);
    uint64_t FooterBytes = 8 + uint64_t{NumSegments} * SegDirRecordBytes;
    if (Magic != TrailerMagic || FooterOffset < SegFileHeaderBytes ||
        FooterOffset > File.Size - SegTrailerBytes ||
        FooterBytes > File.Size - SegTrailerBytes - FooterOffset)
      return;
    const uint8_t *F = File.Data + FooterOffset;
    if (checksumBytes(F, static_cast<size_t>(FooterBytes)) != FooterChecksum)
      return;
    uint32_t FMagic, FCount;
    std::memcpy(&FMagic, F, 4);
    std::memcpy(&FCount, F + 4, 4);
    if (FMagic != FooterMagic || FCount != NumSegments)
      return;
    for (uint32_t S = 0; S != NumSegments; ++S) {
      const uint8_t *R = F + 8 + S * SegDirRecordBytes;
      uint64_t Offset, TableDigest;
      uint32_t BeginEid, NumEntries;
      std::memcpy(&Offset, R, 8);
      std::memcpy(&TableDigest, R + 8, 8);
      std::memcpy(&BeginEid, R + 24, 4);
      std::memcpy(&NumEntries, R + 28, 4);
      SegExtent E;
      if (!parseSegHeader(File, Offset, S, E) || E.BeginEid != BeginEid ||
          E.NumEntries != NumEntries ||
          checksumBytes(File.Data + Offset + SegHeaderBytes,
                        uint64_t{E.NumSections} * SectionRecordBytes) !=
              TableDigest) {
        Segs.clear();
        return;
      }
      Segs.push_back(E);
    }
    DirValid = true;
  }();

  bool Damaged = false;
  if (!DirValid) {
    if (!Salvage)
      return Corrupt("segment-directory");
    Damaged = true;
    Segs.clear();
    uint64_t Off = SegFileHeaderBytes;
    for (uint32_t Index = 0;; ++Index) {
      SegExtent E;
      if (!parseSegHeader(File, Off, Index, E))
        break;
      Segs.push_back(E);
      Off += SegHeaderBytes + E.PayloadBytes;
    }
    if (Segs.empty())
      return TraceError::unsalvageable(Path, "no intact segments");
  }

  Trace T;
  T.Strings = std::move(Strings);

  std::vector<Symbol> Map;
  bool Identity = true;
  uint64_t PoolCount = 0; ///< Pool elements assembled so far.
  uint64_t DeclaredBefore = 0;
  uint64_t EntriesDropped = 0;
  uint64_t SegmentsDropped = 0;
  bool FpsComplete = true;

  // Per-family view-index merge state: segments carry deltas with *global*
  // entry ids, views keyed across segments in first-appearance order, so
  // concatenating each view's per-segment lists in segment order
  // reproduces the whole-trace computeViewIndex result exactly.
  bool FileHasViewIndex = false;
  bool ViewDamaged = false;
  bool ViewMissing = false;
  std::vector<uint32_t> MergeKeys[NumViewFamilies];
  std::vector<std::vector<uint32_t>> MergeLists[NumViewFamilies];
  std::unordered_map<uint32_t, uint32_t> MergeSlot[NumViewFamilies];

  struct KeptRange {
    size_t Begin, End;
  };
  std::vector<KeptRange> Kept;

  size_t SegI = 0;
  for (; SegI != Segs.size(); ++SegI) {
    const SegExtent &Seg = Segs[SegI];
    if (!Salvage && Seg.BeginEid != DeclaredBefore)
      return Corrupt("segment-header");
    DeclaredBefore += Seg.NumEntries;

    Phase.emplace("checksum");
    SegSections Parsed = parseSegSections(File, Seg);
    if (!Salvage && Parsed.StrictErr)
      return Corrupt(Parsed.StrictErr);
    SectionIn *Sections = Parsed.S;
    if (Parsed.ViewDamaged)
      ViewDamaged = FileHasViewIndex = true;

    // The side deltas chain: each segment's string/thread/pool bases
    // continue where the previous seal stopped, so damage here makes every
    // later symbol id and pool offset unresolvable — the segment and the
    // entire suffix are dropped (strict mode already errored above).
    bool SideOk =
        Sections[SecStrDelta].Present && Sections[SecStrDelta].Intact &&
        Sections[SecThreadDelta].Present && Sections[SecThreadDelta].Intact &&
        Sections[SecArgSlice].Present && Sections[SecArgSlice].Intact;
    if (!SideOk) {
      if (!Salvage)
        return Corrupt("segment-side-delta");
      break;
    }

    if (SegI == 0 && Sections[SecName].Present && Sections[SecName].Intact)
      T.Name.assign(reinterpret_cast<const char *>(Sections[SecName].Data),
                    Sections[SecName].Length);

    Phase.emplace("intern");
    // Strings delta: the base must continue the assembled table exactly.
    {
      ByteCursor SC(Sections[SecStrDelta].Data, Sections[SecStrDelta].Length);
      uint32_t Base = SC.u32();
      uint32_t NumNew = SC.u32();
      bool Ok = SC.ok() && Base == Map.size() &&
                uint64_t{NumNew} <= Sections[SecStrDelta].Length / 4;
      for (uint32_t K = 0; Ok && K != NumNew; ++K) {
        std::string Str = SC.str();
        Ok = SC.ok();
        if (Ok) {
          Map.push_back(T.Strings->intern(Str));
          Identity &= Map.back().Id == Map.size() - 1;
        }
      }
      if (!Ok || !SC.atEnd()) {
        if (!Salvage)
          return Corrupt("string");
        break;
      }
    }

    // Threads delta.
    {
      ByteCursor TC(Sections[SecThreadDelta].Data,
                    Sections[SecThreadDelta].Length);
      uint32_t Base = TC.u32();
      uint32_t NumNew = TC.u32();
      bool Ok = TC.ok() && Base == T.Threads.size();
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
      if (!Ok || !TC.atEnd()) {
        if (!Salvage)
          return Corrupt("thread");
        break;
      }
    }

    Phase.emplace("validate");
    // Argument-pool slice: raw ValueRepr elements continuing the pool.
    {
      const SectionIn &AS = Sections[SecArgSlice];
      bool Ok = AS.Length >= 8 && (AS.Length - 8) % sizeof(ValueRepr) == 0;
      uint64_t PoolBase = 0;
      if (Ok) {
        std::memcpy(&PoolBase, AS.Data, 8);
        Ok = PoolBase == PoolCount;
      }
      uint64_t SliceCount = Ok ? (AS.Length - 8) / sizeof(ValueRepr) : 0;
      const auto *Slice = reinterpret_cast<const ValueRepr *>(AS.Data + 8);
      for (uint64_t K = 0; Ok && K != SliceCount; ++K)
        Ok = static_cast<uint8_t>(Slice[K].Kind) <= MaxReprKind &&
             Slice[K].Text.Id < Map.size();
      if (!Ok) {
        if (!Salvage)
          return Corrupt("argument-pool");
        break;
      }
      T.ArgPool.append(Slice, static_cast<size_t>(SliceCount));
      PoolCount += SliceCount;
    }

    // Entry columns: all present, intact, and exactly the declared entry
    // count — a segment's entries are recovered whole or dropped whole
    // (per-segment checksums make the granularity a segment, never a
    // mid-column prefix), and its side deltas stay applied either way so
    // every later segment still resolves.
    uint64_t N = Seg.NumEntries;
    bool ColsOk = true;
    for (const ColumnSize &Col : ColumnSizes)
      ColsOk &= Sections[Col.Id].Present && Sections[Col.Id].Intact &&
                Sections[Col.Id].Length == N * Col.ElemSize;
    const uint8_t *Kinds = Sections[SecKind].Data;
    const auto *Methods =
        reinterpret_cast<const Symbol *>(Sections[SecMethod].Data);
    const auto *Names =
        reinterpret_cast<const Symbol *>(Sections[SecEvName].Data);
    const auto *Selfs =
        reinterpret_cast<const ObjRepr *>(Sections[SecSelf].Data);
    const auto *Targets =
        reinterpret_cast<const ObjRepr *>(Sections[SecTarget].Data);
    const auto *Values =
        reinterpret_cast<const ValueRepr *>(Sections[SecValue].Data);
    const auto *ArgsBegins =
        reinterpret_cast<const uint32_t *>(Sections[SecArgsBegin].Data);
    const auto *ArgsEnds =
        reinterpret_cast<const uint32_t *>(Sections[SecArgsEnd].Data);
    const char *BadCol = ColsOk ? nullptr : "column";
    if (ColsOk) {
      for (uint64_t K = 0; K != N && !BadCol; ++K) {
        if (Kinds[K] > MaxEventKind)
          BadCol = "kind";
        else if (Methods[K].Id >= Map.size() || Names[K].Id >= Map.size())
          BadCol = "symbol";
        else if (Selfs[K].ClassName.Id >= Map.size() ||
                 Targets[K].ClassName.Id >= Map.size())
          BadCol = "object";
        else if (static_cast<uint8_t>(Values[K].Kind) > MaxReprKind ||
                 Values[K].Text.Id >= Map.size())
          BadCol = "value";
        else if (ArgsBegins[K] > ArgsEnds[K] || ArgsEnds[K] > PoolCount)
          BadCol = "argument-slice";
      }
    }
    if (BadCol) {
      if (!Salvage)
        return Corrupt(BadCol);
      Damaged = true;
      ++SegmentsDropped;
      EntriesDropped += N;
      continue;
    }

    Phase.emplace("assemble");
    bool SegFps = Sections[SecFp].Present && Sections[SecFp].Intact &&
                  Sections[SecFp].Length == N * 8;
    size_t DstBegin = T.size();
    size_t Cnt = static_cast<size_t>(N);
    T.Tids.append(reinterpret_cast<const uint32_t *>(Sections[SecTid].Data),
                  Cnt);
    T.Methods.append(Methods, Cnt);
    T.Selfs.append(Selfs, Cnt);
    T.Kinds.append(Kinds, Cnt);
    T.Names.append(Names, Cnt);
    T.Targets.append(Targets, Cnt);
    T.Values.append(Values, Cnt);
    T.ArgsBegins.append(ArgsBegins, Cnt);
    T.ArgsEnds.append(ArgsEnds, Cnt);
    T.ChildTids.append(
        reinterpret_cast<const uint32_t *>(Sections[SecChildTid].Data), Cnt);
    T.Provs.append(reinterpret_cast<const uint32_t *>(Sections[SecProv].Data),
                   Cnt);
    // Stored fingerprints are usable only when every kept segment carries
    // an intact lane (a gap would misalign the column); they still need
    // symbol identity to be trusted, checked after the loop.
    if (SegFps && FpsComplete && T.Fps.size() == DstBegin)
      T.Fps.append(reinterpret_cast<const uint64_t *>(Sections[SecFp].Data),
                   Cnt);
    else if (Cnt != 0)
      FpsComplete = false;
    Kept.push_back({DstBegin, DstBegin + Cnt});

    // View-index delta merge.
    bool HasViewSecs =
        Sections[SecViewMeta].Present || Sections[SecViewEntries].Present;
    FileHasViewIndex |= HasViewSecs;
    if (!HasViewSecs) {
      if (Cnt != 0)
        ViewMissing = true;
    } else if (!ViewDamaged) {
      bool Ok = Sections[SecViewMeta].Present &&
                Sections[SecViewMeta].Intact &&
                Sections[SecViewEntries].Present &&
                Sections[SecViewEntries].Intact &&
                Sections[SecViewEntries].Length % 4 == 0;
      const auto *Flat =
          reinterpret_cast<const uint32_t *>(Sections[SecViewEntries].Data);
      uint64_t FlatCount = Ok ? Sections[SecViewEntries].Length / 4 : 0;
      uint64_t FlatOff = 0;
      ByteCursor VC(Sections[SecViewMeta].Data, Sections[SecViewMeta].Length);
      for (size_t F = 0; Ok && F != NumViewFamilies; ++F) {
        uint32_t NumViews = VC.u32();
        Ok = VC.ok() && NumViews <= N;
        std::vector<uint32_t> SegKeys(Ok ? NumViews : 0);
        for (uint32_t V = 0; Ok && V != NumViews; ++V) {
          SegKeys[V] = VC.u32();
          // Method-view keys are symbol ids; validate like any symbol.
          Ok = VC.ok() && (F != 1 || SegKeys[V] < Map.size());
        }
        for (uint32_t V = 0; Ok && V != NumViews; ++V) {
          uint32_t ListCount = VC.u32();
          Ok = VC.ok() && ListCount != 0 && FlatOff + ListCount <= FlatCount;
          if (!Ok)
            break;
          auto Slot = MergeSlot[F].try_emplace(
              SegKeys[V], static_cast<uint32_t>(MergeKeys[F].size()));
          if (Slot.second) {
            MergeKeys[F].push_back(SegKeys[V]);
            MergeLists[F].emplace_back();
          }
          std::vector<uint32_t> &List = MergeLists[F][Slot.first->second];
          List.insert(List.end(), Flat + FlatOff, Flat + FlatOff + ListCount);
          FlatOff += ListCount;
        }
      }
      if (!Ok || !VC.ok() || !VC.atEnd() || FlatOff != FlatCount)
        ViewDamaged = true;
    }
  }

  if (SegI != Segs.size() && SegI < Segs.size()) {
    // The loop broke on an unusable table or side delta: that segment and
    // the whole suffix are lost (chained side bases).
    Damaged = true;
    for (size_t K = SegI; K != Segs.size(); ++K) {
      ++SegmentsDropped;
      EntriesDropped += Segs[K].NumEntries;
    }
  }
  if (Kept.empty() && SegmentsDropped != 0)
    return TraceError::unsalvageable(Path, "no intact segments");

  // Assemble the merged view index (only when every segment's entries and
  // every delta survived — dropped segments compact eids, which the
  // persisted global ids no longer match).
  bool AnyDropped = SegmentsDropped != 0;
  Phase.emplace("assemble");
  if (FileHasViewIndex && !ViewDamaged && !ViewMissing && !AnyDropped &&
      !FaultInjector::fire(FaultSite::ViewIndexBorrow)) {
    size_t Total = 0;
    for (size_t F = 0; F != NumViewFamilies; ++F)
      for (const std::vector<uint32_t> &List : MergeLists[F])
        Total += List.size();
    T.ViewIdx.Entries.reserve(Total);
    for (size_t F = 0; F != NumViewFamilies; ++F) {
      T.ViewIdx.Keys[F].append(MergeKeys[F].data(), MergeKeys[F].size());
      T.ViewIdx.Counts[F].reserve(MergeLists[F].size());
      for (const std::vector<uint32_t> &List : MergeLists[F]) {
        T.ViewIdx.Counts[F].push_back(static_cast<uint32_t>(List.size()));
        T.ViewIdx.Entries.append(List.data(), List.size());
      }
    }
    T.ViewIdx.Present = true;
    if (!viewIndexIsValid(T.ViewIdx, T.size()))
      T.ViewIdx.clear();
  }

  size_t Count = T.size();
  Phase.reset();
  if (!Identity) {
    // The interner assigned different ids: remap every symbol-bearing
    // column and the merged index's method keys, then recompute
    // fingerprints (they hash symbol ids). Mirrors the v3 reader.
    Phase.emplace("remap");
    if (T.ViewIdx.Present) {
      uint32_t *MethodKeys = T.ViewIdx.Keys[1].mutData();
      bool Collapsed = false;
      std::unordered_set<uint32_t> SeenKeys;
      SeenKeys.reserve(T.ViewIdx.Keys[1].size());
      for (size_t K = 0; K != T.ViewIdx.Keys[1].size(); ++K) {
        MethodKeys[K] = Map[MethodKeys[K]].Id;
        Collapsed |= !SeenKeys.insert(MethodKeys[K]).second;
      }
      if (Collapsed)
        T.ViewIdx.clear();
    }
    Symbol *M = T.Methods.mutData();
    Symbol *Nm = T.Names.mutData();
    ObjRepr *Sf = T.Selfs.mutData();
    ObjRepr *Tg = T.Targets.mutData();
    ValueRepr *Vl = T.Values.mutData();
    for (size_t K = 0; K != Count; ++K) {
      M[K] = Map[M[K].Id];
      Nm[K] = Map[Nm[K].Id];
      Sf[K].ClassName = Map[Sf[K].ClassName.Id];
      Tg[K].ClassName = Map[Tg[K].ClassName.Id];
      Vl[K].Text = Map[Vl[K].Text.Id];
    }
    ValueRepr *Pl = T.ArgPool.mutData();
    for (size_t K = 0; K != PoolCount; ++K)
      Pl[K].Text = Map[Pl[K].Text.Id];
    Phase.reset();
    Telemetry::counterAdd("load.fp_recompute", 1);
    T.computeFingerprints();
  } else if (FpsComplete && T.Fps.size() == Count) {
    T.HasFingerprints = true;
  } else {
    T.computeFingerprints();
  }

  if (FileHasViewIndex && !T.ViewIdx.Present) {
    T.ViewIdx.clear();
    Telemetry::counterAdd("robust.view_index_dropped");
    if (Options.Report)
      Options.Report->ViewIndexDropped = true;
  }

  // Segment table for the diff layer's segment-granular run skip: exposed
  // only for fully clean loads (a dropped segment shifts eids, and without
  // the directory the segmentation itself is suspect). Digests hash the
  // *final* (post-remap) fingerprint lane plus the tid lane, so two traces
  // loaded through one interner expose comparable digests.
  if (DirValid && SegmentsDropped == 0) {
    TelemetrySpan ChecksumSpan("checksum");
    T.Segments.reserve(Kept.size());
    for (const KeptRange &K : Kept) {
      size_t Len = K.End - K.Begin;
      uint64_t Digest =
          hashCombine(checksumBytes(T.Fps.data() + K.Begin, Len * 8),
                      checksumBytes(T.Tids.data() + K.Begin, Len * 4));
      T.Segments.push_back({static_cast<uint32_t>(K.Begin),
                            static_cast<uint32_t>(K.End), Digest});
    }
  }

  if (Damaged) {
    Telemetry::counterAdd("robust.salvage.used");
    Telemetry::counterAdd("robust.salvage.recovered_entries", Count);
    Telemetry::counterAdd("robust.salvage.dropped_entries", EntriesDropped);
    Telemetry::counterAdd("robust.salvage.segments_dropped", SegmentsDropped);
    if (Options.Report) {
      Options.Report->Salvaged = true;
      Options.Report->EntriesRecovered = Count;
      Options.Report->EntriesDropped = EntriesDropped;
      Options.Report->SegmentsDropped = SegmentsDropped;
    }
  }
  return T;
}

} // namespace

bool rprism::writeTrace(const Trace &T, const std::string &Path,
                        bool WithViewIndex) {
  if (const char *Fmt = std::getenv("RPRISM_TRACE_FORMAT"))
    if (std::strcmp(Fmt, "v4") == 0)
      return writeTraceSegmented(T, Path, DefaultSegmentEntries,
                                 WithViewIndex);
  return writeTraceV3Impl(T, Path, WithViewIndex);
}

// --- v4 segmented writer --------------------------------------------------

struct SegmentedTraceWriter::Impl {
  Writer W;
  size_t SegmentEntries;
  bool WithViewIndex;
  uint64_t Offset = SegFileHeaderBytes; ///< Where the next segment lands.
  size_t Sealed = 0;
  size_t StringsWritten = 0;
  size_t ThreadsWritten = 0;
  size_t PoolWritten = 0;
  bool Finalized = false;
  bool Failed = false;

  struct DirRecord {
    uint64_t Offset;
    uint64_t TableDigest;
    uint64_t LaneDigest;
    uint32_t BeginEid;
    uint32_t NumEntries;
  };
  std::vector<DirRecord> Dir;

  Impl(const std::string &Path, size_t SegEntries, bool WithIdx)
      : W(Path), SegmentEntries(SegEntries ? SegEntries : 1),
        WithViewIndex(WithIdx) {
    W.u32(TraceMagic);
    W.u32(SegTraceVersion);
    W.u32(0); // Flags; fingerprint presence is per-segment (SecFp).
    W.u32(static_cast<uint32_t>(std::min<size_t>(SegmentEntries, ~0u)));
    W.u64(0); // Reserved.
    W.u64(0); // Reserved.
  }
};

SegmentedTraceWriter::SegmentedTraceWriter(const std::string &Path,
                                           size_t SegmentEntries,
                                           bool WithViewIndex)
    : I(std::make_unique<Impl>(Path, SegmentEntries, WithViewIndex)) {}

SegmentedTraceWriter::~SegmentedTraceWriter() = default;

bool SegmentedTraceWriter::ok() const {
  return I->W.ok() && !I->Failed;
}

size_t SegmentedTraceWriter::segmentEntries() const {
  return I->SegmentEntries;
}

size_t SegmentedTraceWriter::entriesSealed() const { return I->Sealed; }

bool SegmentedTraceWriter::appendSegment(const Trace &T, size_t Begin,
                                         size_t End, bool TrustRangeFps) {
  Impl &S = *I;
  if (S.Finalized || S.Failed || !S.W.ok())
    return false;
  TelemetrySpan Span("write");
  // Ranges must be adjacent; an empty range is only the empty-trace
  // placeholder segment (so even an entry-less file carries side tables).
  if (Begin != S.Sealed || End < Begin || End > T.size() ||
      (End == Begin && !(Begin == 0 && S.Dir.empty()))) {
    S.Failed = true;
    return false;
  }
  size_t N = End - Begin;
  bool WithFps =
      (T.HasFingerprints || TrustRangeFps) && T.Fps.size() >= End;

  // Side-table deltas since the previous seal. All three grow
  // monotonically during recording, so a sealed segment never needs
  // rewriting when later entries arrive.
  size_t NumStrings = T.Strings->size();
  size_t NumThreads = T.Threads.size();
  if (NumStrings < S.StringsWritten || NumThreads < S.ThreadsWritten) {
    S.Failed = true;
    return false;
  }
  ByteBuffer StringsBuf;
  StringsBuf.u32(static_cast<uint32_t>(S.StringsWritten));
  StringsBuf.u32(static_cast<uint32_t>(NumStrings - S.StringsWritten));
  for (size_t K = S.StringsWritten; K != NumStrings; ++K)
    StringsBuf.str(T.Strings->text(Symbol{static_cast<uint32_t>(K)}));

  ByteBuffer ThreadsBuf;
  ThreadsBuf.u32(static_cast<uint32_t>(S.ThreadsWritten));
  ThreadsBuf.u32(static_cast<uint32_t>(NumThreads - S.ThreadsWritten));
  for (size_t K = S.ThreadsWritten; K != NumThreads; ++K) {
    const ThreadInfo &Thread = T.Threads[K];
    ThreadsBuf.u32(Thread.Tid);
    ThreadsBuf.u32(Thread.ParentTid);
    ThreadsBuf.u32(Thread.EntryMethod.Id);
    ThreadsBuf.u64(Thread.AncestryHash);
    ThreadsBuf.u32(static_cast<uint32_t>(Thread.SpawnStack.size()));
    for (Symbol Sym : Thread.SpawnStack)
      ThreadsBuf.u32(Sym.Id);
  }

  // Argument-pool slice the segment's entries reference (offsets in the
  // entry columns stay global). The pool grows monotonically with the
  // entries, so covering the running max of ArgsEnd is exact; the last
  // segment of a complete trace extends to the full pool.
  size_t PoolUpTo = S.PoolWritten;
  if (End == T.size()) {
    PoolUpTo = T.ArgPool.size();
  } else {
    const uint32_t *AE = T.ArgsEnds.data();
    for (size_t K = Begin; K != End; ++K)
      PoolUpTo = std::max(PoolUpTo, static_cast<size_t>(AE[K]));
  }
  if (PoolUpTo > T.ArgPool.size()) {
    S.Failed = true;
    return false;
  }
  ByteBuffer ArgSliceBuf;
  ArgSliceBuf.u64(S.PoolWritten);
  ArgSliceBuf.Out.append(
      reinterpret_cast<const char *>(T.ArgPool.data() + S.PoolWritten),
      (PoolUpTo - S.PoolWritten) * sizeof(ValueRepr));

  // View-index delta over exactly this range (global eids).
  ViewIndex SegIdx;
  ByteBuffer ViewMetaBuf;
  if (S.WithViewIndex) {
    SegIdx = computeViewIndexRange(T, static_cast<uint32_t>(Begin),
                                   static_cast<uint32_t>(End));
    for (size_t F = 0; F != NumViewFamilies; ++F) {
      ViewMetaBuf.u32(static_cast<uint32_t>(SegIdx.Keys[F].size()));
      for (uint32_t Key : SegIdx.Keys[F])
        ViewMetaBuf.u32(Key);
      for (uint32_t ListCount : SegIdx.Counts[F])
        ViewMetaBuf.u32(ListCount);
    }
  }

  std::vector<SectionOut> Sections;
  if (S.Dir.empty())
    Sections.push_back({SecName, T.Name.data(), T.Name.size()});
  Sections.push_back(
      {SecStrDelta, StringsBuf.Out.data(), StringsBuf.Out.size()});
  Sections.push_back(
      {SecThreadDelta, ThreadsBuf.Out.data(), ThreadsBuf.Out.size()});
  Sections.push_back(
      {SecArgSlice, ArgSliceBuf.Out.data(), ArgSliceBuf.Out.size()});
  Sections.push_back({SecTid, T.Tids.data() + Begin, N * sizeof(uint32_t)});
  Sections.push_back({SecMethod, T.Methods.data() + Begin, N * sizeof(Symbol)});
  Sections.push_back({SecSelf, T.Selfs.data() + Begin, N * sizeof(ObjRepr)});
  Sections.push_back({SecKind, T.Kinds.data() + Begin, N * sizeof(uint8_t)});
  Sections.push_back({SecEvName, T.Names.data() + Begin, N * sizeof(Symbol)});
  Sections.push_back(
      {SecTarget, T.Targets.data() + Begin, N * sizeof(ObjRepr)});
  Sections.push_back(
      {SecValue, T.Values.data() + Begin, N * sizeof(ValueRepr)});
  Sections.push_back(
      {SecArgsBegin, T.ArgsBegins.data() + Begin, N * sizeof(uint32_t)});
  Sections.push_back(
      {SecArgsEnd, T.ArgsEnds.data() + Begin, N * sizeof(uint32_t)});
  Sections.push_back(
      {SecChildTid, T.ChildTids.data() + Begin, N * sizeof(uint32_t)});
  Sections.push_back({SecProv, T.Provs.data() + Begin, N * sizeof(uint32_t)});
  if (WithFps)
    Sections.push_back({SecFp, T.Fps.data() + Begin, N * sizeof(uint64_t)});
  if (S.WithViewIndex) {
    Sections.push_back(
        {SecViewMeta, ViewMetaBuf.Out.data(), ViewMetaBuf.Out.size()});
    Sections.push_back(
        {SecViewEntries, SegIdx.Entries.data(), SegIdx.Entries.byteSize()});
  }

  // Lay the payloads out 8-aligned after the segment's table, offsets
  // relative to the segment header (the segment itself is 8-aligned).
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
    for (size_t K = 0; K != Sections.size(); ++K) {
      Table.u32(Sections[K].Id);
      Table.u32(0); // pad
      Table.u64(Offsets[K]);
      Table.u64(Sections[K].Length);
      Table.u64(checksumBytes(Sections[K].Data, Sections[K].Length));
    }
    TableDigest = checksumBytes(Table.Out.data(), Table.Out.size());
    LaneDigest = hashCombine(
        WithFps ? checksumBytes(T.Fps.data() + Begin, N * sizeof(uint64_t))
                : 0,
        checksumBytes(T.Tids.data() + Begin, N * sizeof(uint32_t)));
  }

  Writer &W = S.W;
  W.u32(SegMagic);
  W.u32(static_cast<uint32_t>(S.Dir.size()));
  W.u64(Begin);
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

  S.Dir.push_back({S.Offset, TableDigest, LaneDigest,
                   static_cast<uint32_t>(Begin), static_cast<uint32_t>(N)});
  S.Offset += SegHeaderBytes + PayloadBytes;
  S.Sealed = End;
  S.StringsWritten = NumStrings;
  S.ThreadsWritten = NumThreads;
  S.PoolWritten = PoolUpTo;
  if (!W.ok())
    S.Failed = true;
  return !S.Failed;
}

bool SegmentedTraceWriter::finalize() {
  Impl &S = *I;
  if (S.Finalized)
    return false;
  S.Finalized = true;
  if (S.Failed || !S.W.ok())
    return false;
  TelemetrySpan Span("write");
  ByteBuffer Footer;
  Footer.u32(FooterMagic);
  Footer.u32(static_cast<uint32_t>(S.Dir.size()));
  for (const Impl::DirRecord &Rec : S.Dir) {
    Footer.u64(Rec.Offset);
    Footer.u64(Rec.TableDigest);
    Footer.u64(Rec.LaneDigest);
    Footer.u32(Rec.BeginEid);
    Footer.u32(Rec.NumEntries);
  }
  uint64_t FooterOffset = S.Offset;
  uint64_t FooterChecksum =
      checksumBytes(Footer.Out.data(), Footer.Out.size());
  S.W.raw(Footer.Out.data(), Footer.Out.size());
  S.W.u64(FooterOffset);
  S.W.u64(FooterChecksum);
  S.W.u32(static_cast<uint32_t>(S.Dir.size()));
  S.W.u32(TrailerMagic);
  return S.W.ok();
}

bool rprism::writeTraceSegmented(const Trace &T, const std::string &Path,
                                 size_t SegmentEntries, bool WithViewIndex) {
  if (SegmentEntries == 0)
    return false;
  SegmentedTraceWriter W(Path, SegmentEntries, WithViewIndex);
  if (!W.ok())
    return false;
  size_t Begin = 0;
  do {
    size_t End = std::min(T.size(), Begin + SegmentEntries);
    if (!W.appendSegment(T, Begin, End))
      return false;
    Begin = End;
  } while (Begin < T.size());
  return W.finalize();
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

  // One load of the file bytes serves the format dispatch and both
  // readers, so retry and fault-injection behavior is uniform across
  // formats.
  FileBytes File;
  IoStatus Status = loadFileBytes(Path, File);
  if (Status == IoStatus::NotFound)
    return TraceError::notFound(Path);
  if (Status == IoStatus::Error)
    return TraceError::cannotOpen(Path);
  if (File.Mapped)
    Telemetry::counterAdd("load.mmap", 1);

  uint32_t Magic = 0;
  if (File.Size >= 4)
    std::memcpy(&Magic, File.Data, 4);
  if (Magic != TraceMagic)
    return TraceError::notATrace(Path);
  uint32_t Version = 0;
  if (File.Size >= 8)
    std::memcpy(&Version, File.Data + 4, 4);
  if (Version != TraceVersion && Version != SegTraceVersion)
    return TraceError::unsupportedVersion(Path, Version);

  Expected<Trace> Result =
      Version == SegTraceVersion
          ? readTraceV4(Path, File, std::move(Strings), Options)
          : readTraceV3(Path, File, std::move(Strings), Options);
  if (Result)
    Telemetry::counterAdd("trace.entries_loaded", Result->size());
  return Result;
}

Expected<uint64_t> rprism::traceFileDigest(const std::string &Path) {
  FileBytes File;
  IoStatus Status = loadFileBytes(Path, File);
  if (Status == IoStatus::NotFound)
    return TraceError::notFound(Path);
  if (Status == IoStatus::Error)
    return TraceError::cannotOpen(Path);
  if (File.Size < 8)
    return TraceError::truncated(Path);
  uint32_t Head[2];
  std::memcpy(Head, File.Data, sizeof(Head));
  if (Head[0] != TraceMagic)
    return TraceError::notATrace(Path);
  if (Head[1] != TraceVersion && Head[1] != SegTraceVersion)
    return TraceError::unsupportedVersion(Path, Head[1]);
  if (Head[1] == TraceVersion && File.Size >= HeaderBytes) {
    // v3: the section table already carries a checksum per payload, so
    // hashing header + table covers the whole content without touching
    // the (potentially large) payload bytes.
    uint32_t NumSections;
    std::memcpy(&NumSections, File.Data + 12, 4);
    uint64_t TableEnd =
        HeaderBytes + uint64_t{NumSections} * SectionRecordBytes;
    if (NumSections != 0 && NumSections <= MaxSections &&
        TableEnd <= File.Size)
      return hashCombine(
          checksumBytes(File.Data, static_cast<size_t>(TableEnd)), File.Size);
  }
  if (Head[1] == SegTraceVersion &&
      File.Size >= SegFileHeaderBytes + SegTrailerBytes) {
    // v4: the footer directory carries each segment's table digest, and
    // each segment table carries per-payload checksums, so header + footer
    // cover the whole content. Only usable when the trailer and footer
    // verify; a damaged file falls through to the full-file hash.
    uint64_t FooterOffset, FooterChecksum;
    uint32_t NumSegments;
    const uint8_t *Trailer = File.Data + (File.Size - SegTrailerBytes);
    std::memcpy(&FooterOffset, Trailer, 8);
    std::memcpy(&FooterChecksum, Trailer + 8, 8);
    std::memcpy(&NumSegments, Trailer + 16, 4);
    uint64_t FooterBytes = 8 + uint64_t{NumSegments} * SegDirRecordBytes;
    // Subtraction form, as in readTraceV4: on a hostile trailer the sum
    // FooterOffset + FooterBytes can wrap around to pass an equality test.
    if (FooterOffset >= SegFileHeaderBytes &&
        FooterOffset <= File.Size - SegTrailerBytes &&
        FooterBytes == File.Size - SegTrailerBytes - FooterOffset) {
      uint64_t FooterSum = checksumBytes(File.Data + FooterOffset,
                                         static_cast<size_t>(FooterBytes));
      if (FooterSum == FooterChecksum)
        return hashCombine(checksumBytes(File.Data, SegFileHeaderBytes),
                           FooterSum, File.Size);
    }
  }
  // A malformed v3 header or a damaged v4 footer, which the full read will
  // reject anyway: hash the entire file.
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
