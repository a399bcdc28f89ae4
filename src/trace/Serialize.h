//===- trace/Serialize.h - Trace (de)serialization ------------------------===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Binary serialization of traces. RPRISM collects traces online but
/// analyzes them offline "after the trace data has been serialized to disk"
/// (§5), using *trace segmentation* to offload a long trace in pieces. This
/// module provides one reader for two formats: whole-trace v3 files and
/// segmented v4 files, whose segments live in one file and can be sealed
/// while a run is still recording.
///
/// Format v3 (the default) is a sectioned, length-prefixed layout whose
/// payloads are the columnar Trace's columns written verbatim: a header,
/// a section table of (id, offset, length, checksum) records, then
/// 8-byte-aligned payloads. Readers mmap the file (falling back to an
/// aligned arena read), verify every section checksum, validate the
/// untrusted bytes (kinds, symbol ids, argument slices), and then *borrow*
/// the columns zero-copy when the file's string table interns to identical
/// symbol ids — the common case for a fresh or same-session interner —
/// including the fingerprint column, so loading skips re-fingerprinting
/// entirely. Otherwise the columns are materialized and symbols remapped.
///
/// Every checksum and digest in both layouts is the word-wise
/// checksumBytes (support/Hashing.h). The names v3/v4 are layouts; the
/// header's version field is 5 for a v3 file and 6 for a v4 file. Files
/// of any other version — the retired v1/v2 stream formats, and v3/v4
/// files from before the checksum change (versions 3 and 4) — are refused
/// with `trace.version`.
///
/// Symbols are file-local on disk; readers re-intern through the supplied
/// StringInterner, so traces written by different runs can be loaded into
/// one shared interner for differencing.
///
//===----------------------------------------------------------------------===//

#ifndef RPRISM_TRACE_SERIALIZE_H
#define RPRISM_TRACE_SERIALIZE_H

#include "support/Expected.h"
#include "trace/Trace.h"

#include <string>

namespace rprism {

/// Writes \p T to \p Path in the current default format (v3), or in the
/// segmented v4 format when the RPRISM_TRACE_FORMAT environment variable
/// is "v4". Returns false on I/O failure. By default the file carries the
/// optional view-index sections (the trace's ViewIdx when current, else
/// computed here), so a later `rprism diff` reconstructs the view web
/// without scanning the entries; \p WithViewIndex = false omits them (the
/// sections are optional — files load either way, and pre-index readers
/// skip the unknown sections).
bool writeTrace(const Trace &T, const std::string &Path,
                bool WithViewIndex = true);

/// Default entry count per segment of a v4 segmented trace file.
inline constexpr size_t DefaultSegmentEntries = 1u << 16;

/// Streaming writer for the segmented v4 trace format: a single file of
/// fixed-entry-count segments, each carrying its own column slices,
/// per-section checksums, fingerprint lane, side-table *deltas*
/// (strings/threads newly seen since the previous seal, the argument-pool
/// slice the segment's entries reference), and a view-index delta — closed
/// by a footer segment directory and a fixed-size trailer. Because every
/// segment checksums independently, salvage recovers every intact segment
/// even when damage sits mid-column in an earlier one, and a recorder can
/// seal segments while the run is still producing entries (side tables and
/// the argument pool grow monotonically, so a sealed prefix never needs
/// rewriting).
///
/// Usage: appendSegment() once per sealed entry range (ranges must be
/// adjacent, starting at 0), then finalize() exactly once to write the
/// directory. A file without finalize() has no footer; strict reads reject
/// it, salvage reads chain-scan the sealed segments.
class SegmentedTraceWriter {
public:
  explicit SegmentedTraceWriter(const std::string &Path,
                                size_t SegmentEntries = DefaultSegmentEntries,
                                bool WithViewIndex = true);
  ~SegmentedTraceWriter();
  SegmentedTraceWriter(const SegmentedTraceWriter &) = delete;
  SegmentedTraceWriter &operator=(const SegmentedTraceWriter &) = delete;

  bool ok() const;
  size_t segmentEntries() const;
  size_t entriesSealed() const;

  /// Seals entries [\p Begin, \p End) of \p T as the next segment. \p Begin
  /// must equal entriesSealed(). The fingerprint lane is persisted when
  /// T.Fps covers the range AND it is trustworthy: either the trace is
  /// fully fingerprinted (HasFingerprints) or the caller vouches for the
  /// range with \p TrustRangeFps — streaming recorders fill exactly the
  /// sealed range with computeFingerprintRange, which deliberately does
  /// not set the whole-trace flag.
  bool appendSegment(const Trace &T, size_t Begin, size_t End,
                     bool TrustRangeFps = false);

  /// Writes the footer directory + trailer and flushes. Returns overall
  /// success; the writer accepts no further segments.
  bool finalize();

private:
  struct Impl;
  std::unique_ptr<Impl> I;
};

/// Writes \p T to \p Path in the segmented v4 format (see
/// SegmentedTraceWriter), splitting the entries into segments of
/// \p SegmentEntries.
bool writeTraceSegmented(const Trace &T, const std::string &Path,
                         size_t SegmentEntries = DefaultSegmentEntries,
                         bool WithViewIndex = true);

/// What actually happened during a read — filled in when ReadOptions
/// carries a Report pointer. Degradations are also counted process-wide
/// (`robust.view_index_dropped`, `robust.salvage.*`, `robust.io_retry`).
struct TraceReadReport {
  /// Salvage mode dropped damaged trailing data and returned a prefix.
  bool Salvaged = false;
  /// Entries in the returned trace (salvage mode only).
  uint64_t EntriesRecovered = 0;
  /// Entries the file declared but salvage could not recover.
  uint64_t EntriesDropped = 0;
  /// Segments of a v4 file whose entries salvage could not recover
  /// (damaged segments plus any suffix lost to side-table damage).
  uint64_t SegmentsDropped = 0;
  /// The persisted view index was damaged and dropped; the trace loads
  /// without it and view webs rebuild from the columns.
  bool ViewIndexDropped = false;
};

/// Options for readTrace.
struct ReadOptions {
  /// Recover the valid entry prefix of a damaged file instead of failing:
  /// v3 files keep every fully-checksummed leading column range (side
  /// tables must be intact), v4 files drop only the damaged segments (and
  /// the suffix after side-table damage). Off by default — strict reads
  /// reject damage.
  bool Salvage = false;
  /// Optional out-param describing degradations taken.
  TraceReadReport *Report = nullptr;
};

/// Reads a trace from \p Path (any supported version), interning all
/// strings into \p Strings. Errors carry an ErrClass and a stable
/// `trace.*` code (see trace/TraceError.h); a damaged persisted view
/// index alone is not an error — the index is dropped and the trace
/// loads without it.
Expected<Trace> readTrace(const std::string &Path,
                          std::shared_ptr<StringInterner> Strings);

/// As above, with salvage/reporting options.
Expected<Trace> readTrace(const std::string &Path,
                          std::shared_ptr<StringInterner> Strings,
                          const ReadOptions &Options);

/// Content digest of a trace file, for cache keying (DiffCache): two
/// paths with equal digests hold the same trace bytes. For v3 files this
/// hashes only the header and section table (whose records embed each
/// payload's checksum), for v4 files the header and footer directory;
/// a file whose table or footer is damaged hashes in full. Errors on
/// unreadable, non-trace, or unsupported-version files.
Expected<uint64_t> traceFileDigest(const std::string &Path);

/// Renders the whole trace as text, one entry per line (debugging aid and
/// the `trace_inspect` example's output format).
std::string dumpTrace(const Trace &T);

} // namespace rprism

#endif // RPRISM_TRACE_SERIALIZE_H
