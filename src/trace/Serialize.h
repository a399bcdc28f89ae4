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
/// (§5). The paper offloads a long trace in *segments* while it records;
/// this recorder writes once, after the run, so a trace file holds the
/// whole trace in one frame. This module has one on-disk format and one
/// reader for it.
///
/// A trace file has three parts: a 32-byte header (magic, version, entry
/// count, section count, declared file length, and one checksum over the
/// counts, the length and the section table), a table of 32-byte section
/// records (id, absolute offset, length, payload checksum), and the
/// payloads, each 8-byte aligned. The payloads are every entry column
/// written verbatim, the fingerprint lane, the side tables (strings,
/// threads, the object- and value-representation rows, the argument pool)
/// and the view index. The representation columns hold row ids
/// (trace/Trace.h), so each distinct representation is written once.
///
/// Readers mmap the file, which must be a regular file, verify the header
/// and every section checksum, and validate the untrusted bytes
/// (kinds, tids, symbol ids, representation rows and row ids, argument
/// slices). There is one rule for damage. The header, the section table,
/// the entry columns and the side tables are primary: each must be intact
/// and valid, or the read fails with a typed `Corrupt` error. The
/// fingerprint lane and the view index are derived from the columns: one
/// that is damaged is dropped and rebuilt, and the read succeeds. The
/// columns — fingerprints, argument pool, tables and view index included —
/// are then *borrowed* zero-copy; when the file's strings
/// intern to identical symbol ids, the common case for a fresh or
/// same-session interner, loading also skips re-fingerprinting entirely.
/// When symbol ids differ, only the method and name columns and the two
/// tables are copied and remapped, and the fingerprints recomputed. Every
/// checksum and digest is the word-wise checksumBytes (support/Hashing.h).
/// The header's version field is 8; files of any other version are refused
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

/// Writes \p T to \p Path. Returns false on I/O failure, including a
/// failed final flush. By default the file carries the optional view-index
/// sections (the trace's ViewIdx when current, else computed here), so a
/// later `rprism diff` reconstructs the view web without scanning the
/// entries; \p WithViewIndex = false omits them (the sections are
/// optional — files load either way).
bool writeTrace(const Trace &T, const std::string &Path,
                bool WithViewIndex = true);

/// What a read dropped. A read fails on any damage to the header, the
/// section table, an entry column or a side table; the fingerprint lane
/// and the view index are derived from the columns, so damage to one of
/// them drops it instead, and the read rebuilds what it held. Each drop is
/// also counted process-wide (`load.fp_recompute`,
/// `robust.view_index_dropped`).
struct TraceReadReport {
  /// The stored fingerprint lane was damaged and dropped; the fingerprints
  /// were recomputed from the columns.
  bool FingerprintsDropped = false;
  /// The persisted view index was damaged and dropped; the trace loads
  /// without it and view webs rebuild from the columns.
  bool ViewIndexDropped = false;
};

/// Reads a trace from \p Path, interning all strings into \p Strings, and
/// fills \p Report, when given, with what the read dropped. Errors carry an
/// ErrClass and a stable `trace.*` code (see trace/TraceError.h); a path
/// that is not a regular file, such as a directory, a FIFO or a pipe, is
/// `trace.open`.
Expected<Trace> readTrace(const std::string &Path,
                          std::shared_ptr<StringInterner> Strings,
                          TraceReadReport *Report = nullptr);

/// Digest of a trace file's recorded content: the 32-byte header, whose
/// checksum seals the section table and through it every payload's
/// recorded checksum, combined with the file size. Two files with equal
/// digests record the same trace; the payload bytes are not read, so a
/// payload that no longer matches its checksum is caught only by a full
/// read. Errors on unreadable, non-trace, or unsupported-version files.
Expected<uint64_t> traceFileDigest(const std::string &Path);

/// Renders the whole trace as text, one entry per line (debugging aid and
/// the `trace_inspect` example's output format).
std::string dumpTrace(const Trace &T);

} // namespace rprism

#endif // RPRISM_TRACE_SERIALIZE_H
