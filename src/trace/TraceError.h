//===- trace/TraceError.h - Typed errors for trace ingestion --------------===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Factory functions for every way trace ingestion can fail, so callers
/// get a stable (class, code) pair instead of parsing message text. The
/// codes are part of the tool's interface (docs/ROBUSTNESS.md documents
/// them with the CLI exit-code mapping); messages are free to change.
/// Every `Corrupt` error names damage to a primary part of the file: the
/// header, the section table, an entry column or a side table. Damage to
/// a derived section (the fingerprint lane, the view index) is no error;
/// the reader drops the section and rebuilds it (trace/Serialize.h).
///
//===----------------------------------------------------------------------===//

#ifndef RPRISM_TRACE_TRACEERROR_H
#define RPRISM_TRACE_TRACEERROR_H

#include "support/Expected.h"

#include <cstdint>
#include <string>

namespace rprism {
namespace TraceError {

/// The file does not exist (distinct from an I/O failure on an existing
/// file so the CLI can word the diagnostic usefully; both are ErrClass::Io).
inline Err notFound(const std::string &Path) {
  return makeClassErr(ErrClass::Io, "trace.not_found",
                      "no such trace file '" + Path + "'");
}

/// The path is not a regular file, or opening, checking or mapping it
/// failed.
inline Err cannotOpen(const std::string &Path) {
  return makeClassErr(ErrClass::Io, "trace.open",
                      "cannot open trace file '" + Path + "'");
}

/// The bytes are not a trace file at all (bad magic).
inline Err notATrace(const std::string &Path) {
  return makeClassErr(ErrClass::Corrupt, "trace.magic",
                      "'" + Path + "' is not a trace file");
}

/// The version field is outside the supported range.
inline Err unsupportedVersion(const std::string &Path, uint32_t Version) {
  return makeClassErr(ErrClass::Corrupt, "trace.version",
                      "'" + Path + "' has an unsupported trace version (" +
                          std::to_string(Version) + ")");
}

/// The file ends before the data it declares.
inline Err truncated(const std::string &Path) {
  return makeClassErr(ErrClass::Corrupt, "trace.truncated",
                      "truncated trace file '" + Path + "'");
}

/// A section record points outside the file's payloads or at a misaligned
/// offset.
inline Err sectionBounds(const std::string &Path, uint32_t SectionId,
                         uint64_t Offset) {
  return makeClassErr(ErrClass::Corrupt, "trace.section_bounds",
                      "'" + Path + "' section " +
                          std::to_string(SectionId) +
                          " is out of bounds (offset " +
                          std::to_string(Offset) + ")");
}

/// A section payload does not match its recorded checksum.
inline Err sectionChecksum(const std::string &Path, uint32_t SectionId,
                           uint64_t Offset) {
  return makeClassErr(ErrClass::Corrupt, "trace.section_checksum",
                      "'" + Path + "' section " +
                          std::to_string(SectionId) +
                          " fails its checksum (offset " +
                          std::to_string(Offset) + ")");
}

/// The same section id appears twice in the table.
inline Err duplicateSection(const std::string &Path, uint32_t SectionId) {
  return makeClassErr(ErrClass::Corrupt, "trace.section_duplicate",
                      "'" + Path + "' has a duplicate section " +
                          std::to_string(SectionId));
}

/// A section's payload is internally malformed (\p What names it, e.g.
/// "string", "argument-slice"), matching the long-standing
/// "has a corrupt X section" wording.
inline Err corruptSection(const std::string &Path, const std::string &What) {
  return makeClassErr(ErrClass::Corrupt, "trace.section",
                      "'" + Path + "' has a corrupt " + What + " section");
}

} // namespace TraceError
} // namespace rprism

#endif // RPRISM_TRACE_TRACEERROR_H
