//===- tests/TraceFileLayout.h - Trace-file bytes, located for tests ------===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Locates the parts of a written trace file straight from its bytes,
/// independently of the reader under test: the header's fields and the
/// section-table records. Corruption tests and the trace_fuzz harness use
/// these to aim their cuts and flips at a named section, and resealHeader
/// to keep the header checksum consistent after editing the header or the
/// table, so the edit reaches the per-section checks.
///
/// Layout (little endian): a 32-byte header — magic, version, the header
/// checksum (over bytes 16 through the end of the section table), entry
/// count, section count, declared file length — then 32-byte section
/// records (id, pad, absolute payload offset, length, payload checksum),
/// then the 8-aligned payloads.
///
//===----------------------------------------------------------------------===//

#ifndef RPRISM_TESTS_TRACEFILELAYOUT_H
#define RPRISM_TESTS_TRACEFILELAYOUT_H

#include "support/Hashing.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

namespace tracelayout {

/// Byte offsets of the header fields, and the sizes of the fixed parts.
constexpr size_t ChecksumAt = 8;
constexpr size_t EntriesAt = 16;
constexpr size_t SectionsAt = 20;
constexpr size_t LengthAt = 24;
constexpr size_t HeaderBytes = 32;
constexpr size_t RecordBytes = 32;

inline std::vector<uint8_t> readAll(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(In),
                              std::istreambuf_iterator<char>());
}

inline bool writeAll(const std::string &Path,
                     const std::vector<uint8_t> &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(reinterpret_cast<const char *>(Bytes.data()),
            static_cast<std::streamsize>(Bytes.size()));
  return Out.good();
}

template <typename T> T loadLE(const uint8_t *P) {
  T V;
  std::memcpy(&V, P, sizeof(T));
  return V;
}

template <typename T> void storeLE(uint8_t *P, T V) {
  std::memcpy(P, &V, sizeof(T));
}

/// One section-table record, as written.
struct SectionRec {
  uint32_t Id = 0;
  uint64_t Offset = 0;  ///< Absolute offset of the payload.
  uint64_t Length = 0;
  size_t RecordPos = 0; ///< Absolute offset of the 32-byte record itself.
};

/// The header's section count, or 0 when the file is too short to hold a
/// header.
inline uint32_t numSections(const std::vector<uint8_t> &Bytes) {
  return Bytes.size() < HeaderBytes
             ? 0
             : loadLE<uint32_t>(Bytes.data() + SectionsAt);
}

/// Every section-table record, or none when the table the header declares
/// does not fit the file.
inline std::vector<SectionRec> sections(const std::vector<uint8_t> &Bytes) {
  uint64_t Count = numSections(Bytes);
  if (HeaderBytes + Count * RecordBytes > Bytes.size())
    return {};
  std::vector<SectionRec> Table;
  for (uint32_t I = 0; I != Count; ++I) {
    size_t Pos = HeaderBytes + size_t{I} * RecordBytes;
    SectionRec R;
    R.Id = loadLE<uint32_t>(Bytes.data() + Pos);
    R.Offset = loadLE<uint64_t>(Bytes.data() + Pos + 8);
    R.Length = loadLE<uint64_t>(Bytes.data() + Pos + 16);
    R.RecordPos = Pos;
    Table.push_back(R);
  }
  return Table;
}

/// The record for section \p Id (Id 0 when there is no such section).
inline SectionRec section(const std::vector<uint8_t> &Bytes, uint32_t Id) {
  for (const SectionRec &R : sections(Bytes))
    if (R.Id == Id)
      return R;
  return SectionRec();
}

/// Recomputes the header checksum from the current header fields and
/// section table, as the writer would have. False when the table the
/// header declares does not fit the file.
inline bool resealHeader(std::vector<uint8_t> &Bytes) {
  uint64_t End = HeaderBytes + uint64_t{numSections(Bytes)} * RecordBytes;
  if (Bytes.size() < HeaderBytes || End > Bytes.size())
    return false;
  storeLE(Bytes.data() + ChecksumAt,
          rprism::checksumBytes(Bytes.data() + EntriesAt,
                                static_cast<size_t>(End - EntriesAt)));
  return true;
}

/// Recomputes the checksum in section record \p R from the payload's
/// current bytes, then the header checksum, as the writer would have, so
/// an edited payload reaches the reader's value checks.
inline void resealSection(std::vector<uint8_t> &Bytes, const SectionRec &R) {
  storeLE(Bytes.data() + R.RecordPos + 24,
          rprism::checksumBytes(Bytes.data() + R.Offset,
                                static_cast<size_t>(R.Length)));
  resealHeader(Bytes);
}

} // namespace tracelayout

#endif // RPRISM_TESTS_TRACEFILELAYOUT_H
