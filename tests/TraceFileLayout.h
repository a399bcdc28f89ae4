//===- tests/TraceFileLayout.h - Trace-file bytes, located for tests ------===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Locates the parts of a written trace file straight from its bytes,
/// independently of the reader under test: the footer directory's segment
/// records and each segment's section-table records. Corruption tests use
/// these to aim their cuts and flips at a named section, and
/// resealDirectory to keep the directory consistent after editing a
/// section table, so the edit reaches the per-section checks.
///
/// Written files hold one segment; these helpers read any number, so a
/// test can also build the refused two-segment shape.
///
/// Layout (little endian): a 32-byte file header; segments, each a 32-byte
/// header (the section count at byte 20) followed by 32-byte section
/// records (id, pad, offset relative to the segment header, length,
/// checksum); the footer (magic, count, then one 32-byte record per
/// segment: offset, table digest, lane digest, begin eid, entry count);
/// and a 24-byte trailer (footer offset, footer checksum, count, magic).
///
//===----------------------------------------------------------------------===//

#ifndef RPRISM_TESTS_TRACEFILELAYOUT_H
#define RPRISM_TESTS_TRACEFILELAYOUT_H

#include "support/Hashing.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

namespace tracelayout {

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

/// One section-table record of a segment, as written.
struct SectionRec {
  uint32_t Id = 0;
  uint64_t Offset = 0;  ///< Absolute offset of the payload.
  uint64_t Length = 0;
  size_t RecordPos = 0; ///< Absolute offset of the 32-byte record itself.
};

/// One footer-directory record.
struct SegDirRec {
  uint64_t Offset = 0; ///< Absolute offset of the segment header.
  uint32_t BeginEid = 0;
  uint32_t NumEntries = 0;
  size_t RecordPos = 0; ///< Absolute offset of the 32-byte record itself.
};

struct FileLayout {
  uint64_t FooterOffset = 0;
  std::vector<SegDirRec> Segments;
  bool Ok = false;
};

/// The segment directory, through the trailer's footer pointer.
inline FileLayout fileLayout(const std::vector<uint8_t> &Bytes) {
  FileLayout L;
  if (Bytes.size() < 32 + 24)
    return L;
  size_t Trailer = Bytes.size() - 24;
  if (loadLE<uint32_t>(Bytes.data() + Trailer + 20) != 0x52505445u)
    return L; // "RPTE"
  L.FooterOffset = loadLE<uint64_t>(Bytes.data() + Trailer);
  uint32_t NumSegments = loadLE<uint32_t>(Bytes.data() + Trailer + 16);
  size_t Pos = static_cast<size_t>(L.FooterOffset) + 8;
  for (uint32_t I = 0; I != NumSegments; ++I, Pos += 32) {
    if (Pos + 32 > Bytes.size())
      return L;
    SegDirRec R;
    R.Offset = loadLE<uint64_t>(Bytes.data() + Pos);
    R.BeginEid = loadLE<uint32_t>(Bytes.data() + Pos + 24);
    R.NumEntries = loadLE<uint32_t>(Bytes.data() + Pos + 28);
    R.RecordPos = Pos;
    L.Segments.push_back(R);
  }
  L.Ok = true;
  return L;
}

/// Every section-table record of the segment headered at \p SegOffset.
inline std::vector<SectionRec> segSections(const std::vector<uint8_t> &Bytes,
                                           uint64_t SegOffset) {
  std::vector<SectionRec> Table;
  uint32_t NumSections = loadLE<uint32_t>(Bytes.data() + SegOffset + 20);
  for (uint32_t I = 0; I != NumSections; ++I) {
    size_t Pos = static_cast<size_t>(SegOffset) + 32 + size_t{I} * 32;
    SectionRec R;
    R.Id = loadLE<uint32_t>(Bytes.data() + Pos);
    R.Offset = SegOffset + loadLE<uint64_t>(Bytes.data() + Pos + 8);
    R.Length = loadLE<uint64_t>(Bytes.data() + Pos + 16);
    R.RecordPos = Pos;
    Table.push_back(R);
  }
  return Table;
}

/// The record for section \p Id of the segment headered at \p SegOffset
/// (Id 0 when the segment has no such section).
inline SectionRec segSection(const std::vector<uint8_t> &Bytes,
                             uint64_t SegOffset, uint32_t Id) {
  for (const SectionRec &R : segSections(Bytes, SegOffset))
    if (R.Id == Id)
      return R;
  return SectionRec();
}

/// Recomputes the checksum in section record \p R from the payload's
/// current bytes, as the writer would have (then resealDirectory), so an
/// edited payload reaches the reader's value checks.
inline void resealSection(std::vector<uint8_t> &Bytes, const SectionRec &R) {
  storeLE(Bytes.data() + R.RecordPos + 24,
          rprism::checksumBytes(Bytes.data() + R.Offset,
                                static_cast<size_t>(R.Length)));
}

/// Recomputes every directory record's table digest and the footer
/// checksum from the current bytes, as the writer would have.
inline void resealDirectory(std::vector<uint8_t> &Bytes) {
  FileLayout L = fileLayout(Bytes);
  for (const SegDirRec &S : L.Segments) {
    uint32_t NumSections = loadLE<uint32_t>(Bytes.data() + S.Offset + 20);
    storeLE(Bytes.data() + S.RecordPos + 8,
            rprism::checksumBytes(Bytes.data() + S.Offset + 32,
                                  size_t{NumSections} * 32));
  }
  size_t FooterBytes = 8 + 32 * L.Segments.size();
  storeLE(Bytes.data() + Bytes.size() - 16,
          rprism::checksumBytes(Bytes.data() + L.FooterOffset, FooterBytes));
}

} // namespace tracelayout

#endif // RPRISM_TESTS_TRACEFILELAYOUT_H
