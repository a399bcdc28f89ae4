//===- support/Expected.h - Result type for recoverable errors -----------===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal Expected<T>/Err pair in the spirit of llvm::Expected. Library
/// code in RPrism does not throw; fallible operations (parsing, semantic
/// checking, trace deserialization) return Expected<T> carrying either a
/// value or a diagnostic message with a source position.
///
//===----------------------------------------------------------------------===//

#ifndef RPRISM_SUPPORT_EXPECTED_H
#define RPRISM_SUPPORT_EXPECTED_H

#include <cassert>
#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace rprism {

/// Broad failure classes, used by callers (the CLI in particular) to pick
/// a recovery strategy or exit code without parsing message text: usage
/// errors exit 2, corrupt input 3, I/O 4 (see docs/ROBUSTNESS.md).
enum class ErrClass : uint8_t {
  Other = 0, ///< Unclassified (compile errors, semantic failures, ...).
  Usage,     ///< The caller invoked an operation wrong.
  Io,        ///< The environment failed (open/read/write).
  Corrupt,   ///< The input bytes are malformed; retrying cannot help.
  Resource,  ///< A resource limit was hit (allocation, budget).
};

/// Printable class name ("io", "corrupt", ...).
inline const char *errClassName(ErrClass Class) {
  switch (Class) {
  case ErrClass::Other:
    return "other";
  case ErrClass::Usage:
    return "usage";
  case ErrClass::Io:
    return "io";
  case ErrClass::Corrupt:
    return "corrupt";
  case ErrClass::Resource:
    return "resource";
  }
  return "other";
}

/// A diagnostic: message plus optional 1-based source coordinates, an
/// error class, a stable machine-readable code (e.g.
/// "trace.section_checksum" — scripts may match on it; messages may be
/// reworded), and a context chain of notes added as the error propagates
/// outward ("while reading segment 3").
struct Err {
  std::string Message;
  int Line = 0;
  int Col = 0;
  ErrClass Class = ErrClass::Other;
  std::string Code;
  std::vector<std::string> Notes;

  /// Renders "line:col: message [code] (while ...; while ...)"; position,
  /// code, and notes are omitted when absent, so classic diagnostics
  /// render exactly as before.
  std::string render() const {
    std::string Out;
    if (Line != 0)
      Out = std::to_string(Line) + ":" + std::to_string(Col) + ": ";
    Out += Message;
    if (!Code.empty())
      Out += " [" + Code + "]";
    for (const std::string &Note : Notes)
      Out += "; " + Note;
    return Out;
  }

  /// Appends a context note, innermost first; returns *this for chaining
  /// at return sites: `return E.error().note("while reading segment 3");`
  Err &note(std::string Note) & {
    Notes.push_back(std::move(Note));
    return *this;
  }
  Err &&note(std::string Note) && {
    Notes.push_back(std::move(Note));
    return std::move(*this);
  }
};

/// Creates an Err with a position.
inline Err makeErr(std::string Message, int Line = 0, int Col = 0) {
  return Err{std::move(Message), Line, Col, ErrClass::Other, {}, {}};
}

/// Creates a classified Err with a stable code and no position.
inline Err makeClassErr(ErrClass Class, std::string Code,
                        std::string Message) {
  return Err{std::move(Message), 0, 0, Class, std::move(Code), {}};
}

/// Either a T or an Err. Boolean conversion is true on success.
template <typename T> class Expected {
public:
  /*implicit*/ Expected(T Value) : Storage(std::move(Value)) {}
  /*implicit*/ Expected(Err E) : Storage(std::move(E)) {}

  explicit operator bool() const { return Storage.index() == 0; }

  T &operator*() {
    assert(*this && "dereferencing an error Expected");
    return std::get<0>(Storage);
  }
  const T &operator*() const {
    assert(*this && "dereferencing an error Expected");
    return std::get<0>(Storage);
  }
  T *operator->() { return &**this; }
  const T *operator->() const { return &**this; }

  /// The error; only valid when the Expected holds one.
  const Err &error() const {
    assert(!*this && "no error present");
    return std::get<1>(Storage);
  }

  /// Moves the value out.
  T take() {
    assert(*this && "taking from an error Expected");
    return std::move(std::get<0>(Storage));
  }

private:
  std::variant<T, Err> Storage;
};

} // namespace rprism

#endif // RPRISM_SUPPORT_EXPECTED_H
