//===- perfbench/Spans.h - In-memory span log for the traced run ----------===//
///
/// \file
/// Spans recorded by the benchmark around its calls into each rprism
/// layer. A span has a name, a start, an end, a parent and a session id;
/// spans stay in memory and are written out once, when the run ends.
/// Layer spans are named "<layer>.<operation>" (runtime.run, trace.load,
/// views.web, ...); unqualified names ("record", "consume", "release",
/// "probe") are the benchmark's own structure and count as uncovered time.
///
//===----------------------------------------------------------------------===//

#ifndef RPRISM_PERFBENCH_SPANS_H
#define RPRISM_PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t nowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class SpanLog {
public:
  struct Span {
    const char *Name = nullptr; ///< String literal.
    uint64_t Begin = 0;
    uint64_t End = 0;
    int32_t Parent = -1; ///< Index into spans(), -1 for a root.
    uint32_t Session = 0;
  };

  /// Opens a span on construction and closes it on destruction. A null
  /// log makes it a no-op, so untraced code paths can share the calls.
  class Scope {
  public:
    Scope(SpanLog *Log, const char *Name) : Log(Log) {
      if (Log)
        Index = Log->open(Name);
    }
    ~Scope() {
      if (Log)
        Log->close(Index);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanLog *Log;
    uint32_t Index = 0;
  };

  void setSession(uint32_t Id) { Session = Id; }
  const std::vector<Span> &spans() const { return Spans; }

  /// Duration of span \p Index minus the part its direct children cover.
  uint64_t selfNanos(size_t Index) const;

  /// Writes every span plus per-name total and self times as JSON.
  bool writeJson(const std::string &Path, const std::string &Header) const;

private:
  uint32_t open(const char *Name) {
    Span S;
    S.Name = Name;
    S.Parent = Open.empty() ? -1 : static_cast<int32_t>(Open.back());
    S.Session = Session;
    S.Begin = nowNanos();
    Spans.push_back(S);
    Open.push_back(static_cast<uint32_t>(Spans.size() - 1));
    return Open.back();
  }
  void close(uint32_t Index) {
    Spans[Index].End = nowNanos();
    Open.pop_back();
  }

  std::vector<Span> Spans;
  std::vector<uint32_t> Open;
  uint32_t Session = 0;
};

} // namespace perfbench

#endif // RPRISM_PERFBENCH_SPANS_H
