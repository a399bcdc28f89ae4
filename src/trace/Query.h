//===- trace/Query.h - Fluent filtering over traces ------------------------===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small fluent query API over traces, for tools built on the library
/// ("profilers, optimizers, and bug-finders can leverage views to quickly
/// sift through a program execution", §1). Filters narrow an entry-id set
/// in place:
///
///   size_t Sets = TraceQuery(T)
///                     .ofKind(EventKind::FieldSet)
///                     .onClass("NumericEntityUtil")
///                     .named("minCharRange")
///                     .count();
///
//===----------------------------------------------------------------------===//

#ifndef RPRISM_TRACE_QUERY_H
#define RPRISM_TRACE_QUERY_H

#include "trace/Trace.h"

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace rprism {

/// Chainable filter over one trace's entries. Copies are cheap-ish (one
/// id vector); all filters are conjunctive.
class TraceQuery {
public:
  /// Starts with every entry of \p T. The trace must outlive the query.
  explicit TraceQuery(const Trace &T);

  /// Keeps entries with the given event kind.
  TraceQuery &ofKind(EventKind Kind);

  /// Keeps entries whose executing (context) method has this qualified
  /// name.
  TraceQuery &inMethod(std::string_view QualName);

  /// Keeps entries whose event target is an instance of \p ClassName.
  TraceQuery &onClass(std::string_view ClassName);

  /// Keeps entries of thread \p Tid.
  TraceQuery &inThread(uint32_t Tid);

  /// Keeps entries whose event name (field, method, or class) is \p Name.
  TraceQuery &named(std::string_view Name);

  /// Keeps entries whose carried value (field value or return value) has
  /// the unquoted text \p Text (Trace::valueText).
  TraceQuery &withValue(std::string_view Text);

  /// Keeps entries in the eid range [\p Begin, \p End).
  TraceQuery &inRange(uint32_t Begin, uint32_t End);

  /// Keeps entries satisfying an arbitrary predicate.
  TraceQuery &matching(
      const std::function<bool(const Trace &, const TraceEntry &)> &Pred);

  // -- Results -------------------------------------------------------------
  const std::vector<uint32_t> &eids() const { return Eids; }
  size_t count() const { return Eids.size(); }
  bool empty() const { return Eids.empty(); }

  /// First matching entry (materialized from the columns), or nullopt.
  std::optional<TraceEntry> first() const;

  /// Renders the matches, one line each (bounded).
  std::string render(size_t MaxEntries = 25) const;

private:
  /// Keeps only entries for which \p Keep returns true. Entries are
  /// materialized from the columns per candidate — queries are a cold
  /// convenience path, and materializing keeps predicate signatures on the
  /// value type.
  template <typename Fn> TraceQuery &filter(Fn Keep) {
    std::vector<uint32_t> Out;
    Out.reserve(Eids.size());
    for (uint32_t Eid : Eids)
      if (Keep(T->entry(Eid)))
        Out.push_back(Eid);
    Eids = std::move(Out);
    return *this;
  }

  const Trace *T;
  std::vector<uint32_t> Eids;
};

} // namespace rprism

#endif // RPRISM_TRACE_QUERY_H
