//===- tests/QueryNavTest.cpp - TraceQuery and ViewCursor tests -----------===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//

#include "runtime/Compiler.h"
#include "runtime/Vm.h"
#include "trace/Query.h"
#include "views/Navigator.h"

#include <gtest/gtest.h>

using namespace rprism;

namespace {

Trace traceOf(const std::string &Source) {
  auto Prog = compileSource(Source);
  EXPECT_TRUE(bool(Prog)) << (Prog ? "" : Prog.error().render());
  if (!Prog)
    return Trace();
  RunResult Result = runProgram(*Prog);
  EXPECT_TRUE(Result.Completed) << Result.Error;
  return std::move(Result.ExecTrace);
}

const char *Subject = R"(
  class Util {
    Int lo;
    Int hi;
    Util(Int lo, Int hi) { this.lo = lo; this.hi = hi; }
    Bool inRange(Int v) { return v >= this.lo && v <= this.hi; }
  }
  class Sink {
    Int hits;
    Sink() { this.hits = 0; }
    Unit accept(Bool ok) {
      if (ok) { this.hits = this.hits + 1; }
      return unit;
    }
  }
  main {
    var u = new Util(32, 127);
    var s = new Sink();
    s.accept(u.inRange(9));
    s.accept(u.inRange(65));
    s.accept(u.inRange(200));
    spawn s.accept(true);
  }
)";

//===----------------------------------------------------------------------===//
// TraceQuery
//===----------------------------------------------------------------------===//

TEST(Query, StartsWithEverythingAndNarrows) {
  Trace T = traceOf(Subject);
  EXPECT_EQ(TraceQuery(T).count(), T.size());

  TraceQuery Sets = TraceQuery(T).ofKind(EventKind::FieldSet);
  EXPECT_GT(Sets.count(), 0u);
  EXPECT_LT(Sets.count(), T.size());
  for (uint32_t Eid : Sets.eids())
    EXPECT_EQ(T.kind(Eid), EventKind::FieldSet);
}

TEST(Query, FiltersCompose) {
  Trace T = traceOf(Subject);
  TraceQuery Q = TraceQuery(T)
                     .ofKind(EventKind::FieldSet)
                     .onClass("Util")
                     .named("lo");
  ASSERT_EQ(Q.count(), 1u);
  EXPECT_EQ(T.renderValue(Q.first()->Ev.Value), "32");
}

TEST(Query, ByMethodAndThread) {
  Trace T = traceOf(Subject);
  TraceQuery InRange = TraceQuery(T).inMethod("Util.inRange");
  EXPECT_GT(InRange.count(), 0u);
  for (uint32_t Eid : InRange.eids())
    EXPECT_EQ(T.Strings->text(T.Methods[Eid]), "Util.inRange");

  // The spawned accept runs in thread 1.
  TraceQuery Spawned = TraceQuery(T).inThread(1);
  EXPECT_GT(Spawned.count(), 0u);
  for (uint32_t Eid : Spawned.eids())
    EXPECT_EQ(T.tid(Eid), 1u);
}

TEST(Query, ByValueAndRange) {
  Trace T = traceOf(Subject);
  // The inRange(65) call returns true; inRange(9)/inRange(200) false.
  TraceQuery Returns = TraceQuery(T)
                           .ofKind(EventKind::Return)
                           .named("Util.inRange")
                           .withValue("true");
  EXPECT_EQ(Returns.count(), 1u);

  TraceQuery Window = TraceQuery(T).inRange(0, 5);
  EXPECT_EQ(Window.count(), 5u);
}

TEST(Query, CustomPredicate) {
  Trace T = traceOf(Subject);
  TraceQuery Inits = TraceQuery(T).matching(
      [](const Trace &Tr, const TraceEntry &Entry) {
        return Entry.Ev.Kind == EventKind::Init &&
               Tr.Strings->text(Entry.Ev.Name) == "Sink";
      });
  EXPECT_EQ(Inits.count(), 1u);
}

TEST(Query, EmptyResultBehaves) {
  Trace T = traceOf(Subject);
  TraceQuery Q = TraceQuery(T).onClass("NoSuchClass");
  EXPECT_TRUE(Q.empty());
  EXPECT_FALSE(Q.first().has_value());
  EXPECT_NE(Q.render().find("0 match(es)"), std::string::npos);
}

TEST(Query, RenderBoundsOutput) {
  Trace T = traceOf(Subject);
  std::string Text = TraceQuery(T).render(3);
  // Header + 3 entries + ellipsis.
  EXPECT_NE(Text.find("..."), std::string::npos);
  EXPECT_NE(Text.find("[0]"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// ViewCursor
//===----------------------------------------------------------------------===//

TEST(Navigator, CursorStepsWithinAView) {
  Trace T = traceOf(Subject);
  ViewWeb Web(T);
  auto Cursor = ViewCursor::at(Web, 0, ViewType::Thread);
  ASSERT_TRUE(Cursor.has_value());
  EXPECT_EQ(Cursor->position(), 0u);
  EXPECT_FALSE(Cursor->prev());

  size_t Steps = 0;
  while (Cursor->next())
    ++Steps;
  EXPECT_EQ(Steps + 1, Cursor->view().Entries.size());
  EXPECT_FALSE(Cursor->next());
  EXPECT_TRUE(Cursor->prev());
}

TEST(Navigator, JumpReachesEveryLinkedViewType) {
  Trace T = traceOf(Subject);
  ViewWeb Web(T);
  // Find a field-set inside Sink.accept: member of all four view types.
  TraceQuery Q = TraceQuery(T)
                     .ofKind(EventKind::FieldSet)
                     .inMethod("Sink.accept")
                     .inThread(0);
  ASSERT_FALSE(Q.empty());
  uint32_t Eid = Q.eids().front();

  auto ThreadCursor = ViewCursor::at(Web, Eid, ViewType::Thread);
  ASSERT_TRUE(ThreadCursor.has_value());
  EXPECT_EQ(ThreadCursor->eid(), Eid);

  // Jump to each other view type; the entry under the cursor must stay
  // the same.
  for (ViewType Type : {ViewType::Method, ViewType::TargetObject,
                        ViewType::ActiveObject}) {
    auto Jumped = ThreadCursor->jump(Type);
    ASSERT_TRUE(Jumped.has_value()) << viewTypeName(Type);
    EXPECT_EQ(Jumped->eid(), Eid);
    EXPECT_EQ(Jumped->view().Type, Type);
    // And jumping back lands on the same thread-view position.
    auto Back = Jumped->jump(ViewType::Thread);
    ASSERT_TRUE(Back.has_value());
    EXPECT_EQ(Back->position(), ThreadCursor->position());
  }
}

TEST(Navigator, JumpToAbsentViewIsEmpty) {
  Trace T = traceOf(Subject);
  ViewWeb Web(T);
  // A fork event has no target-object view.
  TraceQuery Forks = TraceQuery(T).ofKind(EventKind::Fork);
  ASSERT_FALSE(Forks.empty());
  uint32_t Eid = Forks.eids().front();
  EXPECT_FALSE(ViewCursor::at(Web, Eid, ViewType::TargetObject).has_value());
  EXPECT_TRUE(ViewCursor::at(Web, Eid, ViewType::Thread).has_value());
}

TEST(Navigator, LinkedViewsMatchWebLinks) {
  Trace T = traceOf(Subject);
  ViewWeb Web(T);
  auto Cursor = ViewCursor::at(Web, 1, ViewType::Thread);
  ASSERT_TRUE(Cursor.has_value());
  EXPECT_EQ(Cursor->linkedViews(), Web.viewsOf(1));
}

TEST(Navigator, MethodViewWalkVisitsOnlyThatMethod) {
  Trace T = traceOf(Subject);
  ViewWeb Web(T);
  TraceQuery Q = TraceQuery(T).inMethod("Util.inRange");
  ASSERT_FALSE(Q.empty());
  auto Cursor = ViewCursor::at(Web, Q.eids().front(), ViewType::Method);
  ASSERT_TRUE(Cursor.has_value());
  do {
    EXPECT_EQ(T.Strings->text(Cursor->entry().Method), "Util.inRange");
  } while (Cursor->next());
}

} // namespace
