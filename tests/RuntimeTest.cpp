//===- tests/RuntimeTest.cpp - Compiler/VM/trace-emission tests -----------===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//

#include "runtime/Compiler.h"
#include "runtime/Vm.h"

#include <gtest/gtest.h>

using namespace rprism;

namespace {

/// Compiles and runs a source program; fails the test on front-end errors.
RunResult runSource(const std::string &Source,
                    RunOptions Options = RunOptions()) {
  auto Prog = compileSource(Source);
  EXPECT_TRUE(bool(Prog)) << (Prog ? "" : Prog.error().render());
  if (!Prog)
    return RunResult();
  return runProgram(*Prog, Options);
}

std::string outputOf(const std::string &Source,
                     RunOptions Options = RunOptions()) {
  return runSource(Source, std::move(Options)).Output;
}

//===----------------------------------------------------------------------===//
// Expression and statement semantics
//===----------------------------------------------------------------------===//

TEST(Vm, Arithmetic) {
  EXPECT_EQ(outputOf("main { print(1 + 2 * 3 - 4 / 2); }"), "5\n");
  EXPECT_EQ(outputOf("main { print(17 % 5); }"), "2\n");
  EXPECT_EQ(outputOf("main { print(-(3) + 1); }"), "-2\n");
  EXPECT_EQ(outputOf("main { print(2.5 + 0.25); }"), "2.75\n");
}

TEST(Vm, StringOps) {
  EXPECT_EQ(outputOf(R"(main { print("foo" + "bar"); })"), "foobar\n");
  EXPECT_EQ(outputOf(R"(main { print("abc" < "abd"); })"), "true\n");
  EXPECT_EQ(outputOf(R"(main { print(len("hello")); })"), "5\n");
  EXPECT_EQ(outputOf(R"(main { print(substr("hello", 1, 3)); })"), "ell\n");
  EXPECT_EQ(outputOf(R"(main { print(charAt("A", 0)); })"), "65\n");
  EXPECT_EQ(outputOf(R"(main { print(chr(66)); })"), "B\n");
  EXPECT_EQ(outputOf(R"(main { print(indexOf("hello", "ll")); })"), "2\n");
  EXPECT_EQ(outputOf(R"(main { print(contains("hello", "ell")); })"),
            "true\n");
  EXPECT_EQ(outputOf(R"(main { print(parseInt("-42")); })"), "-42\n");
  EXPECT_EQ(outputOf(R"(main { print(parseInt("junk")); })"), "0\n");
}

TEST(Vm, BuiltinEdgeCases) {
  // Total functions: out-of-range accesses yield sentinels, not errors.
  EXPECT_EQ(outputOf(R"(main { print(charAt("a", 5)); })"), "-1\n");
  EXPECT_EQ(outputOf(R"(main { print(ord("")); })"), "-1\n");
  EXPECT_EQ(outputOf(R"(main { print(substr("abc", 10, 5)); })"), "\n");
  EXPECT_EQ(outputOf(R"(main { print(intOfFloat(3.9)); })"), "3\n");
  EXPECT_EQ(outputOf(R"(main { print(floatOfInt(2) + 0.5); })"), "2.5\n");
}

TEST(Vm, ShortCircuitEvaluation) {
  // The RHS (division by zero) must not run when the LHS decides.
  EXPECT_EQ(outputOf("main { print(false && 1 / 0 == 0); }"), "false\n");
  EXPECT_EQ(outputOf("main { print(true || 1 / 0 == 0); }"), "true\n");
}

TEST(Vm, ControlFlow) {
  EXPECT_EQ(outputOf(R"(
    main {
      var i = 0;
      var sum = 0;
      while (i < 5) { sum = sum + i; i = i + 1; }
      if (sum == 10) { print("ten"); } else { print("other"); }
    }
  )"),
            "ten\n");
}

TEST(Vm, AssignmentIsAnExpression) {
  EXPECT_EQ(outputOf("main { var x = 0; var y = (x = 5) + 1; print(x + y); }"),
            "11\n");
}

TEST(Vm, InputsArriveThroughBuiltins) {
  RunOptions Options;
  Options.Inputs = {"alpha", "beta"};
  Options.IntInputs = {7};
  EXPECT_EQ(outputOf(
                "main { print(input(0)); print(input(1)); print(input(9)); "
                "print(inputInt(0)); }",
                Options),
            "alpha\nbeta\n\n7\n");
}

//===----------------------------------------------------------------------===//
// Objects, dispatch, constructors
//===----------------------------------------------------------------------===//

TEST(Vm, ObjectFieldsAndMethods) {
  EXPECT_EQ(outputOf(R"(
    class Counter {
      Int count;
      Counter(Int start) { this.count = start; }
      Int next() { this.count = this.count + 1; return this.count; }
    }
    main {
      var c = new Counter(10);
      print(c.next());
      print(c.next());
      print(c.count);
    }
  )"),
            "11\n12\n12\n");
}

TEST(Vm, VirtualDispatch) {
  EXPECT_EQ(outputOf(R"(
    class Shape { Str name() { return "shape"; } }
    class Circle extends Shape { Str name() { return "circle"; } }
    class Square extends Shape { Str name() { return "square"; } }
    class Printer {
      Unit show(Shape s) { print(s.name()); return unit; }
    }
    main {
      var p = new Printer();
      p.show(new Circle());
      p.show(new Square());
      p.show(new Shape());
    }
  )"),
            "circle\nsquare\nshape\n");
}

TEST(Vm, InheritedMethodsAndFields) {
  EXPECT_EQ(outputOf(R"(
    class Base {
      Int x;
      Base(Int x) { this.x = x; }
      Int get() { return this.x; }
      Int doubled() { return this.get() * 2; }
    }
    class Derived extends Base {
      Derived(Int x) { super(x + 100); }
      Int get() { return this.x + 1; }
    }
    main {
      var d = new Derived(5);
      print(d.doubled());
    }
  )"),
            "212\n"); // x=105, get()=106, doubled=212 (open recursion).
}

TEST(Vm, CtorChains) {
  EXPECT_EQ(outputOf(R"(
    class A { Int a; A() { this.a = 1; print("A"); } }
    class B extends A { Int b; B() { this.b = 2; print("B"); } }
    class C extends B { Int c; C() { this.c = 3; print("C"); } }
    main { var c = new C(); print(c.a + c.b + c.c); }
  )"),
            "A\nB\nC\n6\n");
}

TEST(Vm, CtorlessClassInheritsZeroArgCtor) {
  EXPECT_EQ(outputOf(R"(
    class A { Int a; A() { this.a = 42; } }
    class B extends A { }
    main { var b = new B(); print(b.a); }
  )"),
            "42\n");
}

TEST(Vm, FieldDefaultsBeforeCtor) {
  EXPECT_EQ(outputOf(R"(
    class Defaults {
      Int i; Bool b; Float f; Str s; Defaults other;
      Str describe() {
        var tail = "null";
        if (!(this.other == null)) { tail = "obj"; }
        return strOfInt(this.i) + "|" + strOfFloat(this.f) + "|" + this.s +
               "|" + tail;
      }
    }
    main { var d = new Defaults(); print(d.describe()); print(d.b); }
  )"),
            "0|0||null\nfalse\n");
}

TEST(Vm, NullDereferenceIsAnObservableError) {
  RunResult Result = runSource(R"(
    class Box { Int v; }
    main { var b = new Box(); b = null; print(b.v); }
  )");
  EXPECT_FALSE(Result.Completed);
  EXPECT_NE(Result.Output.find("!error"), std::string::npos);
}

TEST(Vm, DivisionByZeroIsAnObservableError) {
  RunResult Result = runSource("main { print(1 / 0); }");
  EXPECT_FALSE(Result.Completed);
  EXPECT_NE(Result.Error.find("zero"), std::string::npos);
}

TEST(Vm, StepLimitStopsRunawayPrograms) {
  RunOptions Options;
  Options.MaxSteps = 10000;
  RunResult Result = runSource("main { while (true) { } }", Options);
  EXPECT_FALSE(Result.Completed);
  EXPECT_NE(Result.Error.find("step limit"), std::string::npos);
}

TEST(Vm, RecursionDepthGuard) {
  RunResult Result = runSource(R"(
    class R { Int go(Int n) { return this.go(n + 1); } }
    main { var r = new R(); print(r.go(0)); }
  )");
  EXPECT_FALSE(Result.Completed);
  EXPECT_NE(Result.Error.find("overflow"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Threads
//===----------------------------------------------------------------------===//

TEST(Vm, SpawnRunsConcurrentlyAndDeterministically) {
  const char *Source = R"(
    class Worker {
      Int id;
      Worker(Int id) { this.id = id; }
      Unit work() {
        var i = 0;
        while (i < 3) { print(this.id); i = i + 1; }
        return unit;
      }
    }
    main {
      spawn new Worker(1).work();
      spawn new Worker(2).work();
      var i = 0;
      while (i < 3) { print(0); i = i + 1; }
    }
  )";
  std::string First = outputOf(Source);
  std::string Second = outputOf(Source);
  EXPECT_EQ(First, Second) << "scheduling must be deterministic";
  // All nine prints happen.
  EXPECT_EQ(First.size(), 18u);
}

TEST(Vm, ThreadsInterleaveWithSmallQuantum) {
  RunOptions Options;
  Options.Quantum = 5;
  std::string Out = outputOf(R"(
    class W {
      Unit go() {
        var i = 0;
        while (i < 20) { print(1); i = i + 1; }
        return unit;
      }
    }
    main {
      spawn new W().go();
      var i = 0;
      while (i < 20) { print(0); i = i + 1; }
    }
  )",
                             Options);
  // With a 5-instruction quantum both threads make progress before either
  // finishes: the output cannot be all-zeros-then-all-ones.
  size_t FirstOne = Out.find('1');
  size_t LastZero = Out.rfind('0');
  ASSERT_NE(FirstOne, std::string::npos);
  ASSERT_NE(LastZero, std::string::npos);
  EXPECT_LT(FirstOne, LastZero) << Out;
}

//===----------------------------------------------------------------------===//
// Trace emission (the Fig. 6 rules)
//===----------------------------------------------------------------------===//

/// Materializes every entry of \p T (the columnar trace stores entries
/// scattered across columns; tests iterate whole entries).
std::vector<TraceEntry> materialize(const Trace &T) {
  std::vector<TraceEntry> Out;
  Out.reserve(T.size());
  for (uint32_t Eid = 0; Eid != T.size(); ++Eid)
    Out.push_back(T.entry(Eid));
  return Out;
}

/// Counts entries of one kind.
size_t countKind(const Trace &T, EventKind Kind) {
  size_t N = 0;
  for (uint32_t Eid = 0; Eid != T.size(); ++Eid)
    if (T.kind(Eid) == Kind)
      ++N;
  return N;
}

TEST(Trace, CallReturnBalance) {
  RunResult Result = runSource(R"(
    class A {
      Int id(Int x) { return x; }
      Int twice(Int x) { return this.id(x) + this.id(x); }
    }
    main { var a = new A(); print(a.twice(3)); }
  )");
  ASSERT_TRUE(Result.Completed);
  const Trace &T = Result.ExecTrace;
  // Every call has a matching return; inits pair with ctor returns.
  size_t Calls = countKind(T, EventKind::Call);
  size_t Inits = countKind(T, EventKind::Init);
  size_t Returns = countKind(T, EventKind::Return);
  EXPECT_EQ(Calls + Inits, Returns);
  EXPECT_EQ(Inits, 1u);
  EXPECT_EQ(Calls, 3u); // twice, id, id.
}

TEST(Trace, EntryIdsAreDense) {
  RunResult Result = runSource(R"(
    class A { Int f; A(Int f) { this.f = f; } }
    main { var a = new A(1); print(a.f); }
  )");
  const Trace &T = Result.ExecTrace;
  ASSERT_GT(T.size(), 0u);
  for (uint32_t I = 0; I != T.size(); ++I)
    EXPECT_EQ(T.entry(I).Eid, I);
}

TEST(Trace, FieldEventsCarryValuesAndTargets) {
  RunResult Result = runSource(R"(
    class Box { Int v; Box(Int v) { this.v = v; } }
    main { var b = new Box(41); b.v = 42; print(b.v); }
  )");
  const Trace &T = Result.ExecTrace;
  // Find the set in main (b.v = 42).
  bool FoundSet = false;
  bool FoundGet = false;
  for (const TraceEntry &Entry : materialize(T)) {
    const std::string &Method = T.Strings->text(Entry.Method);
    if (Entry.Ev.Kind == EventKind::FieldSet && Method == "main") {
      FoundSet = true;
      EXPECT_EQ(T.Strings->text(Entry.Ev.Name), "v");
      EXPECT_EQ(T.Strings->text(Entry.Ev.Target.ClassName), "Box");
      EXPECT_EQ(T.renderValue(Entry.Ev.Value), "42");
      EXPECT_EQ(Entry.Ev.Value.Kind, ReprKind::Int);
    }
    if (Entry.Ev.Kind == EventKind::FieldGet && Method == "main") {
      FoundGet = true;
      EXPECT_EQ(T.renderValue(Entry.Ev.Value), "42");
    }
  }
  EXPECT_TRUE(FoundSet);
  EXPECT_TRUE(FoundGet);
}

TEST(Trace, DistinctIntValuesAddNoStrings) {
  // Scalar rows carry no text, so the string table holds names only:
  // storing 0..99,999 into a field interns exactly what storing 0..9 does.
  auto TableSize = [](int64_t Count) {
    RunOptions Options;
    Options.IntInputs = {Count};
    RunResult Result = runSource(R"(
      class Acc { Int v; }
      main {
        var a = new Acc();
        var i = 0;
        while (i < inputInt(0)) { a.v = i; i = i + 1; }
      }
    )",
                                 Options);
    EXPECT_TRUE(Result.Completed) << Result.Error;
    EXPECT_GE(Result.ExecTrace.size(), static_cast<size_t>(Count));
    return Result.ExecTrace.Strings->size();
  };
  EXPECT_EQ(TableSize(100000), TableSize(10));
}

TEST(Trace, CallEventsRecordedInCallersContext) {
  RunResult Result = runSource(R"(
    class Util { Int add(Int a, Int b) { return a + b; } }
    main { var u = new Util(); print(u.add(1, 2)); }
  )");
  const Trace &T = Result.ExecTrace;
  bool Found = false;
  for (const TraceEntry &Entry : materialize(T)) {
    if (Entry.Ev.Kind != EventKind::Call)
      continue;
    if (T.Strings->text(Entry.Ev.Name) == "Util.add") {
      Found = true;
      // METH-E: context is the caller (main), not the callee.
      EXPECT_EQ(T.Strings->text(Entry.Method), "main");
      ASSERT_EQ(Entry.Ev.numArgs(), 2u);
      EXPECT_EQ(T.renderValue(T.arg(Entry.Ev, 0)), "1");
      EXPECT_EQ(T.renderValue(T.arg(Entry.Ev, 1)), "2");
    }
  }
  EXPECT_TRUE(Found);
}

TEST(Trace, ReturnEventsCarryReturnValue) {
  RunResult Result = runSource(R"(
    class Util { Str greet() { return "hi"; } }
    main { var u = new Util(); print(u.greet()); }
  )");
  const Trace &T = Result.ExecTrace;
  bool Found = false;
  for (const TraceEntry &Entry : materialize(T)) {
    if (Entry.Ev.Kind == EventKind::Return &&
        T.Strings->text(Entry.Ev.Name) == "Util.greet") {
      Found = true;
      EXPECT_EQ(Entry.Ev.Value.Kind, ReprKind::Str);
      EXPECT_EQ(T.Strings->text(Entry.Ev.Value.Text), "hi");
    }
  }
  EXPECT_TRUE(Found);
}

TEST(Trace, InitEventsPairWithCtorReturns) {
  RunResult Result = runSource(R"(
    class P { Int x; P(Int x) { this.x = x; } }
    main { var p = new P(9); }
  )");
  const Trace &T = Result.ExecTrace;
  // Expected: init P, set x (inside ctor), return P.<init>, end.
  ASSERT_GE(T.size(), 3u);
  TraceEntry Init = T.entry(0);
  EXPECT_EQ(Init.Ev.Kind, EventKind::Init);
  EXPECT_EQ(T.Strings->text(Init.Ev.Name), "P");
  ASSERT_EQ(Init.Ev.numArgs(), 1u);
  EXPECT_EQ(T.renderValue(T.arg(Init.Ev, 0)), "9");

  EXPECT_EQ(T.kind(1), EventKind::FieldSet);
  // The set happens inside the ctor frame: context method is P.<init>.
  EXPECT_EQ(T.Strings->text(T.method(1)), "P.<init>");

  EXPECT_EQ(T.kind(2), EventKind::Return);
  EXPECT_EQ(T.Strings->text(T.name(2)), "P.<init>");
}

TEST(Trace, CreationSeqNumbersArePerClass) {
  RunResult Result = runSource(R"(
    class A { }
    class B { }
    main { var a1 = new A(); var a2 = new A(); var b1 = new B(); }
  )");
  const Trace &T = Result.ExecTrace;
  std::vector<std::pair<std::string, uint32_t>> Seen;
  for (const TraceEntry &Entry : materialize(T))
    if (Entry.Ev.Kind == EventKind::Init)
      Seen.emplace_back(T.Strings->text(Entry.Ev.Target.ClassName),
                        Entry.Ev.Target.CreationSeq);
  std::vector<std::pair<std::string, uint32_t>> Expected = {
      {"A", 1}, {"A", 2}, {"B", 1}};
  EXPECT_EQ(Seen, Expected);
}

TEST(Trace, ForkAndEndEvents) {
  RunResult Result = runSource(R"(
    class W { Unit go() { return unit; } }
    main { spawn new W().go(); }
  )");
  const Trace &T = Result.ExecTrace;
  EXPECT_EQ(countKind(T, EventKind::Fork), 1u);
  // Both the spawned thread and main end.
  EXPECT_EQ(countKind(T, EventKind::End), 2u);
  ASSERT_EQ(T.Threads.size(), 2u);
  EXPECT_EQ(T.Threads[1].ParentTid, 0u);
  EXPECT_EQ(T.Strings->text(T.Threads[1].EntryMethod), "W.go");
  EXPECT_FALSE(T.Threads[1].SpawnStack.empty());
  EXPECT_NE(T.Threads[1].AncestryHash, T.Threads[0].AncestryHash);
}

TEST(Trace, ExcludedClassesAreFiltered) {
  RunOptions Options;
  Options.Tracing.ExcludeClasses = {"Noise"};
  RunResult Result = runSource(R"(
    class Noise {
      Int chatter() { return 1; }
    }
    class Signal {
      Int ping() { return 2; }
    }
    main {
      var n = new Noise();
      var s = new Signal();
      print(n.chatter() + s.ping());
    }
  )",
                               Options);
  const Trace &T = Result.ExecTrace;
  for (const TraceEntry &Entry : materialize(T)) {
    if (Entry.Ev.Target.isNone())
      continue;
    EXPECT_NE(T.Strings->text(Entry.Ev.Target.ClassName), "Noise")
        << T.renderEntry(Entry);
  }
  // Signal events are still present.
  bool FoundSignal = false;
  for (const TraceEntry &Entry : materialize(T))
    if (!Entry.Ev.Target.isNone() &&
        T.Strings->text(Entry.Ev.Target.ClassName) == "Signal")
      FoundSignal = true;
  EXPECT_TRUE(FoundSignal);
}

TEST(Trace, TracingDisabledYieldsEmptyTrace) {
  RunOptions Options;
  Options.Tracing.Enabled = false;
  RunResult Result = runSource(
      "class A { Int m() { return 1; } } main { print(new A().m()); }",
      Options);
  EXPECT_TRUE(Result.Completed);
  EXPECT_EQ(Result.ExecTrace.size(), 0u);
}

TEST(Trace, ValueReprStableAcrossRuns) {
  const char *Source = R"(
    class Node { Int v; Node next; Node(Int v) { this.v = v; this.next = null; } }
    main {
      var a = new Node(1);
      var b = new Node(2);
      a.next = b;
      print(a.v);
    }
  )";
  RunResult First = runSource(Source);
  RunResult Second = runSource(Source);
  ASSERT_EQ(First.ExecTrace.size(), Second.ExecTrace.size());
  for (uint32_t I = 0; I != First.ExecTrace.size(); ++I)
    EXPECT_TRUE(eventEquals(First.ExecTrace, I, Second.ExecTrace, I))
        << "entry " << I;
}

TEST(Trace, NoReprClassesFallBackToCreationSeq) {
  RunOptions Options;
  Options.Tracing.NoReprClasses = {"Opaque"};
  RunResult Result = runSource(R"(
    class Opaque { Int v; Opaque(Int v) { this.v = v; } }
    main { var o = new Opaque(5); print(o.v); }
  )",
                               Options);
  const Trace &T = Result.ExecTrace;
  bool Found = false;
  for (const TraceEntry &Entry : materialize(T)) {
    if (Entry.Ev.Kind == EventKind::Init) {
      Found = true;
      EXPECT_FALSE(Entry.Ev.Target.HasRepr);
      EXPECT_EQ(Entry.Ev.Target.CreationSeq, 1u);
    }
  }
  EXPECT_TRUE(Found);
}

} // namespace
