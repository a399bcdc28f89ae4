//===- tests/ProtocolTest.cpp - Protocol inference & impact analysis ------===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//

#include "analysis/Impact.h"
#include "analysis/Protocol.h"
#include "runtime/Compiler.h"
#include "runtime/Vm.h"

#include <gtest/gtest.h>

using namespace rprism;

namespace {

Trace traceOf(const std::string &Source,
              std::shared_ptr<StringInterner> Strings = nullptr) {
  auto Prog = compileSource(Source, std::move(Strings));
  EXPECT_TRUE(bool(Prog)) << (Prog ? "" : Prog.error().render());
  if (!Prog)
    return Trace();
  RunResult Result = runProgram(*Prog);
  EXPECT_TRUE(Result.Completed) << Result.Error;
  return std::move(Result.ExecTrace);
}

/// A file-like object with an open -> write* -> close protocol.
const char *FileProgram = R"(
  class File {
    Int state;
    Int bytes;
    File() { this.state = 0; this.bytes = 0; }
    Unit open() { this.state = 1; return unit; }
    Unit write(Int n) { this.bytes = this.bytes + n; return unit; }
    Unit close() { this.state = 2; return unit; }
  }
  main {
    var a = new File();
    a.open();
    a.write(10);
    a.write(20);
    a.close();
    var b = new File();
    b.open();
    b.close();
  }
)";

//===----------------------------------------------------------------------===//
// Protocol inference
//===----------------------------------------------------------------------===//

TEST(Protocol, MinesObservedTransitions) {
  auto Strings = std::make_shared<StringInterner>();
  Trace T = traceOf(FileProgram, Strings);
  ViewWeb Web(T);
  std::vector<ProtocolAutomaton> Protocols = inferProtocols(Web);
  ASSERT_EQ(Protocols.size(), 1u);
  const ProtocolAutomaton &File = Protocols[0];
  EXPECT_EQ(Strings->text(File.ClassName), "File");
  EXPECT_EQ(File.NumObjects, 2u);

  Symbol Open = Strings->intern("File.open");
  Symbol Write = Strings->intern("File.write");
  Symbol Close = Strings->intern("File.close");
  Symbol Start = Symbol{ProtocolAutomaton::StartState};

  EXPECT_TRUE(File.allows(Start, Open));
  EXPECT_TRUE(File.allows(Open, Write));
  EXPECT_TRUE(File.allows(Write, Write));
  EXPECT_TRUE(File.allows(Write, Close));
  EXPECT_TRUE(File.allows(Open, Close)); // Object b.
  // Never observed: close-then-anything, write-before-open.
  EXPECT_FALSE(File.allows(Close, Write));
  EXPECT_FALSE(File.allows(Start, Write));
  EXPECT_FALSE(File.allows(Start, Close));

  // Multiplicities: open->write observed once (object a only).
  EXPECT_EQ(File.Transitions.at({Open.Id, Write.Id}), 1u);
  EXPECT_EQ(File.Transitions.at({Start.Id, Open.Id}), 2u);

  // Both lifetimes ended in close.
  EXPECT_EQ(File.FinalMethods.size(), 1u);
  EXPECT_TRUE(File.FinalMethods.count(Close.Id));

  std::string Rendered = File.render(*Strings);
  EXPECT_NE(Rendered.find("<new> -> File.open  x2"), std::string::npos)
      << Rendered;
}

TEST(Protocol, CtorCallsAreFilteredByDefault) {
  auto Strings = std::make_shared<StringInterner>();
  Trace T = traceOf(R"(
    class Base { Base() { } Unit go() { return unit; } }
    class Derived extends Base { Derived() { super(); } }
    main { var d = new Derived(); d.go(); }
  )",
                    Strings);
  ViewWeb Web(T);
  std::vector<ProtocolAutomaton> Protocols = inferProtocols(Web);
  for (const ProtocolAutomaton &Auto : Protocols)
    for (const auto &[Edge, Count] : Auto.Transitions) {
      EXPECT_EQ(Strings->text(Symbol{Edge.first}).find("<init>"),
                std::string::npos);
      EXPECT_EQ(Strings->text(Symbol{Edge.second}).find("<init>"),
                std::string::npos);
    }
}

TEST(Protocol, MinObjectsThresholdFilters) {
  auto Strings = std::make_shared<StringInterner>();
  Trace T = traceOf(FileProgram, Strings);
  ViewWeb Web(T);
  ProtocolOptions Options;
  Options.MinObjects = 3; // Only 2 File instances exist.
  EXPECT_TRUE(inferProtocols(Web, Options).empty());
}

TEST(Protocol, CheckingFlagsUnseenTransitions) {
  auto Strings = std::make_shared<StringInterner>();
  Trace Reference = traceOf(FileProgram, Strings);
  ViewWeb RefWeb(Reference);
  std::vector<ProtocolAutomaton> Protocols = inferProtocols(RefWeb);

  // Subject violates the mined protocol: write before open, write after
  // close.
  Trace Subject = traceOf(R"(
    class File {
      Int state;
      Int bytes;
      File() { this.state = 0; this.bytes = 0; }
      Unit open() { this.state = 1; return unit; }
      Unit write(Int n) { this.bytes = this.bytes + n; return unit; }
      Unit close() { this.state = 2; return unit; }
    }
    main {
      var f = new File();
      f.write(5);
      f.open();
      f.close();
      f.write(6);
    }
  )",
                          Strings);
  ViewWeb SubjectWeb(Subject);
  std::vector<ProtocolViolation> Violations =
      checkProtocols(Protocols, SubjectWeb);
  // Three unseen transitions: <new> -> write, write -> open (the mined
  // protocol never saw open after a write), and close -> write.
  ASSERT_EQ(Violations.size(), 3u);

  Symbol Open = Strings->intern("File.open");
  Symbol Write = Strings->intern("File.write");
  Symbol Close = Strings->intern("File.close");
  auto Has = [&](Symbol From, Symbol To) {
    for (const ProtocolViolation &V : Violations)
      if (V.FromMethod == From && V.ToMethod == To)
        return true;
    return false;
  };
  EXPECT_TRUE(Has(Symbol{ProtocolAutomaton::StartState}, Write));
  EXPECT_TRUE(Has(Write, Open));
  EXPECT_TRUE(Has(Close, Write));

  std::string Rendered = renderViolations(Violations, Subject);
  EXPECT_NE(Rendered.find("3 protocol violation"), std::string::npos);
  EXPECT_NE(Rendered.find("<new> -> File.write"), std::string::npos);
}

TEST(Protocol, CleanSubjectHasNoViolations) {
  auto Strings = std::make_shared<StringInterner>();
  Trace Reference = traceOf(FileProgram, Strings);
  Trace Subject = traceOf(FileProgram, Strings);
  ViewWeb RefWeb(Reference);
  ViewWeb SubjectWeb(Subject);
  EXPECT_TRUE(
      checkProtocols(inferProtocols(RefWeb), SubjectWeb).empty());
}

TEST(Protocol, UnknownClassesAreSkipped) {
  auto Strings = std::make_shared<StringInterner>();
  Trace Reference = traceOf(FileProgram, Strings);
  Trace Subject = traceOf(R"(
    class Socket { Unit ping() { return unit; } }
    main { var s = new Socket(); s.ping(); }
  )",
                          Strings);
  ViewWeb RefWeb(Reference);
  ViewWeb SubjectWeb(Subject);
  EXPECT_TRUE(
      checkProtocols(inferProtocols(RefWeb), SubjectWeb).empty());
}

//===----------------------------------------------------------------------===//
// Impact analysis
//===----------------------------------------------------------------------===//

const char *ImpactProgram = R"(
  class Shared { Int v; Shared() { this.v = 0; }
    Unit bump() { this.v = this.v + 1; return unit; } }
  class Left {
    Shared s;
    Left(Shared s) { this.s = s; }
    Unit work() { this.s.bump(); return unit; }
  }
  class Right {
    Shared s;
    Right(Shared s) { this.s = s; }
    Unit work() { this.s.bump(); return unit; }
  }
  class Lonely {
    Int x;
    Lonely() { this.x = 0; }
    Unit idle() { this.x = 9; return unit; }
  }
  main {
    var s = new Shared();
    var l = new Left(s);
    var r = new Right(s);
    var z = new Lonely();
    l.work();
    r.work();
    z.idle();
  }
)";

TEST(Impact, ClosureCrossesSharedObjects) {
  auto Strings = std::make_shared<StringInterner>();
  Trace T = traceOf(ImpactProgram, Strings);
  ViewWeb Web(T);
  ImpactSet Impact =
      impactOfMethod(Web, Strings->intern("Left.work"));

  // Left.work touches Shared; Shared is touched by Right.work too: the
  // closure must pull Right.work in.
  EXPECT_TRUE(Impact.Methods.count(Strings->intern("Left.work").Id));
  EXPECT_TRUE(Impact.Methods.count(Strings->intern("Shared.bump").Id));
  EXPECT_TRUE(Impact.Methods.count(Strings->intern("Right.work").Id));
  // Lonely interacts with nothing in the slice.
  EXPECT_FALSE(Impact.Methods.count(Strings->intern("Lonely.idle").Id));
  EXPECT_GT(Impact.Objects.size(), 0u);
  EXPECT_GE(Impact.Rounds, 1u);
}

TEST(Impact, EntrySeedsWork) {
  auto Strings = std::make_shared<StringInterner>();
  Trace T = traceOf(ImpactProgram, Strings);
  ViewWeb Web(T);
  // Seed with the first entry targeting the Shared object.
  std::vector<uint32_t> Seed;
  for (uint32_t Eid = 0; Eid != T.size(); ++Eid) {
    if (!T.target(Eid).isNone() &&
        T.Strings->text(T.target(Eid).ClassName) == "Shared") {
      Seed.push_back(Eid);
      break;
    }
  }
  ASSERT_FALSE(Seed.empty());
  ImpactSet Impact = impactOfEntries(Web, Seed);
  EXPECT_TRUE(Impact.Methods.count(Strings->intern("Shared.bump").Id));
  EXPECT_EQ(Impact.SeedEntries, 1u);
}

TEST(Impact, UnknownMethodYieldsSeedOnly) {
  auto Strings = std::make_shared<StringInterner>();
  Trace T = traceOf(ImpactProgram, Strings);
  ViewWeb Web(T);
  ImpactSet Impact = impactOfMethod(Web, Strings->intern("No.where"));
  EXPECT_EQ(Impact.Methods.size(), 1u);
  EXPECT_TRUE(Impact.Objects.empty());
  EXPECT_EQ(Impact.SeedEntries, 0u);
}

TEST(Impact, RenderListsMethods) {
  auto Strings = std::make_shared<StringInterner>();
  Trace T = traceOf(ImpactProgram, Strings);
  ViewWeb Web(T);
  ImpactSet Impact = impactOfMethod(Web, Strings->intern("Left.work"));
  std::string Text = Impact.render(T);
  EXPECT_NE(Text.find("Left.work"), std::string::npos);
  EXPECT_NE(Text.find("method"), std::string::npos);
}

} // namespace
