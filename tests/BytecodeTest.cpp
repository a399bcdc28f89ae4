//===- tests/BytecodeTest.cpp - Compiler/bytecode structure tests ---------===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//

#include "runtime/Compiler.h"
#include "runtime/Vm.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace rprism;

namespace {

Expected<CompiledProgram> compileOk(const std::string &Source) {
  auto Prog = compileSource(Source);
  EXPECT_TRUE(bool(Prog)) << (Prog ? "" : Prog.error().render());
  return Prog;
}

const CompiledMethod *findMethod(const CompiledProgram &Prog,
                                 const std::string &QualName) {
  for (const CompiledMethod &Method : Prog.Methods)
    if (Prog.Strings->text(Method.QualName) == QualName)
      return &Method;
  return nullptr;
}

TEST(Compiler, MethodTableIsComplete) {
  auto Prog = compileOk(R"(
    class A {
      Int x;
      A(Int x) { this.x = x; }
      Int get() { return this.x; }
    }
    class B extends A {
      B() { super(1); }
      Int get() { return this.x + 1; }
      Int extra() { return 0; }
    }
    main { var b = new B(); print(b.get()); }
  )");
  ASSERT_TRUE(bool(Prog));
  EXPECT_TRUE(findMethod(*Prog, "A.<init>") != nullptr);
  EXPECT_TRUE(findMethod(*Prog, "A.get") != nullptr);
  EXPECT_TRUE(findMethod(*Prog, "B.<init>") != nullptr);
  EXPECT_TRUE(findMethod(*Prog, "B.get") != nullptr);
  EXPECT_TRUE(findMethod(*Prog, "B.extra") != nullptr);
  EXPECT_TRUE(findMethod(*Prog, "main") != nullptr);
}

TEST(Compiler, DispatchTablesResolveOverrides) {
  auto Prog = compileOk(R"(
    class A { Int m() { return 1; } Int n() { return 2; } }
    class B extends A { Int m() { return 3; } }
    class C { Int k() { return 4; } }
    main { var b = new B(); print(b.m()); }
  )");
  ASSERT_TRUE(bool(Prog));
  // Find the class ids.
  uint32_t AId = ~0u, BId = ~0u, CId = ~0u;
  for (uint32_t I = 0; I != Prog->Classes.size(); ++I) {
    const std::string &Name = Prog->Strings->text(Prog->Classes[I].Name);
    if (Name == "A")
      AId = I;
    if (Name == "B")
      BId = I;
    if (Name == "C")
      CId = I;
  }
  ASSERT_NE(AId, ~0u);
  ASSERT_NE(BId, ~0u);
  ASSERT_NE(CId, ~0u);

  // One dense slot per method name, and one table entry per slot in every
  // class.
  const std::vector<Symbol> &Slots = Prog->MethodSlotNames;
  ASSERT_EQ(Slots.size(), 3u);
  auto SlotOf = [&](const char *Name) {
    Symbol Sym = Prog->Strings->intern(Name);
    return static_cast<size_t>(std::find(Slots.begin(), Slots.end(), Sym) -
                               Slots.begin());
  };
  size_t M = SlotOf("m"), N = SlotOf("n"), K = SlotOf("k");
  ASSERT_LT(M, Slots.size());
  ASSERT_LT(N, Slots.size());
  ASSERT_LT(K, Slots.size());
  for (const RtClass &Class : Prog->Classes)
    EXPECT_EQ(Class.Dispatch.size(), Slots.size());
  auto Qual = [&](uint32_t Method) {
    return Prog->Strings->text(Prog->Methods[Method].QualName);
  };

  // B.m overrides A.m; B.n inherits A.n; a class without a method has an
  // empty entry at its slot.
  const RtClass &A = Prog->Classes[AId], &B = Prog->Classes[BId],
                &C = Prog->Classes[CId];
  ASSERT_NE(A.Dispatch[M], NoMethod);
  ASSERT_NE(B.Dispatch[M], NoMethod);
  ASSERT_NE(B.Dispatch[N], NoMethod);
  EXPECT_EQ(Qual(A.Dispatch[M]), "A.m");
  EXPECT_EQ(Qual(B.Dispatch[M]), "B.m");
  EXPECT_EQ(A.Dispatch[N], B.Dispatch[N]);
  EXPECT_EQ(Qual(B.Dispatch[N]), "A.n");
  EXPECT_EQ(A.Dispatch[K], NoMethod);
  EXPECT_EQ(C.Dispatch[M], NoMethod);
  EXPECT_EQ(Qual(C.Dispatch[K]), "C.k");

  // A call carries its method's slot.
  const CompiledMethod *Main = findMethod(*Prog, "main");
  ASSERT_TRUE(Main != nullptr);
  auto Call = std::find_if(Main->Code.begin(), Main->Code.end(),
                           [](const Instr &In) { return In.Code == Op::Call; });
  ASSERT_NE(Call, Main->Code.end());
  EXPECT_EQ(static_cast<size_t>(Call->A), M);
}

TEST(Compiler, CtorlessClassInheritsCtorSlot) {
  auto Prog = compileOk(R"(
    class A { Int v; A() { this.v = 5; } }
    class Mid extends A { }
    class Leaf extends Mid { }
    main { var l = new Leaf(); print(l.v); }
  )");
  ASSERT_TRUE(bool(Prog));
  const RtClass *Leaf = nullptr;
  const RtClass *A = nullptr;
  for (const RtClass &Class : Prog->Classes) {
    if (Prog->Strings->text(Class.Name) == "Leaf")
      Leaf = &Class;
    if (Prog->Strings->text(Class.Name) == "A")
      A = &Class;
  }
  ASSERT_TRUE(Leaf && A);
  EXPECT_EQ(Leaf->CtorMethod, A->CtorMethod);
  EXPECT_LT(Leaf->OwnCtorMethod, 0);
  EXPECT_GE(A->OwnCtorMethod, 0);
  // And it runs: field initialized through the inherited chain.
  EXPECT_EQ(runProgram(*Prog).Output, "5\n");
}

TEST(Compiler, ConstantsArePooled) {
  auto Prog = compileOk(R"(
    main {
      var a = 12345;
      var b = 12345;
      var c = 12345 + 12345;
      print(c);
    }
  )");
  ASSERT_TRUE(bool(Prog));
  unsigned Count = 0;
  for (int64_t Value : Prog->IntPool)
    Count += Value == 12345;
  EXPECT_EQ(Count, 1u) << "literal must be pooled once";
}

TEST(Compiler, ShortCircuitCompilesToJumps) {
  auto Prog = compileOk("main { var x = true && false || true; print(x); }");
  ASSERT_TRUE(bool(Prog));
  const CompiledMethod *Main = findMethod(*Prog, "main");
  ASSERT_TRUE(Main != nullptr);
  bool HasCondJump = false;
  for (const Instr &In : Main->Code)
    HasCondJump |= In.Code == Op::JumpIfFalse || In.Code == Op::JumpIfTrue;
  EXPECT_TRUE(HasCondJump);
  // No Binary And/Or opcode may remain.
  for (const Instr &In : Main->Code)
    if (In.Code == Op::Binary) {
      EXPECT_TRUE(static_cast<BinOp>(In.A) != BinOp::And &&
                  static_cast<BinOp>(In.A) != BinOp::Or);
    }
  EXPECT_EQ(runProgram(*Prog).Output, "true\n");
}

TEST(Compiler, EveryMethodEndsWithRet) {
  auto Prog = compileOk(R"(
    class A {
      Unit noReturn() { var x = 1; }
      Int withReturn() { return 2; }
    }
    main { var a = new A(); a.noReturn(); print(a.withReturn()); }
  )");
  ASSERT_TRUE(bool(Prog));
  for (const CompiledMethod &Method : Prog->Methods) {
    ASSERT_FALSE(Method.Code.empty());
    EXPECT_EQ(Method.Code.back().Code, Op::Ret)
        << Prog->Strings->text(Method.QualName);
  }
}

TEST(Compiler, JumpTargetsAreInRange) {
  auto Prog = compileOk(R"(
    class A {
      Int collatz(Int n) {
        var steps = 0;
        while (n != 1 && steps < 100) {
          if (n % 2 == 0) { n = n / 2; } else { n = 3 * n + 1; }
          steps = steps + 1;
        }
        return steps;
      }
    }
    main { print(new A().collatz(27)); }
  )");
  ASSERT_TRUE(bool(Prog));
  for (const CompiledMethod &Method : Prog->Methods) {
    for (const Instr &In : Method.Code) {
      if (In.Code == Op::Jump || In.Code == Op::JumpIfFalse ||
          In.Code == Op::JumpIfTrue) {
        EXPECT_GE(In.A, 0);
        EXPECT_LE(static_cast<size_t>(In.A), Method.Code.size());
      }
    }
  }
  EXPECT_EQ(runProgram(*Prog).Output, "100\n"); // Capped by steps guard...
}

TEST(Compiler, ProvenanceIsAttached) {
  auto Prog = compileOk(R"(
    class A { Int m() { return 7; } }
    main { print(new A().m()); }
  )");
  ASSERT_TRUE(bool(Prog));
  // The bulk of instructions must carry nonzero provenance node ids.
  unsigned WithProv = 0;
  unsigned Total = 0;
  for (const CompiledMethod &Method : Prog->Methods)
    for (const Instr &In : Method.Code) {
      ++Total;
      WithProv += In.Prov != NoNode;
    }
  EXPECT_GT(WithProv * 10, Total * 9);
}

TEST(Compiler, DisassemblerPrintsEveryInstruction) {
  auto Prog = compileOk("main { var x = 1 + 2; print(x); }");
  ASSERT_TRUE(bool(Prog));
  const CompiledMethod *Main = findMethod(*Prog, "main");
  ASSERT_TRUE(Main != nullptr);
  std::string Text = disassemble(*Prog, *Main);
  EXPECT_NE(Text.find("main"), std::string::npos);
  EXPECT_NE(Text.find("push.int"), std::string::npos);
  EXPECT_NE(Text.find("binop"), std::string::npos);
  EXPECT_NE(Text.find("print"), std::string::npos);
  EXPECT_NE(Text.find("ret"), std::string::npos);
  // One line per instruction (plus the header).
  size_t Lines = std::count(Text.begin(), Text.end(), '\n');
  EXPECT_EQ(Lines, Main->Code.size() + 1);
}

TEST(Compiler, OpNamesAreTotal) {
  for (int Code = 0; Code <= static_cast<int>(Op::Builtin); ++Code)
    EXPECT_STRNE(opName(static_cast<Op>(Code)), "?");
}

TEST(Compiler, SharedInternerKeepsSymbolsStable) {
  auto Strings = std::make_shared<StringInterner>();
  auto A = compileSource("class X { Int m() { return 1; } } "
                         "main { print(new X().m()); }",
                         Strings);
  auto B = compileSource("class X { Int m() { return 2; } } "
                         "main { print(new X().m()); }",
                         Strings);
  ASSERT_TRUE(bool(A));
  ASSERT_TRUE(bool(B));
  const CompiledMethod *MA = findMethod(*A, "X.m");
  const CompiledMethod *MB = findMethod(*B, "X.m");
  ASSERT_TRUE(MA && MB);
  EXPECT_EQ(MA->QualName, MB->QualName); // Same symbol id across programs.
}

} // namespace
