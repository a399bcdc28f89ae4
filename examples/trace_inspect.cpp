//===- examples/trace_inspect.cpp - Offline traces: serialize & reload ----===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// RPRISM collects traces online and analyzes them offline: "once a trace
/// segment has finished executing, all trace data is offloaded to disk"
/// (§5). This example runs a program, writes the trace to disk, reloads
/// it into a fresh interner, verifies the round trip, and dumps a readable
/// excerpt. Differencing works identically on reloaded traces.
///
//===----------------------------------------------------------------------===//

#include "diff/ViewsDiff.h"
#include "runtime/Compiler.h"
#include "runtime/Vm.h"
#include "trace/Serialize.h"

#include <cstdio>
#include <cstdlib>
#include <iostream>

using namespace rprism;

static const char *Subject = R"(
  class Ring {
    Int slots;
    Int hand;
    Ring(Int slots) { this.slots = slots; this.hand = 0; }
    Int advance(Int by) {
      this.hand = (this.hand + by) % this.slots;
      return this.hand;
    }
  }
  main {
    var r = new Ring(7);
    var i = 0;
    while (i < 25) {
      r.advance(i * 3);
      i = i + 1;
    }
    print(r.hand);
  }
)";

int main() {
  auto Prog = compileSource(Subject);
  if (!Prog) {
    std::fprintf(stderr, "compile error: %s\n",
                 Prog.error().render().c_str());
    return 1;
  }
  RunOptions Options;
  Options.TraceName = "ring";
  RunResult Run = runProgram(*Prog, Options);
  std::printf("traced %zu entries\n", Run.ExecTrace.size());

  // Offload the finished trace to one file.
  const char *Path = "/tmp/rprism_trace_inspect.rpt";
  if (!writeTrace(Run.ExecTrace, Path)) {
    std::fprintf(stderr, "error: could not write %s\n", Path);
    return 1;
  }

  // Offline reload, into a *fresh* interner (as a separate analysis
  // process would).
  Expected<Trace> Reloaded =
      readTrace(Path, std::make_shared<StringInterner>());
  if (!Reloaded) {
    std::fprintf(stderr, "error: %s\n", Reloaded.error().render().c_str());
    return 1;
  }
  std::printf("reloaded %zu entries from %s\n", Reloaded->size(), Path);

  // The round trip is lossless up to event equality: a views diff of the
  // live trace against the reloaded one finds nothing.
  DiffResult Diff = viewsDiff(Run.ExecTrace, *Reloaded);
  std::printf("live-vs-reloaded semantic differences: %llu\n\n",
              static_cast<unsigned long long>(Diff.numDiffs()));

  // Readable dump (first entries).
  std::string Dump = dumpTrace(*Reloaded);
  size_t Shown = 0;
  size_t Pos = 0;
  while (Shown < 14 && Pos < Dump.size()) {
    size_t End = Dump.find('\n', Pos);
    if (End == std::string::npos)
      break;
    std::cout << Dump.substr(Pos, End - Pos + 1);
    Pos = End + 1;
    ++Shown;
  }
  std::printf("  ... (%zu more lines)\n", Reloaded->size() - Shown + 1);
  return 0;
}
