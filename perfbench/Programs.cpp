//===- perfbench/Programs.cpp ---------------------------------------------===//

#include "Programs.h"

#include "support/Rng.h"
#include "workload/Generator.h"

#include <stdexcept>

using namespace perfbench;

namespace {

/// Independent generator seeds per workload from one benchmark seed.
uint64_t subSeed(uint64_t Seed, uint64_t Stream) {
  rprism::Rng R(Seed * 0x100000001b3ULL + Stream);
  return R.next();
}

/// Replaces the first \p From at or after \p After in \p Text.
void replaceAfter(std::string &Text, const std::string &After,
                  const std::string &From, const std::string &To) {
  size_t Anchor = Text.find(After);
  size_t At = Anchor == std::string::npos ? Anchor : Text.find(From, Anchor);
  if (At == std::string::npos)
    throw std::logic_error("program template changed: '" + From +
                           "' not found after '" + After + "'");
  Text.replace(At, From.size(), To);
}

/// Single-thread generator corpus, 28 entries per iteration. The new
/// version swaps the two final drain() calls (a reordered block) and
/// changes the value one drain() stores, which runs once per run.
ProgramPair corpusOnDisk(uint64_t Seed) {
  rprism::GeneratorOptions Options;
  Options.NumClasses = 4;
  Options.NumThreads = 1;
  Options.OuterIters = 71429;
  Options.Seed = subSeed(Seed, 1);
  ProgramPair Pair;
  Pair.OldSource = rprism::generateProgram(Options);
  Options.ReorderBlock = true;
  Pair.NewSource = rprism::generateProgram(Options);
  rprism::Rng R(subSeed(Seed, 2));
  std::string Drained = "class Worker" + std::to_string(R.nextBelow(2));
  replaceAfter(Pair.NewSource, Drained + " {", "    this.acc = 0;\n",
               "    this.acc = " + std::to_string(R.nextInRange(1, 9)) +
                   ";\n");
  return Pair;
}

/// The modulus of WorkerN.step() in a generated program.
unsigned stepModulus(const std::string &Source, unsigned Class) {
  size_t At = Source.find("class Worker" + std::to_string(Class) + " {");
  At = At == std::string::npos ? At : Source.find(") % ", At);
  if (At == std::string::npos)
    throw std::logic_error("program template changed: no step() modulus");
  return static_cast<unsigned>(std::stoul(Source.substr(At + 4)));
}

/// The eight-thread generator pair: one worker constant perturbed (so a
/// quarter of the step() results differ on every thread) plus the
/// reordered drain block. 252 entries per iteration.
ProgramPair threadsChurn(uint64_t Seed) {
  rprism::GeneratorOptions Options;
  Options.NumClasses = 4;
  Options.NumThreads = 8;
  Options.OuterIters = 7937;
  Options.Seed = subSeed(Seed, 3);
  ProgramPair Pair;
  Pair.OldSource = rprism::generateProgram(Options);
  // Perturb adds 1000 to the class's addend, which changes nothing when
  // the class's modulus divides 1000; perturb a class where it does not.
  rprism::Rng R(subSeed(Seed, 4));
  unsigned First = static_cast<unsigned>(R.nextBelow(Options.NumClasses));
  for (unsigned I = 0; I != Options.NumClasses && !Options.Perturb; ++I) {
    unsigned Class = (First + I) % Options.NumClasses;
    if (1000 % stepModulus(Pair.OldSource, Class) != 0)
      Options.Perturb = Class + Options.NumClasses;
  }
  if (!Options.Perturb)
    throw std::runtime_error("threads-churn: no worker class to perturb");
  Options.ReorderBlock = true;
  Pair.NewSource = rprism::generateProgram(Options);
  return Pair;
}

/// An allocation-heavy linked structure: every iteration allocates one
/// Item whose `next` chain makes its value representation deep. The new
/// version (a) adds a census() call every 200 iterations, an expected
/// difference on both inputs, and (b) weighs keys >= 1000 wrongly, the
/// regression. Keys stay below 1000 unless the input's spike period
/// (every 400th iteration) pushes one up, so only the regressing input
/// reaches the bug.
const char *ObjectsTemplate = R"PROG(
class Item {
  Int key;
  Str tag;
  Int weight;
  Item next;
  Item(Int key, Str tag, Int weight, Item next) {
    this.key = key;
    this.tag = tag;
    this.weight = weight;
    this.next = next;
  }
}

class Scale {
  Int mul;
  Int add;
  Int mod;
  Scale(Int mul, Int add, Int mod) {
    this.mul = mul;
    this.add = add;
    this.mod = mod;
  }
  Int weigh(Int key) {
@WEIGH@    return (key * this.mul + this.add) % this.mod;
  }
}

class Store {
  Item head;
  Int size;
  Scale scale;
  Store(Scale scale) {
    this.head = null;
    this.size = 0;
    this.scale = scale;
  }
  Int census() { return this.size; }
  Int add(Int key, Int i) {
    var w = this.scale.weigh(key);
    this.head = new Item(key, "t" + strOfInt(key % @TAGS@), w, this.head);
    this.size = this.size + 1;
@CENSUS@    return w;
  }
}

main {
  var n = parseInt(input(0));
  var spike = parseInt(input(1));
  var store = new Store(new Scale(@MUL@, @ADD@, @MOD@));
  var total = 0;
  var key = @KEY0@;
  var i = 0;
  while (i < n) {
    key = (key * @KM@ + @KA@) % 1000;
    var k = key;
    if (spike > 0 && i % spike == @SPIKE_AT@) {
      k = key + 1000;
    }
    total = (total * 31 + store.add(k, i)) % 1000000007;
    i = i + 1;
  }
  print(total);
  print(store.size);
}
)PROG";

void substitute(std::string &Text, const std::string &Hole,
                const std::string &Value) {
  for (size_t At = Text.find(Hole); At != std::string::npos;
       At = Text.find(Hole, At + Value.size()))
    Text.replace(At, Hole.size(), Value);
}

ProgramPair objectsRegress(uint64_t Seed) {
  rprism::Rng R(subSeed(Seed, 5));
  std::string Orig = ObjectsTemplate;
  substitute(Orig, "@TAGS@", std::to_string(R.nextInRange(5, 40)));
  substitute(Orig, "@MUL@", std::to_string(R.nextInRange(3, 9)));
  substitute(Orig, "@ADD@", std::to_string(R.nextInRange(1, 50)));
  substitute(Orig, "@MOD@", std::to_string(R.nextInRange(101, 997)));
  substitute(Orig, "@KEY0@", std::to_string(R.nextInRange(1, 999)));
  substitute(Orig, "@KM@", std::to_string(2 * R.nextInRange(10, 400) + 1));
  substitute(Orig, "@KA@", std::to_string(2 * R.nextInRange(1, 400) + 1));
  // Fixed periods, seeded phases: the amount of difference is the same
  // for every seed.
  substitute(Orig, "@SPIKE_AT@", std::to_string(R.nextBelow(400)));
  std::string CensusAt = std::to_string(R.nextBelow(200));
  std::string New = Orig;
  substitute(Orig, "@WEIGH@", "");
  substitute(Orig, "@CENSUS@", "");
  substitute(New, "@WEIGH@",
             "    if (key >= 1000) {\n"
             "      return (key * this.mul + this.add + 1) % this.mod;\n"
             "    }\n");
  substitute(New, "@CENSUS@",
             "    if (i % 200 == " + CensusAt +
                 ") {\n      this.census();\n    }\n");

  ProgramPair Pair;
  Pair.OldSource = std::move(Orig);
  Pair.NewSource = std::move(New);
  Pair.OkInputs = {"55000", "0"};
  Pair.RegrInputs = {"55000", "400"};
  return Pair;
}

} // namespace

bool perfbench::parseWorkload(const std::string &Name, WorkloadKind &Kind) {
  if (Name == "corpus-ondisk")
    Kind = WorkloadKind::CorpusOnDisk;
  else if (Name == "threads-churn")
    Kind = WorkloadKind::ThreadsChurn;
  else if (Name == "objects-regress")
    Kind = WorkloadKind::ObjectsRegress;
  else
    return false;
  return true;
}

ProgramPair perfbench::makePrograms(WorkloadKind Kind, uint64_t Seed) {
  switch (Kind) {
  case WorkloadKind::CorpusOnDisk:
    return corpusOnDisk(Seed);
  case WorkloadKind::ThreadsChurn:
    return threadsChurn(Seed);
  case WorkloadKind::ObjectsRegress:
    return objectsRegress(Seed);
  }
  throw std::logic_error("unknown workload");
}
