//===- tests/SupportTest.cpp - Support library tests ----------------------===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//

#include "support/Bitset.h"
#include "support/Expected.h"
#include "support/Hashing.h"
#include "support/Histogram.h"
#include "support/MemoryAccountant.h"
#include "support/Rng.h"
#include "support/StringInterner.h"
#include "support/TablePrinter.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <sstream>
#include <stdexcept>
#include <vector>

using namespace rprism;

namespace {

//===----------------------------------------------------------------------===//
// Hashing
//===----------------------------------------------------------------------===//

TEST(Hashing, StableAcrossCalls) {
  EXPECT_EQ(hashString("hello"), hashString("hello"));
  EXPECT_NE(hashString("hello"), hashString("hellp"));
  EXPECT_NE(hashString(""), hashString("\0", 0)); // Seeded identically...
  EXPECT_EQ(hashString(""), HashInit); // ...empty input returns the seed.
}

TEST(Hashing, MixSpreadsSmallDeltas) {
  // Consecutive integers must not produce consecutive hashes (bucket
  // clustering would break hash maps keyed on them).
  uint64_t A = hashMix(HashInit, 1);
  uint64_t B = hashMix(HashInit, 2);
  EXPECT_NE(A + 1, B);
  EXPECT_NE(A, B);
}

TEST(Hashing, UnmixInvertsMix) {
  Rng R(20261018);
  for (uint64_t Seed : {uint64_t{0}, uint64_t{0x33}, HashInit, ~uint64_t{0}}) {
    for (uint64_t V : {uint64_t{0}, uint64_t{1}, ~uint64_t{0},
                       uint64_t{1} << 63})
      EXPECT_EQ(hashUnmix(Seed, hashMix(Seed, V)), V);
    for (int I = 0; I != 10000; ++I) {
      uint64_t V = R.next();
      ASSERT_EQ(hashUnmix(Seed, hashMix(Seed, V)), V) << Seed << " " << V;
    }
  }
}

TEST(Hashing, CombineIsOrderSensitive) {
  EXPECT_NE(hashCombine(1, 2), hashCombine(2, 1));
  EXPECT_NE(hashCombine(1, 2, 3), hashCombine(1, 2));
  EXPECT_EQ(hashCombine(7, 8, 9), hashCombine(7, 8, 9));
}

TEST(Hashing, DoubleHashUsesBitPattern) {
  EXPECT_EQ(hashDouble(1.0), hashDouble(1.0));
  EXPECT_NE(hashDouble(1.0), hashDouble(-1.0));
  EXPECT_NE(hashDouble(0.0), hashDouble(1.0));
}

TEST(Hashing, BytesMatchStringView) {
  const char Data[] = {'a', 'b', 'c'};
  EXPECT_EQ(hashBytes(Data, 3), hashString("abc"));
}

/// Deterministic filler for the checksum tests: byte I is I * 131 + 7.
std::vector<unsigned char> checksumPattern(size_t Size) {
  std::vector<unsigned char> Bytes(Size);
  for (size_t I = 0; I != Size; ++I)
    Bytes[I] = static_cast<unsigned char>(I * 131 + 7);
  return Bytes;
}

TEST(Hashing, ChecksumKnownAnswers) {
  // Trace files store these values: a change here is a format change and
  // needs a trace version bump, not a new table.
  const std::pair<size_t, uint64_t> Answers[] = {
      {0, 0x21bd5552c52713f4ULL},    {1, 0xe009cf2b47afebfaULL},
      {7, 0x3cb168dec8015421ULL},    {31, 0x876ba60e03d02f01ULL},
      {32, 0x628607f89c7b60e7ULL},   {33, 0xce9ecb7e575d6600ULL},
      {64, 0x589b24850d48a62eULL},   {1000, 0x978a8603b6b3c922ULL},
  };
  std::vector<unsigned char> Bytes = checksumPattern(1000);
  for (const auto &[Size, Want] : Answers)
    EXPECT_EQ(checksumBytes(Bytes.data(), Size), Want) << "length " << Size;
}

TEST(Hashing, ChecksumSeesEverySingleBitFlip) {
  // 257 bytes: eight full 32-byte blocks plus a one-byte tail.
  std::vector<unsigned char> Bytes = checksumPattern(257);
  uint64_t Clean = checksumBytes(Bytes.data(), Bytes.size());
  for (size_t Bit = 0; Bit != Bytes.size() * 8; ++Bit) {
    Bytes[Bit / 8] ^= static_cast<unsigned char>(1u << (Bit % 8));
    EXPECT_NE(checksumBytes(Bytes.data(), Bytes.size()), Clean)
        << "bit " << Bit;
    Bytes[Bit / 8] ^= static_cast<unsigned char>(1u << (Bit % 8));
  }
}

TEST(Hashing, ChecksumTopBitFlipsInOneLaneDoNotCancel) {
  // Words 0 and 4 both feed lane 0 (consecutive 32-byte blocks). Under a
  // lane-wise (acc ^ word) * odd hash, flipping bit 63 of both cancels:
  // the first flip adds 2^63 to the product, the second xors it away.
  std::vector<unsigned char> Bytes = checksumPattern(64);
  uint64_t Clean = checksumBytes(Bytes.data(), Bytes.size());
  Bytes[7] ^= 0x80;  // Bit 63 of word 0 (little-endian).
  Bytes[39] ^= 0x80; // Bit 63 of word 4.
  EXPECT_NE(checksumBytes(Bytes.data(), Bytes.size()), Clean);
}

TEST(Hashing, ChecksumIgnoresAlignment) {
  std::vector<unsigned char> Aligned = checksumPattern(1000);
  std::vector<unsigned char> Shifted(Aligned.size() + 1);
  std::copy(Aligned.begin(), Aligned.end(), Shifted.begin() + 1);
  ASSERT_NE(reinterpret_cast<uintptr_t>(Shifted.data() + 1) % 2, 0u);
  EXPECT_EQ(checksumBytes(Shifted.data() + 1, Aligned.size()),
            checksumBytes(Aligned.data(), Aligned.size()));
}

//===----------------------------------------------------------------------===//
// StringInterner
//===----------------------------------------------------------------------===//

TEST(StringInterner, EmptyStringIsSymbolZero) {
  StringInterner Interner;
  EXPECT_EQ(Interner.intern("").Id, 0u);
  EXPECT_TRUE(Symbol{}.empty());
  EXPECT_EQ(Interner.text(Symbol{}), "");
}

TEST(StringInterner, InterningIsIdempotent) {
  StringInterner Interner;
  Symbol A = Interner.intern("alpha");
  Symbol B = Interner.intern("beta");
  EXPECT_NE(A, B);
  EXPECT_EQ(Interner.intern("alpha"), A);
  EXPECT_EQ(Interner.text(A), "alpha");
  EXPECT_EQ(Interner.text(B), "beta");
  EXPECT_EQ(Interner.size(), 3u); // Empty + alpha + beta.
}

TEST(StringInterner, ManySymbolsStayStable) {
  // 2,000 strings take the index from its first size through several
  // doublings.
  StringInterner Interner;
  std::vector<Symbol> Symbols;
  std::vector<const std::string *> Texts;
  for (int I = 0; I != 2000; ++I) {
    Symbols.push_back(Interner.intern("sym-" + std::to_string(I)));
    Texts.push_back(&Interner.text(Symbols.back()));
    EXPECT_EQ(Symbols.back().Id, static_cast<uint32_t>(I + 1)); // First sight.
  }
  // References handed out earlier stay valid, in place and correct after
  // growth.
  for (int I = 0; I != 2000; ++I) {
    EXPECT_EQ(&Interner.text(Symbols[I]), Texts[I]);
    EXPECT_EQ(Interner.text(Symbols[I]), "sym-" + std::to_string(I));
  }
  // Re-interning yields identical ids.
  for (int I = 0; I != 2000; ++I)
    EXPECT_EQ(Interner.intern("sym-" + std::to_string(I)), Symbols[I]);
}

TEST(StringInterner, EmbeddedNulsAndSharedPrefixesStayDistinct) {
  StringInterner Interner;
  using namespace std::string_literals;
  const std::vector<std::string> Keys = {
      "a"s,     "a\0"s,   "a\0\0"s, "\0"s,    "\0\0"s, "a\0b"s,
      "a\0c"s, "ab"s,     "abc"s,   "abcd"s, "abcdefgh"s,
      "abcdefghi"s, std::string(40, 'x'), std::string(40, 'x') + "y"s,
      std::string(40, 'x') + "\0"s};
  std::vector<Symbol> Symbols;
  for (const std::string &Key : Keys)
    Symbols.push_back(Interner.intern(Key));
  EXPECT_EQ(Interner.size(), Keys.size() + 1);
  for (size_t I = 0; I != Keys.size(); ++I) {
    EXPECT_EQ(Interner.text(Symbols[I]), Keys[I]);
    EXPECT_EQ(Interner.intern(Keys[I]), Symbols[I]);
  }
  EXPECT_EQ(Interner.intern("").Id, 0u);
}

//===----------------------------------------------------------------------===//
// Rng
//===----------------------------------------------------------------------===//

TEST(Rng, DeterministicPerSeed) {
  Rng A(123);
  Rng B(123);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());
  Rng C(124);
  EXPECT_NE(Rng(123).next(), C.next());
}

TEST(Rng, BoundsRespected) {
  Rng R(7);
  for (int I = 0; I != 1000; ++I) {
    EXPECT_LT(R.nextBelow(10), 10u);
    int64_t V = R.nextInRange(-5, 5);
    EXPECT_GE(V, -5);
    EXPECT_LE(V, 5);
    double D = R.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(Rng, RangeCoversEndpoints) {
  Rng R(99);
  std::set<int64_t> Seen;
  for (int I = 0; I != 200; ++I)
    Seen.insert(R.nextInRange(0, 3));
  EXPECT_EQ(Seen.size(), 4u);
}

TEST(Rng, BernoulliRoughlyCalibrated) {
  Rng R(5);
  int Hits = 0;
  for (int I = 0; I != 10000; ++I)
    Hits += R.nextBool(0.25);
  EXPECT_NEAR(Hits / 10000.0, 0.25, 0.02);
}

//===----------------------------------------------------------------------===//
// Bitset
//===----------------------------------------------------------------------===//

/// Positions on either side of the word boundaries of a 200-bit set (not a
/// multiple of 64), plus both ends.
const size_t BitPositions[] = {0,   1,   62,  63,  64,  65,  127,
                               128, 129, 191, 192, 193, 199, 200};

/// Checks \p B bit by bit against \p Ref, and its count.
void expectBits(const Bitset &B, const std::vector<bool> &Ref) {
  ASSERT_EQ(B.size(), Ref.size());
  size_t Set = 0;
  for (size_t I = 0; I != Ref.size(); ++I) {
    EXPECT_EQ(B[I], Ref[I]) << "bit " << I;
    Set += Ref[I];
  }
  EXPECT_EQ(B.count(), Set);
}

TEST(Bitset, SetAndSetRangeAcrossWordBoundaries) {
  for (size_t Begin : BitPositions) {
    for (size_t End : BitPositions) {
      if (End < Begin)
        continue;
      Bitset B;
      B.assign(200);
      B.setRange(Begin, End);
      std::vector<bool> Ref(200, false);
      for (size_t I = Begin; I != End; ++I)
        Ref[I] = true;
      SCOPED_TRACE("range [" + std::to_string(Begin) + ", " +
                   std::to_string(End) + ")");
      expectBits(B, Ref);
    }
  }

  Bitset B;
  B.assign(200);
  std::vector<bool> Ref(200, false);
  for (size_t I : {0, 63, 64, 127, 128, 199}) {
    B.set(I);
    Ref[I] = true;
  }
  expectBits(B, Ref);
}

TEST(Bitset, OrWithIsTheUnion) {
  Rng R(3);
  Bitset A, B;
  A.assign(130);
  B.assign(130);
  std::vector<bool> Ref(130, false);
  for (size_t I = 0; I != 130; ++I) {
    bool InA = R.nextBool(0.3), InB = R.nextBool(0.3);
    if (InA)
      A.set(I);
    if (InB)
      B.set(I);
    Ref[I] = InA || InB;
  }
  A.orWith(B);
  expectBits(A, Ref);
}

TEST(Bitset, TailBitsStayZero) {
  // A range up to size() and bit-by-bit sets give equal sets; neither
  // touches the 58 tail bits of the last word, which count() and
  // forEachClear() would otherwise see.
  Bitset Ranged, Bits;
  Ranged.assign(70);
  Ranged.setRange(0, 70);
  Bits.assign(70);
  for (size_t I = 0; I != 70; ++I)
    Bits.set(I);
  EXPECT_EQ(Ranged.count(), 70u);
  EXPECT_EQ(Ranged, Bits);
  Ranged.forEachClear([](size_t I) { ADD_FAILURE() << "bit " << I; });

  Bitset Shorter;
  Shorter.assign(69);
  Shorter.setRange(0, 69);
  EXPECT_FALSE(Ranged == Shorter);
  Bits.assign(70); // Clears every bit.
  EXPECT_EQ(Bits.count(), 0u);
  EXPECT_FALSE(Ranged == Bits);
}

TEST(Bitset, ForEachClearVisitsClearBitsInOrder) {
  Bitset B;
  B.assign(200);
  B.setRange(3, 150);
  B.set(198);
  std::vector<size_t> Clear;
  B.forEachClear([&](size_t I) { Clear.push_back(I); });
  std::vector<size_t> Ref;
  for (size_t I = 0; I != 200; ++I)
    if (!B[I])
      Ref.push_back(I);
  EXPECT_EQ(Clear, Ref);
  EXPECT_EQ(Clear.size(), 200 - B.count());
}

//===----------------------------------------------------------------------===//
// MemoryAccountant
//===----------------------------------------------------------------------===//

TEST(MemoryAccountant, TracksCurrentAndPeak) {
  MemoryAccountant Mem;
  EXPECT_TRUE(Mem.charge(100));
  EXPECT_TRUE(Mem.charge(50));
  EXPECT_EQ(Mem.currentBytes(), 150u);
  Mem.release(120);
  EXPECT_EQ(Mem.currentBytes(), 30u);
  EXPECT_EQ(Mem.peakBytes(), 150u);
  EXPECT_FALSE(Mem.exhausted());
}

TEST(MemoryAccountant, CapTriggersExhaustion) {
  MemoryAccountant Mem(/*CapBytes=*/200);
  EXPECT_TRUE(Mem.charge(150));
  EXPECT_FALSE(Mem.charge(100)); // 250 > 200.
  EXPECT_TRUE(Mem.exhausted());
  // The attempted high-water mark is still recorded.
  EXPECT_EQ(Mem.peakBytes(), 250u);
}

TEST(MemoryAccountant, ReleaseClampsAtZero) {
  MemoryAccountant Mem;
  Mem.charge(10);
#ifdef NDEBUG
  // Release builds clamp and count the drift.
  Mem.release(100);
  EXPECT_EQ(Mem.currentBytes(), 0u);
  EXPECT_EQ(Mem.underflows(), 1u);
#else
  // Debug builds stop at the assert.
  EXPECT_DEATH(Mem.release(100), "release underflow");
#endif
}

TEST(MemoryAccountant, UncappedNeverExhausts) {
  MemoryAccountant Mem(0);
  EXPECT_TRUE(Mem.charge(uint64_t{1} << 60));
  EXPECT_FALSE(Mem.exhausted());
}

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

TEST(Histogram, ValuesFallIntoFirstCoveringBucket) {
  Histogram H({1.0, 2.0, 5.0}, {"1", "2", "5"});
  H.add(0.5); // <= 1.
  H.add(1.0); // <= 1 (inclusive).
  H.add(1.5); // <= 2.
  H.add(4.0); // <= 5.
  H.add(99);  // Above all bounds: clamped into the last bucket.
  EXPECT_EQ(H.count(0), 2u);
  EXPECT_EQ(H.count(1), 1u);
  EXPECT_EQ(H.count(2), 2u);
}

TEST(Histogram, PaperBucketsMatchFig14) {
  Histogram Accuracy = makeAccuracyHistogram();
  EXPECT_EQ(Accuracy.numBuckets(), 7u);
  Accuracy.add(0.995); // 99% bucket... (0.995 <= 1.00, second bucket).
  Accuracy.add(0.985); // <= 0.99: first bucket.
  EXPECT_EQ(Accuracy.count(0), 1u);
  EXPECT_EQ(Accuracy.count(1), 1u);

  Histogram Speedup = makeSpeedupHistogram();
  EXPECT_EQ(Speedup.numBuckets(), 10u);
  Speedup.add(0.3);  // 0.5x bucket.
  Speedup.add(80);   // 100x bucket.
  Speedup.add(3000); // 5000x bucket.
  EXPECT_EQ(Speedup.count(0), 1u);
  EXPECT_EQ(Speedup.count(5), 1u);
  EXPECT_EQ(Speedup.count(9), 1u);
}

TEST(Histogram, PrintShowsCountsAndBars) {
  Histogram H({1.0}, {"one"});
  H.add(0.5);
  H.add(0.7);
  std::ostringstream OS;
  H.print(OS, "title");
  EXPECT_NE(OS.str().find("title"), std::string::npos);
  EXPECT_NE(OS.str().find("one"), std::string::npos);
  EXPECT_NE(OS.str().find("2 ##"), std::string::npos);
}

TEST(Histogram, PrintScalesLargeBucketsToFixedWidth) {
  Histogram H({1.0, 2.0, 3.0}, {"one", "two", "three"});
  for (unsigned I = 0; I != 195000; ++I)
    H.add(0.5);
  H.add(1.5);
  std::ostringstream OS;
  H.print(OS, "title");
  std::istringstream Lines(OS.str());
  std::string Line;
  std::vector<std::string> Rows;
  while (std::getline(Lines, Line)) {
    EXPECT_LT(Line.size(), 200u) << Line.substr(0, 80);
    Rows.push_back(Line);
  }
  ASSERT_EQ(Rows.size(), 4u);
  // The exact count is printed; the largest bar is MaxBarWidth wide, a
  // one-count bucket still shows one '#', and an empty bucket none.
  EXPECT_NE(Rows[1].find("| 195000 " +
                         std::string(Histogram::MaxBarWidth, '#')),
            std::string::npos);
  EXPECT_NE(Rows[2].find("| 1 #"), std::string::npos);
  EXPECT_EQ(Rows[3].find('#'), std::string::npos);
}

//===----------------------------------------------------------------------===//
// TablePrinter
//===----------------------------------------------------------------------===//

TEST(TablePrinter, AlignsColumns) {
  TablePrinter Table;
  Table.setHeader({"name", "value"});
  Table.addRow({"x", "1"});
  Table.addRow({"longer-name", "22"});
  std::ostringstream OS;
  Table.print(OS);
  std::string Out = OS.str();
  // All rows have the same width up to trailing spaces.
  EXPECT_NE(Out.find("longer-name"), std::string::npos);
  EXPECT_NE(Out.find("name"), std::string::npos);
  // Separator line present.
  EXPECT_NE(Out.find("----"), std::string::npos);
}

TEST(TablePrinter, RaggedRowsArePadded) {
  TablePrinter Table;
  Table.setHeader({"a", "b", "c"});
  Table.addRow({"1"});
  std::ostringstream OS;
  Table.print(OS);
  SUCCEED(); // Must not crash; visual padding checked above.
}

TEST(TablePrinter, NumberFormatting) {
  EXPECT_EQ(TablePrinter::fmtInt(0), "0");
  EXPECT_EQ(TablePrinter::fmtInt(999), "999");
  EXPECT_EQ(TablePrinter::fmtInt(1000), "1,000");
  EXPECT_EQ(TablePrinter::fmtInt(125562), "125,562");
  EXPECT_EQ(TablePrinter::fmtInt(1234567890), "1,234,567,890");
  EXPECT_EQ(TablePrinter::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::fmt(2.0, 0), "2");
}

//===----------------------------------------------------------------------===//
// Expected / Err
//===----------------------------------------------------------------------===//

TEST(Expected, HoldsValueOrError) {
  Expected<int> Good(42);
  ASSERT_TRUE(bool(Good));
  EXPECT_EQ(*Good, 42);
  EXPECT_EQ(Good.take(), 42);

  Expected<int> Bad(makeErr("boom", 3, 7));
  ASSERT_FALSE(bool(Bad));
  EXPECT_EQ(Bad.error().Message, "boom");
  EXPECT_EQ(Bad.error().render(), "3:7: boom");
}

TEST(Expected, ErrWithoutPositionRendersBareMessage) {
  EXPECT_EQ(makeErr("just text").render(), "just text");
}

TEST(Expected, WorksWithMoveOnlyTypes) {
  Expected<std::unique_ptr<int>> Val(std::make_unique<int>(5));
  ASSERT_TRUE(bool(Val));
  std::unique_ptr<int> Taken = Val.take();
  EXPECT_EQ(*Taken, 5);
}

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST(ThreadPool, ZeroAndOneThreadsRunInline) {
  for (unsigned N : {0u, 1u}) {
    ThreadPool Pool(N);
    EXPECT_EQ(Pool.numWorkers(), 0u);
    EXPECT_EQ(Pool.concurrency(), 1u);
    // Inline tasks run at submit time, in submission order.
    std::vector<int> Order;
    Pool.submit([&] { Order.push_back(1); });
    EXPECT_EQ(Order.size(), 1u);
    Pool.submit([&] { Order.push_back(2); });
    Pool.wait();
    EXPECT_EQ(Order, (std::vector<int>{1, 2}));
  }
}

TEST(ThreadPool, ManyWorkersRunEveryTask) {
  ThreadPool Pool(4);
  EXPECT_EQ(Pool.numWorkers(), 4u);
  std::atomic<int> Count{0};
  for (int I = 0; I != 100; ++I)
    Pool.submit([&Count] { Count.fetch_add(1); });
  Pool.wait();
  EXPECT_EQ(Count.load(), 100);
  // The pool is reusable after a wait().
  Pool.submit([&Count] { Count.fetch_add(1); });
  Pool.wait();
  EXPECT_EQ(Count.load(), 101);
}

TEST(ThreadPool, ExceptionPropagatesFromWait) {
  for (unsigned N : {1u, 4u}) {
    ThreadPool Pool(N);
    std::atomic<int> Ran{0};
    Pool.submit([] { throw std::runtime_error("task failed"); });
    for (int I = 0; I != 8; ++I)
      Pool.submit([&Ran] { Ran.fetch_add(1); });
    EXPECT_THROW(Pool.wait(), std::runtime_error);
    // Remaining tasks still ran; the error does not poison later waits.
    EXPECT_EQ(Ran.load(), 8);
    Pool.submit([&Ran] { Ran.fetch_add(1); });
    Pool.wait();
    EXPECT_EQ(Ran.load(), 9);
  }
}

TEST(ThreadPool, DefaultConcurrencyIsPositive) {
  EXPECT_GE(ThreadPool::defaultConcurrency(), 1u);
}

} // namespace
