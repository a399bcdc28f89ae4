//===- robustness/FaultInjector.cpp ---------------------------------------===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//

#include "robustness/FaultInjector.h"

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <vector>

using namespace rprism;

const char *rprism::faultSiteName(FaultSite Site) {
  switch (Site) {
  case FaultSite::FileOpen:
    return "file-open";
  case FaultSite::FileRead:
    return "file-read";
  case FaultSite::FileMmap:
    return "file-mmap";
  case FaultSite::SectionChecksum:
    return "section-checksum";
  case FaultSite::ViewIndexBorrow:
    return "view-index-borrow";
  case FaultSite::PoolDispatch:
    return "pool-dispatch";
  }
  return "unknown";
}

FaultInjector &FaultInjector::get() {
  static FaultInjector Instance;
  return Instance;
}

void FaultInjector::arm(uint64_t NewSeed) {
  Armed.store(false, std::memory_order_relaxed);
  Seed = NewSeed;
  StallMicros = 50;
  for (SiteState &S : Sites) {
    S.Occurrences.store(0, std::memory_order_relaxed);
    S.Injected.store(0, std::memory_order_relaxed);
    S.Probability = 0.0;
    S.OneShotAt = -1;
  }
  Armed.store(true, std::memory_order_relaxed);
}

void FaultInjector::disarm() {
  Armed.store(false, std::memory_order_relaxed);
  for (SiteState &S : Sites) {
    S.Probability = 0.0;
    S.OneShotAt = -1;
  }
}

void FaultInjector::configure(FaultSite Site, double Probability,
                              int64_t OneShotAt) {
  SiteState &S = Sites[static_cast<unsigned>(Site)];
  S.Probability = Probability;
  S.OneShotAt = OneShotAt;
}

uint64_t FaultInjector::occurrences(FaultSite Site) const {
  return Sites[static_cast<unsigned>(Site)].Occurrences.load(
      std::memory_order_relaxed);
}

uint64_t FaultInjector::injected(FaultSite Site) const {
  return Sites[static_cast<unsigned>(Site)].Injected.load(
      std::memory_order_relaxed);
}

uint64_t FaultInjector::decisionHash(FaultSite Site,
                                     uint64_t Occurrence) const {
  // splitmix64 over (seed, site, occurrence); self-contained so this
  // library needs no dependencies.
  uint64_t X = Seed ^ (uint64_t{static_cast<unsigned>(Site)} << 56) ^
               (Occurrence * 0x9e3779b97f4a7c15ull);
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

bool FaultInjector::fireSlow(FaultSite Site) {
  SiteState &S = Sites[static_cast<unsigned>(Site)];
  uint64_t N = S.Occurrences.fetch_add(1, std::memory_order_relaxed);
  bool Hit = S.OneShotAt >= 0 && N == static_cast<uint64_t>(S.OneShotAt);
  if (!Hit && S.Probability > 0.0) {
    // Top 53 bits as a uniform double in [0, 1).
    double U = static_cast<double>(decisionHash(Site, N) >> 11) *
               (1.0 / 9007199254740992.0);
    Hit = U < S.Probability;
  }
  if (Hit)
    S.Injected.fetch_add(1, std::memory_order_relaxed);
  return Hit;
}

bool FaultInjector::corruptSlow(FaultSite Site, void *Data, size_t Size) {
  if (Size == 0 || !fireSlow(Site))
    return false;
  SiteState &S = Sites[static_cast<unsigned>(Site)];
  uint64_t N = S.Occurrences.load(std::memory_order_relaxed);
  uint64_t H = decisionHash(Site, N + 0x517cc1b727220a95ull);
  size_t ByteIndex = static_cast<size_t>(H % Size);
  unsigned Bit = static_cast<unsigned>((H >> 32) % 8);
  static_cast<uint8_t *>(Data)[ByteIndex] ^= uint8_t{1} << Bit;
  return true;
}

void FaultInjector::stallSlow(FaultSite Site) {
  if (!fireSlow(Site))
    return;
  std::this_thread::sleep_for(std::chrono::microseconds(StallMicros));
}

bool FaultInjector::armFromSpec(const std::string &Spec, std::string *Error) {
  auto Fail = [&](const std::string &Message) {
    if (Error)
      *Error = Message;
    return false;
  };

  // Parse everything before touching state: a malformed spec must not
  // leave the injector half-armed.
  uint64_t NewSeed = 0;
  int64_t NewStall = -1;
  struct Clause {
    FaultSite Site;
    double Probability;
    int64_t OneShotAt;
  };
  std::vector<Clause> Clauses;

  size_t Pos = 0;
  while (Pos < Spec.size()) {
    size_t End = Spec.find(',', Pos);
    if (End == std::string::npos)
      End = Spec.size();
    std::string Part = Spec.substr(Pos, End - Pos);
    Pos = End + 1;
    if (Part.empty())
      continue;

    auto ParseU64 = [&Fail](const std::string &Text, const char *What,
                            uint64_t &Out) {
      char *EndPtr = nullptr;
      errno = 0;
      unsigned long long V = std::strtoull(Text.c_str(), &EndPtr, 10);
      if (Text.empty() || *EndPtr || errno)
        return Fail(std::string("fault-spec: bad ") + What + " '" + Text +
                    "'");
      Out = V;
      return true;
    };

    if (Part.rfind("seed=", 0) == 0) {
      if (!ParseU64(Part.substr(5), "seed", NewSeed))
        return false;
      continue;
    }
    if (Part.rfind("stall=", 0) == 0) {
      uint64_t Micros = 0;
      if (!ParseU64(Part.substr(6), "stall", Micros))
        return false;
      NewStall = static_cast<int64_t>(Micros);
      continue;
    }

    size_t Colon = Part.find(':');
    if (Colon == std::string::npos)
      return Fail("fault-spec: clause '" + Part +
                  "' is not seed=, stall=, or <site>:<prob>[@N]");
    std::string SiteName = Part.substr(0, Colon);
    std::string Rest = Part.substr(Colon + 1);

    int SiteIndex = -1;
    for (unsigned I = 0; I != NumFaultSites; ++I)
      if (SiteName == faultSiteName(static_cast<FaultSite>(I))) {
        SiteIndex = static_cast<int>(I);
        break;
      }
    if (SiteIndex < 0)
      return Fail("fault-spec: unknown site '" + SiteName + "'");

    int64_t OneShotAt = -1;
    size_t At = Rest.find('@');
    if (At != std::string::npos) {
      uint64_t N = 0;
      if (!ParseU64(Rest.substr(At + 1), "occurrence", N))
        return false;
      OneShotAt = static_cast<int64_t>(N);
      Rest = Rest.substr(0, At);
    }

    char *EndPtr = nullptr;
    errno = 0;
    double Probability = std::strtod(Rest.c_str(), &EndPtr);
    if (Rest.empty() || *EndPtr || errno || Probability < 0.0 ||
        Probability > 1.0)
      return Fail("fault-spec: probability '" + Rest +
                  "' is not a number in [0, 1]");
    Clauses.push_back(
        {static_cast<FaultSite>(SiteIndex), Probability, OneShotAt});
  }

  arm(NewSeed);
  if (NewStall >= 0)
    setStallMicros(static_cast<unsigned>(NewStall));
  for (const Clause &C : Clauses)
    configure(C.Site, C.Probability, C.OneShotAt);
  return true;
}
