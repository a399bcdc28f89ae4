//===- support/Histogram.cpp ----------------------------------------------===//

#include "support/Histogram.h"

#include <cassert>

using namespace rprism;

Histogram::Histogram(std::vector<double> BoundsIn,
                     std::vector<std::string> LabelsIn)
    : Bounds(std::move(BoundsIn)), Labels(std::move(LabelsIn)),
      Counts(Bounds.size(), 0) {
  assert(Bounds.size() == Labels.size() && "labels must parallel bounds");
  for (size_t I = 1; I < Bounds.size(); ++I)
    assert(Bounds[I - 1] < Bounds[I] && "bounds must ascend");
}

void Histogram::add(double Value) {
  for (size_t I = 0; I != Bounds.size(); ++I) {
    if (Value <= Bounds[I]) {
      ++Counts[I];
      return;
    }
  }
  // Above the last bound: clamp into the final bucket, like the paper's
  // open-ended rightmost bar.
  ++Counts.back();
}

void Histogram::print(std::ostream &OS, const std::string &Title) const {
  OS << Title << '\n';
  size_t LabelWidth = 0;
  for (const auto &L : Labels)
    LabelWidth = L.size() > LabelWidth ? L.size() : LabelWidth;
  uint64_t Largest = 0;
  for (unsigned C : Counts)
    Largest = C > Largest ? C : Largest;
  for (size_t I = 0; I != Counts.size(); ++I) {
    uint64_t Bar = Counts[I];
    if (Largest > MaxBarWidth && Bar != 0) {
      Bar = (Bar * MaxBarWidth + Largest / 2) / Largest;
      Bar = Bar ? Bar : 1;
    }
    OS << "  " << Labels[I]
       << std::string(LabelWidth - Labels[I].size(), ' ') << " | "
       << Counts[I] << ' ' << std::string(Bar, '#') << '\n';
  }
}

uint64_t Histogram::total() const {
  uint64_t Sum = 0;
  for (unsigned C : Counts)
    Sum += C;
  return Sum;
}

double Histogram::quantile(double Q) const {
  uint64_t Total = total();
  if (Total == 0)
    return 0;
  if (Q < 0)
    Q = 0;
  if (Q > 1)
    Q = 1;
  // Smallest rank that covers Q of the distribution (ceiling, min 1).
  uint64_t Rank = static_cast<uint64_t>(Q * static_cast<double>(Total));
  if (static_cast<double>(Rank) < Q * static_cast<double>(Total) || Rank == 0)
    ++Rank;
  uint64_t Cumulative = 0;
  for (size_t I = 0; I != Counts.size(); ++I) {
    Cumulative += Counts[I];
    if (Cumulative >= Rank)
      return Bounds[I];
  }
  return Bounds.back();
}

bool Histogram::merge(const Histogram &Other) {
  assert(Bounds == Other.Bounds && "histogram shapes must match to merge");
  if (Bounds != Other.Bounds)
    return false;
  for (size_t I = 0; I != Counts.size(); ++I)
    Counts[I] += Other.Counts[I];
  return true;
}

Histogram rprism::makeAccuracyHistogram() {
  return Histogram({0.99, 1.00, 1.05, 1.10, 1.25, 1.50, 2.00},
                   {"99%", "100%", "105%", "110%", "125%", "150%", "200%"});
}

Histogram rprism::makeSpeedupHistogram() {
  return Histogram({0.5, 1, 5, 10, 50, 100, 500, 1000, 2500, 5000},
                   {"0.5x", "1x", "5x", "10x", "50x", "100x", "500x",
                    "1000x", "2500x", "5000x"});
}

Histogram rprism::makePow2Histogram() {
  std::vector<double> Bounds;
  std::vector<std::string> Labels;
  for (unsigned Exp = 0; Exp <= 20; ++Exp) {
    uint64_t Bound = uint64_t{1} << Exp;
    Bounds.push_back(static_cast<double>(Bound));
    Labels.push_back(std::to_string(Bound));
  }
  return Histogram(std::move(Bounds), std::move(Labels));
}
