#include "util/stats.h"

#include <algorithm>
#include <cmath>

namespace strg {

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double StdDev(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  double m = Mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return std::sqrt(s / static_cast<double>(xs.size()));
}

double Median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  size_t n = xs.size();
  if (n % 2 == 1) return xs[n / 2];
  return 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double Percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const size_t rank = static_cast<size_t>(
      p / 100.0 * static_cast<double>(xs.size() - 1) + 0.5);
  return xs[std::min(rank, xs.size() - 1)];
}

PrecisionRecall ComputePrecisionRecall(size_t relevant_retrieved,
                                       size_t total_retrieved,
                                       size_t total_relevant) {
  PrecisionRecall pr;
  if (total_retrieved > 0) {
    pr.precision = static_cast<double>(relevant_retrieved) /
                   static_cast<double>(total_retrieved);
  }
  if (total_relevant > 0) {
    pr.recall = static_cast<double>(relevant_retrieved) /
                static_cast<double>(total_relevant);
  }
  return pr;
}

}  // namespace strg
