#ifndef STRG_UTIL_STATS_H_
#define STRG_UTIL_STATS_H_

#include <cstddef>
#include <vector>

namespace strg {

/// Arithmetic mean; 0 for an empty input.
double Mean(const std::vector<double>& xs);

/// Population standard deviation; 0 for fewer than two samples.
double StdDev(const std::vector<double>& xs);

/// Median (averages the two central elements for even sizes).
double Median(std::vector<double> xs);

/// p-th percentile, p in [0, 100]: the sorted sample at rank
/// round(p/100 * (n - 1)), clamped to the last; 0 for an empty input.
double Percentile(std::vector<double> xs, double p);

/// Precision / recall pair for a retrieval result.
struct PrecisionRecall {
  double precision = 0.0;
  double recall = 0.0;
};

/// Computes precision and recall given the number of relevant items
/// retrieved, the total retrieved, and the total relevant in the database.
PrecisionRecall ComputePrecisionRecall(size_t relevant_retrieved,
                                       size_t total_retrieved,
                                       size_t total_relevant);

}  // namespace strg

#endif  // STRG_UTIL_STATS_H_
