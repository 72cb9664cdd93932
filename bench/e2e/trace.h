// In-memory span store and sample statistics for the end-to-end benchmark.
//
// The traced run records one span per layer boundary the benchmark can see
// from outside the program (request, Submit, wait, write, PushFrame,
// Finish, AddVideo / AddObjectGraph) plus the shadow re-executions. Spans
// stay in memory and are written out once, after the measured window.

#ifndef STRG_BENCH_E2E_TRACE_H_
#define STRG_BENCH_E2E_TRACE_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "util/sync.h"

namespace strg::e2e {

using Clock = std::chrono::steady_clock;

inline int64_t ToNs(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  ///< static string: "<layer>.<what>"
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 = root
  uint64_t request = 0;  ///< shared by every span of one request
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Work counted at this boundary (shadow reads: DP evaluations, cascade
  /// prunes, abandoned DPs).
  uint64_t counts[3] = {0, 0, 0};

  double Micros() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

class Tracer {
 public:
  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  void Record(const Span& span) STRG_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    spans_.push_back(span);
  }

  /// Records a child span of `request` and returns its id.
  uint64_t Child(const char* name, uint64_t request, Clock::time_point start,
                 Clock::time_point end) {
    Span s;
    s.name = name;
    s.id = NewId();
    s.parent = request;
    s.request = request;
    s.start_ns = ToNs(start);
    s.end_ns = ToNs(end);
    Record(s);
    return s.id;
  }

  /// Call once every recording thread has been joined.
  std::vector<Span> Take() STRG_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return std::move(spans_);
  }

 private:
  std::atomic<uint64_t> next_id_{1};
  Mutex mu_{LockRank::kUnranked};
  std::vector<Span> spans_ STRG_GUARDED_BY(mu_);
};

/// Writes spans as compact rows [name, id, parent, request, start_us,
/// end_us, c0, c1, c2], times relative to `origin`.
inline bool WriteTraceJson(const std::string& path, const std::string& header,
                           const std::vector<Span>& spans,
                           Clock::time_point origin) {
  std::ofstream out(path);
  if (!out) return false;
  const int64_t o = ToNs(origin);
  out << "{" << header << ",\"columns\":[\"name\",\"id\",\"parent\","
      << "\"request\",\"start_us\",\"end_us\",\"c0\",\"c1\",\"c2\"],"
      << "\"spans\":[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i == 0 ? "" : ",") << "[\"" << s.name << "\"," << s.id << ","
        << s.parent << "," << s.request << ","
        << static_cast<double>(s.start_ns - o) / 1e3 << ","
        << static_cast<double>(s.end_ns - o) / 1e3 << "," << s.counts[0]
        << "," << s.counts[1] << "," << s.counts[2] << "]";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

/// Nearest-rank percentile, p in (0, 100]; 0 for an empty sample.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

inline double Median(std::vector<double> v) {
  return Percentile(std::move(v), 50.0);
}

/// Samples lying beyond the p-th percentile: the guide's "at least ten
/// samples beyond it" support test.
inline size_t SamplesBeyond(size_t n, double p) {
  return static_cast<size_t>(std::floor(static_cast<double>(n) *
                                        (100.0 - p) / 100.0));
}

inline double Ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

}  // namespace strg::e2e

#endif  // STRG_BENCH_E2E_TRACE_H_
