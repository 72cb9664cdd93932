#ifndef STRG_BENCH_BENCH_COMMON_H_
#define STRG_BENCH_BENCH_COMMON_H_

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "distance/simd/dispatch.h"
#include "util/table.h"

namespace strg::bench {

/// Reads an integer scale knob from the environment. Benchmarks default to
/// a laptop-friendly scale; set e.g. STRG_BENCH_SCALE=3 or
/// STRG_BENCH_FULL=1 to approach the paper's full workload sizes.
inline int EnvInt(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::atoi(v);
}

inline bool FullScale() { return EnvInt("STRG_BENCH_FULL", 0) != 0; }

/// Common banner so every harness identifies which paper artifact it
/// regenerates.
inline void Banner(const std::string& figure, const std::string& what) {
  std::cout << "==================================================\n"
            << figure << " — " << what << "\n"
            << "(STRG-Index reproduction; shapes, not absolute\n"
            << " numbers, are the comparison target)\n"
            << "==================================================\n";
}

/// Accumulates named tables/scalars and writes them as a BENCH_*.json —
/// the machine-readable twin of the stdout report every harness prints.
/// It is the only bench report writer: each bench constructs one with the
/// literal artifact name (e.g. "BENCH_fig7.json"), which is what the repo
/// linter (strg-bench-json) checks for. Booleans go in as 1/0 scalars.
///
/// Every report leads with the host/kernel context that makes its numbers
/// comparable across machines and dispatch tiers: the active simd tier, the
/// host's hardware_concurrency, and the padded point stride.
class JsonReport {
 public:
  explicit JsonReport(std::string path)
      : path_(std::move(path)), json_("{") {
    AddString("simd_tier", dist::simd::TierName(dist::simd::ActiveTier()));
    AddScalar("hardware_concurrency",
              static_cast<double>(std::thread::hardware_concurrency()));
    AddScalar("padded_stride", static_cast<double>(dist::simd::kPaddedDim));
  }

  void AddTable(const std::string& key, const Table& table) {
    Sep();
    AppendJsonString(key, &json_);
    json_.push_back(':');
    table.AppendJson(&json_);
  }

  void AddScalar(const std::string& key, double value) {
    Sep();
    AppendJsonString(key, &json_);
    json_.push_back(':');
    json_ += FormatDouble(value, 6);
  }

  void AddString(const std::string& key, const std::string& value) {
    Sep();
    AppendJsonString(key, &json_);
    json_.push_back(':');
    AppendJsonString(value, &json_);
  }

  /// Writes the report into the working directory and logs the path.
  void Write() {
    std::ofstream out(path_);
    out << json_ << "}\n";
    std::cout << "report written to " << path_ << "\n";
  }

 private:
  void Sep() {
    if (json_.size() > 1) json_.push_back(',');
  }

  std::string path_;
  std::string json_;
};

}  // namespace strg::bench

#endif  // STRG_BENCH_BENCH_COMMON_H_
