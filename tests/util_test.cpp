// ctest-labels: unit
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>

#include "util/hungarian.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/table.h"

namespace strg {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
}

TEST(Rng, UniformIntStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int v = rng.UniformInt(-3, 5);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, UniformRealStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, GaussianMeanRoughlyCorrect) {
  Rng rng(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Gaussian(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Rng, SampleIndicesDistinctAndInRange) {
  Rng rng(3);
  auto idx = rng.SampleIndices(50, 20);
  ASSERT_EQ(idx.size(), 20u);
  std::set<size_t> uniq(idx.begin(), idx.end());
  EXPECT_EQ(uniq.size(), 20u);
  for (size_t i : idx) EXPECT_LT(i, 50u);
}

TEST(Rng, SampleIndicesFullSet) {
  Rng rng(3);
  auto idx = rng.SampleIndices(5, 5);
  std::set<size_t> uniq(idx.begin(), idx.end());
  EXPECT_EQ(uniq.size(), 5u);
}

TEST(Rng, SampleIndicesThrowsWhenKTooLarge) {
  Rng rng(3);
  EXPECT_THROW(rng.SampleIndices(3, 4), std::invalid_argument);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Stats, MeanAndStdDev) {
  std::vector<double> xs{2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(Mean(xs), 5.0);
  EXPECT_DOUBLE_EQ(StdDev(xs), 2.0);
}

TEST(Stats, EmptyInputsAreZero) {
  EXPECT_EQ(Mean({}), 0.0);
  EXPECT_EQ(StdDev({}), 0.0);
  EXPECT_EQ(Median({}), 0.0);
  EXPECT_EQ(Percentile({}, 50.0), 0.0);
}

TEST(Stats, MedianOddEven) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
}

TEST(Stats, PercentileRoundsTheRank) {
  // 1..100 reversed: n = 100, so the rank is round(p/100 * 99).
  std::vector<double> xs;
  for (int i = 100; i >= 1; --i) xs.push_back(i);
  EXPECT_EQ(Percentile(xs, 0.0), 1.0);
  EXPECT_EQ(Percentile(xs, 50.0), 51.0);  // rank 49.5 rounds up to 50
  EXPECT_EQ(Percentile(xs, 99.0), 99.0);  // rank 98.01 rounds to 98
  EXPECT_EQ(Percentile(xs, 100.0), 100.0);
  EXPECT_EQ(Percentile({7.0}, 99.0), 7.0);
}

TEST(Stats, PrecisionRecall) {
  auto pr = ComputePrecisionRecall(8, 10, 16);
  EXPECT_DOUBLE_EQ(pr.precision, 0.8);
  EXPECT_DOUBLE_EQ(pr.recall, 0.5);
}

TEST(Stats, PrecisionRecallZeroDenominators) {
  auto pr = ComputePrecisionRecall(0, 0, 0);
  EXPECT_EQ(pr.precision, 0.0);
  EXPECT_EQ(pr.recall, 0.0);
}

TEST(Table, PrintsAlignedRows) {
  Table t({"a", "long_header"});
  t.AddRow({"1", "2"});
  t.AddNumericRow({3.14159, 2.71828}, 2);
  std::ostringstream ss;
  t.Print(ss);
  std::string out = ss.str();
  EXPECT_NE(out.find("long_header"), std::string::npos);
  EXPECT_NE(out.find("3.14"), std::string::npos);
  EXPECT_EQ(t.NumRows(), 2u);
}

TEST(Table, AppendsEscapedJson) {
  Table t({"q\"h", "b\\h"});
  t.AddRow({"line\nbreak", "tab\there\x01"});
  std::string out = "prefix:";
  t.AppendJson(&out);
  EXPECT_EQ(out, R"(prefix:{"headers":["q\"h","b\\h"],)"
                 R"("rows":[["line\nbreak","tab\there\u0001"]]})");
}

TEST(Table, RejectsRaggedRow) {
  Table t({"a", "b"});
  EXPECT_THROW(t.AddRow({"only-one"}), std::invalid_argument);
}

TEST(Table, FormatBytes) {
  EXPECT_EQ(FormatBytes(512), "512B");
  EXPECT_EQ(FormatBytes(2048), "2.0KB");
  EXPECT_EQ(FormatBytes(5 * 1024 * 1024), "5.0MB");
}

TEST(Table, FormatDuration) {
  EXPECT_EQ(FormatDuration(62), "1m 2s");
  EXPECT_EQ(FormatDuration(3723), "1h 2m 3s");
  EXPECT_EQ(FormatDuration(9), "9s");
}

TEST(Hungarian, SolvesSquareAssignment) {
  // Optimal: 0->1, 1->0, 2->2 (cost 1+2+2 = 5).
  std::vector<std::vector<double>> cost{
      {4, 1, 3},
      {2, 0, 5},
      {3, 2, 2},
  };
  auto match = SolveAssignment(cost);
  double total = 0;
  std::set<int> cols;
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_GE(match[i], 0);
    cols.insert(match[i]);
    total += cost[i][static_cast<size_t>(match[i])];
  }
  EXPECT_EQ(cols.size(), 3u);
  EXPECT_DOUBLE_EQ(total, 5.0);
}

TEST(Hungarian, RectangularMoreColumns) {
  std::vector<std::vector<double>> cost{
      {10, 1, 10, 10},
      {10, 10, 1, 10},
  };
  auto match = SolveAssignment(cost);
  EXPECT_EQ(match[0], 1);
  EXPECT_EQ(match[1], 2);
}

TEST(Hungarian, RectangularMoreRowsLeavesUnmatched) {
  std::vector<std::vector<double>> cost{
      {1.0},
      {0.5},
      {2.0},
  };
  auto match = SolveAssignment(cost);
  int matched = 0;
  for (int m : match) {
    if (m >= 0) ++matched;
  }
  EXPECT_EQ(matched, 1);
  EXPECT_EQ(match[1], 0);  // cheapest row wins the single column
}

TEST(Hungarian, IdentityOnDiagonalZeros) {
  size_t n = 6;
  std::vector<std::vector<double>> cost(n, std::vector<double>(n, 1.0));
  for (size_t i = 0; i < n; ++i) cost[i][i] = 0.0;
  auto match = SolveAssignment(cost);
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(match[i], static_cast<int>(i));
}

TEST(Hungarian, RejectsRaggedMatrix) {
  std::vector<std::vector<double>> cost{{1, 2}, {3}};
  EXPECT_THROW(SolveAssignment(cost), std::invalid_argument);
}

TEST(Hungarian, EmptyMatrix) {
  EXPECT_TRUE(SolveAssignment({}).empty());
}

}  // namespace
}  // namespace strg
