#include "src/statkit/summary.h"

#include <vector>

#include <gtest/gtest.h>

namespace statkit {
namespace {

TEST(SummaryTest, EmptySample) {
  const Summary s = Summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
  EXPECT_DOUBLE_EQ(PercentileOfSorted({}, 99.0), 0.0);
}

TEST(SummaryTest, KnownValues) {
  const std::vector<double> v = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  const Summary s = Summarize(v);
  EXPECT_EQ(s.count, 8u);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_DOUBLE_EQ(s.variance, 4.0);  // classic example: sd = 2
  EXPECT_DOUBLE_EQ(s.stddev, 2.0);
  EXPECT_DOUBLE_EQ(s.cv, 0.4);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
}

TEST(SummaryTest, PercentilesOrdered) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) {
    v.push_back(static_cast<double>(i));
  }
  const Summary s = Summarize(v);
  EXPECT_LE(s.p50, s.p90);
  EXPECT_LE(s.p90, s.p95);
  EXPECT_LE(s.p95, s.p99);
  EXPECT_LE(s.p99, s.p999);
  EXPECT_NEAR(s.p50, 500.5, 1.0);
  EXPECT_NEAR(s.p99, 990.0, 1.5);
}

TEST(PercentileOfSortedTest, SingleElement) {
  const std::vector<double> v = {42.0};
  EXPECT_DOUBLE_EQ(PercentileOfSorted(v, 50.0), 42.0);
  EXPECT_DOUBLE_EQ(PercentileOfSorted(v, 99.0), 42.0);
}

TEST(PercentileOfSortedTest, InterpolatesBetweenRanks) {
  const std::vector<double> v = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(PercentileOfSorted(v, 50.0), 5.0);
  EXPECT_DOUBLE_EQ(PercentileOfSorted(v, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(PercentileOfSorted(v, 100.0), 10.0);
}

TEST(ReductionPercentTest, Basics) {
  EXPECT_DOUBLE_EQ(ReductionPercent(100.0, 18.0), 82.0);
  EXPECT_DOUBLE_EQ(ReductionPercent(100.0, 150.0), -50.0);
  EXPECT_DOUBLE_EQ(ReductionPercent(0.0, 5.0), 0.0);
}

TEST(SummaryTest, ToStringMentionsKeyFields) {
  const Summary s = Summarize(std::vector<double>{1.0, 2.0, 3.0});
  const std::string str = s.ToString();
  EXPECT_NE(str.find("mean="), std::string::npos);
  EXPECT_NE(str.find("p99="), std::string::npos);
}

}  // namespace
}  // namespace statkit
