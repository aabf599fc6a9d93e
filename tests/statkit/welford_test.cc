#include "src/statkit/welford.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "src/statkit/rng.h"

namespace statkit {
namespace {

double NaiveMean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) {
    sum += x;
  }
  return sum / static_cast<double>(v.size());
}

double NaiveVariance(const std::vector<double>& v) {
  const double mean = NaiveMean(v);
  double sum = 0.0;
  for (double x : v) {
    sum += (x - mean) * (x - mean);
  }
  return sum / static_cast<double>(v.size());
}

TEST(StreamingMomentsTest, EmptyIsZero) {
  StreamingMoments m;
  EXPECT_EQ(m.count(), 0u);
  EXPECT_DOUBLE_EQ(m.mean(), 0.0);
  EXPECT_DOUBLE_EQ(m.variance(), 0.0);
  EXPECT_DOUBLE_EQ(m.cv(), 0.0);
}

TEST(StreamingMomentsTest, SingleValue) {
  StreamingMoments m;
  m.Add(5.0);
  EXPECT_EQ(m.count(), 1u);
  EXPECT_DOUBLE_EQ(m.mean(), 5.0);
  EXPECT_DOUBLE_EQ(m.variance(), 0.0);
  EXPECT_DOUBLE_EQ(m.min(), 5.0);
  EXPECT_DOUBLE_EQ(m.max(), 5.0);
}

TEST(StreamingMomentsTest, MatchesNaiveComputation) {
  Rng rng(7);
  std::vector<double> values;
  StreamingMoments m;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.NextDouble() * 100.0 - 20.0;
    values.push_back(x);
    m.Add(x);
  }
  EXPECT_NEAR(m.mean(), NaiveMean(values), 1e-9);
  EXPECT_NEAR(m.variance(), NaiveVariance(values), 1e-7);
}

TEST(StreamingMomentsTest, MinMaxTracksExtremes) {
  StreamingMoments m;
  for (double x : {3.0, -1.0, 7.0, 2.0}) {
    m.Add(x);
  }
  EXPECT_DOUBLE_EQ(m.min(), -1.0);
  EXPECT_DOUBLE_EQ(m.max(), 7.0);
}

TEST(StreamingMomentsTest, CvIsStddevOverMean) {
  StreamingMoments m;
  m.Add(10.0);
  m.Add(20.0);
  EXPECT_NEAR(m.cv(), m.stddev() / m.mean(), 1e-12);
}

}  // namespace
}  // namespace statkit
