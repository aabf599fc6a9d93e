#include "src/statkit/decay.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "src/statkit/rng.h"
#include "src/statkit/welford.h"

namespace statkit {
namespace {

TEST(DecayedMomentsTest, EmptyIsZero) {
  DecayedMoments m;
  EXPECT_DOUBLE_EQ(m.weight(), 0.0);
  EXPECT_DOUBLE_EQ(m.mean(), 0.0);
  EXPECT_DOUBLE_EQ(m.variance(), 0.0);
}

TEST(DecayedMomentsTest, UndcayedMatchesStreamingMoments) {
  Rng rng(21);
  DecayedMoments decayed;
  StreamingMoments plain;
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.NextDouble() * 50.0 - 10.0;
    decayed.Add(x);
    plain.Add(x);
  }
  EXPECT_DOUBLE_EQ(decayed.weight(), 2000.0);
  EXPECT_NEAR(decayed.mean(), plain.mean(), 1e-9);
  EXPECT_NEAR(decayed.variance(), plain.variance(), 1e-7);
}

TEST(DecayedMomentsTest, ScalePreservesMeanAndVariance) {
  Rng rng(22);
  DecayedMoments m;
  for (int i = 0; i < 100; ++i) {
    m.Add(rng.NextDouble() * 10.0);
  }
  const double mean = m.mean();
  const double variance = m.variance();
  m.Scale(0.5);
  EXPECT_DOUBLE_EQ(m.weight(), 50.0);
  EXPECT_DOUBLE_EQ(m.mean(), mean);
  EXPECT_NEAR(m.variance(), variance, 1e-9);
}

TEST(DecayedMomentsTest, DecayForgetsOldRegime) {
  // 500 samples around 100, then decay aggressively while observing samples
  // around 0: the mean must track the new regime, not the average of both.
  Rng rng(23);
  DecayedMoments m;
  for (int i = 0; i < 500; ++i) {
    m.Add(100.0 + rng.NextDouble());
  }
  for (int i = 0; i < 200; ++i) {
    m.Scale(0.5);  // half-life of one step
    m.Add(rng.NextDouble());
  }
  EXPECT_LT(m.mean(), 2.0);
  EXPECT_LT(m.variance(), 10.0);
}

TEST(DecayedMomentsTest, SeededEqualsExplicitZeros) {
  Rng rng(24);
  DecayedMoments seeded = DecayedMoments::Seeded(300.0);
  DecayedMoments zeros;
  for (int i = 0; i < 300; ++i) {
    zeros.Add(0.0);
  }
  for (int i = 0; i < 100; ++i) {
    const double x = rng.NextDouble() * 7.0;
    seeded.Add(x);
    zeros.Add(x);
  }
  EXPECT_DOUBLE_EQ(seeded.weight(), zeros.weight());
  EXPECT_NEAR(seeded.mean(), zeros.mean(), 1e-9);
  EXPECT_NEAR(seeded.variance(), zeros.variance(), 1e-9);
}

TEST(DecayedMomentsTest, FractionalWeightsMatchRepeatedSamples) {
  // Adding x with weight 3 equals adding x three times.
  DecayedMoments weighted;
  DecayedMoments repeated;
  const std::vector<double> xs = {1.0, 4.0, 2.5};
  for (double x : xs) {
    weighted.Add(x, 3.0);
    for (int i = 0; i < 3; ++i) {
      repeated.Add(x);
    }
  }
  EXPECT_NEAR(weighted.mean(), repeated.mean(), 1e-9);
  EXPECT_NEAR(weighted.variance(), repeated.variance(), 1e-9);
}

TEST(DecayedCovarianceTest, UndcayedMatchesTwoPassCovariance) {
  Rng rng(25);
  DecayedCovariance decayed;
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.NextDouble() * 3.0;
    const double y = 0.5 * x + rng.NextDouble();
    decayed.Add(x, y);
    xs.push_back(x);
    ys.push_back(y);
  }
  const double n = static_cast<double>(xs.size());
  double mean_x = 0.0;
  double mean_y = 0.0;
  for (size_t i = 0; i < xs.size(); ++i) {
    mean_x += xs[i] / n;
    mean_y += ys[i] / n;
  }
  double comoment = 0.0;
  for (size_t i = 0; i < xs.size(); ++i) {
    comoment += (xs[i] - mean_x) * (ys[i] - mean_y);
  }
  EXPECT_NEAR(decayed.covariance(), comoment / n, 1e-7);
}

TEST(DecayedCovarianceTest, SeededEqualsConstantHistory) {
  // Seeded(w, mx, my) must behave exactly like an accumulator that saw w
  // observations of (mx, my) — the constant-history equivalence the online
  // tree relies on when a sibling pair is born mid-stream.
  Rng rng(26);
  DecayedCovariance seeded = DecayedCovariance::Seeded(250.0, 4.0, 0.0);
  DecayedCovariance constant;
  for (int i = 0; i < 250; ++i) {
    constant.Add(4.0, 0.0);
  }
  for (int i = 0; i < 120; ++i) {
    const double x = rng.NextDouble() * 2.0;
    const double y = rng.NextDouble() * 5.0;
    seeded.Add(x, y);
    constant.Add(x, y);
  }
  EXPECT_NEAR(seeded.covariance(), constant.covariance(), 1e-9);
  EXPECT_NEAR(seeded.mean_x(), constant.mean_x(), 1e-9);
  EXPECT_NEAR(seeded.mean_y(), constant.mean_y(), 1e-9);
}

TEST(DecayedCovarianceTest, DecayedDecompositionIdentityHolds) {
  // Var(X+Y) = Var(X) + Var(Y) + 2 Cov(X,Y) must survive uniform decay,
  // since all accumulators scale by the same gamma each epoch.
  Rng rng(27);
  DecayedMoments vx;
  DecayedMoments vy;
  DecayedMoments vsum;
  DecayedCovariance cov;
  const double gamma = DecayFactorForHalfLife(8.0);
  for (int epoch = 0; epoch < 50; ++epoch) {
    vx.Scale(gamma);
    vy.Scale(gamma);
    vsum.Scale(gamma);
    cov.Scale(gamma);
    for (int i = 0; i < 40; ++i) {
      const double x = rng.NextDouble() * 3.0 + epoch * 0.1;
      const double y = x * 0.7 + rng.NextDouble();
      vx.Add(x);
      vy.Add(y);
      vsum.Add(x + y);
      cov.Add(x, y);
    }
  }
  EXPECT_NEAR(vsum.variance(),
              vx.variance() + vy.variance() + 2.0 * cov.covariance(), 1e-7);
}

TEST(DecayFactorTest, HalfLifeSemantics) {
  EXPECT_DOUBLE_EQ(DecayFactorForHalfLife(0.0), 1.0);
  EXPECT_DOUBLE_EQ(DecayFactorForHalfLife(1.0), 0.5);
  // After `h` applications of the factor, weight halves.
  const double gamma = DecayFactorForHalfLife(5.0);
  EXPECT_NEAR(std::pow(gamma, 5.0), 0.5, 1e-12);
}

}  // namespace
}  // namespace statkit
