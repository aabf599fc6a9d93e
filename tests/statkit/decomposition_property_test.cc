// Cross-cutting property: the paper's Equation (2) decomposition holds for
// arbitrary random decompositions of a total into parts, across scales,
// correlation structures, and part counts — the mathematical foundation the
// variance tree rests on. Checked on the accumulators vprofd's online tree
// folds with: one DecayedMoments per part, one DecayedCovariance per pair,
// all aged by the same decay factor once per epoch.
#include <vector>

#include <gtest/gtest.h>

#include "src/statkit/decay.h"
#include "src/statkit/distributions.h"
#include "src/statkit/rng.h"

namespace statkit {
namespace {

constexpr int kSamplesPerEpoch = 100;

// Var(sum) and its Eq. 2 expansion, sum Var + 2 sum_{i<j} Cov, over the
// same decayed window.
class DecayedDecomposition {
 public:
  explicit DecayedDecomposition(size_t parts)
      : parts_(parts), pairs_(parts * parts) {}

  void Add(const std::vector<double>& x) {
    double total = 0.0;
    for (size_t i = 0; i < parts_.size(); ++i) {
      parts_[i].Add(x[i]);
      for (size_t j = i + 1; j < parts_.size(); ++j) {
        pairs_[PairIndex(i, j)].Add(x[i], x[j]);
      }
      total += x[i];
    }
    total_.Add(total);
  }

  void Scale(double gamma) {
    total_.Scale(gamma);
    for (DecayedMoments& part : parts_) {
      part.Scale(gamma);
    }
    for (DecayedCovariance& pair : pairs_) {
      pair.Scale(gamma);
    }
  }

  double VarianceOfSum() const { return total_.variance(); }

  double Expansion() const {
    double sum = 0.0;
    for (size_t i = 0; i < parts_.size(); ++i) {
      sum += parts_[i].variance();
      for (size_t j = i + 1; j < parts_.size(); ++j) {
        sum += 2.0 * pairs_[PairIndex(i, j)].covariance();
      }
    }
    return sum;
  }

 private:
  size_t PairIndex(size_t i, size_t j) const {
    return i * parts_.size() + j;
  }

  DecayedMoments total_;
  std::vector<DecayedMoments> parts_;
  std::vector<DecayedCovariance> pairs_;  // row-major, i < j used
};

// The variance of the sum equals the sum of variances plus twice the
// pairwise covariances, for any number of components.
class VarianceOfSumProperty : public ::testing::TestWithParam<size_t> {};

TEST_P(VarianceOfSumProperty, EquationTwoHolds) {
  const size_t n = GetParam();
  Rng rng(100 + n);
  DecayedDecomposition decomposition(n);
  const double gamma = DecayFactorForHalfLife(8.0);
  std::vector<double> x(n);
  for (int i = 0; i < 2000; ++i) {
    if (i % kSamplesPerEpoch == 0) {
      decomposition.Scale(gamma);
    }
    double common = rng.NextDouble();  // induces cross-correlation
    for (size_t j = 0; j < n; ++j) {
      x[j] = rng.NextDouble() + (j % 2 == 0 ? common : -common);
    }
    decomposition.Add(x);
  }
  const double variance = decomposition.VarianceOfSum();
  EXPECT_NEAR(decomposition.Expansion(), variance, 1e-7 * (1.0 + variance));
}

INSTANTIATE_TEST_SUITE_P(Sizes, VarianceOfSumProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 16));

struct DecompositionCase {
  size_t parts;
  double scale;
  double correlation;  // weight of the shared component
  uint64_t seed;
};

class DecompositionProperty
    : public ::testing::TestWithParam<DecompositionCase> {};

TEST_P(DecompositionProperty, VarianceOfSumEqualsTreeDecomposition) {
  const DecompositionCase param = GetParam();
  Rng rng(param.seed);
  DecayedDecomposition decomposition(param.parts);
  const double gamma = DecayFactorForHalfLife(8.0);
  std::vector<double> parts(param.parts);
  for (int sample = 0; sample < 3000; ++sample) {
    if (sample % kSamplesPerEpoch == 0) {
      decomposition.Scale(gamma);
    }
    const double shared = SampleLognormal(rng, 2.0, 0.8) * param.correlation;
    for (size_t i = 0; i < param.parts; ++i) {
      parts[i] = param.scale * (SampleExponential(rng, 1.0 + static_cast<double>(i)) +
                                (i % 2 == 0 ? shared : -0.4 * shared));
    }
    decomposition.Add(parts);
  }
  // Var(sum) == sum Var + 2 sum Cov, within numerical tolerance.
  const double lhs = decomposition.VarianceOfSum();
  EXPECT_NEAR(lhs, decomposition.Expansion(), 1e-6 * (1.0 + lhs));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DecompositionProperty,
    ::testing::Values(DecompositionCase{2, 1.0, 0.0, 11},
                      DecompositionCase{3, 1.0, 1.0, 12},
                      DecompositionCase{5, 1000.0, 0.5, 13},
                      DecompositionCase{8, 1e-3, 2.0, 14},
                      DecompositionCase{12, 1e6, 0.2, 15},
                      DecompositionCase{20, 1.0, 3.0, 16}));

}  // namespace
}  // namespace statkit
