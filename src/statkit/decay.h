// Exponentially-decayed streaming moment accumulators for the online
// profiling service's sliding-window statistics.
//
// DecayedMoments/DecayedCovariance are the weighted (West 1979) forms of
// Welford's mean/variance update (welford.h) and its co-moment analogue,
// plus a Scale() operation that ages the window:
// multiplying the accumulated weight and second moment by gamma in (0, 1)
// discounts every past observation by gamma without touching the mean, so
// applying Scale once per epoch yields exponentially-weighted statistics
// with an effective window of 1 / (1 - gamma) epochs.
//
// Seeded() constructs an accumulator equivalent to one that already observed
// `weight` worth of zeros (or of (mean_x, mean_y) pairs with zero co-moment).
// The online variance tree uses this when a node first appears mid-stream:
// intervals before the node existed genuinely contributed zero time to it,
// and seeding keeps its weight aligned with every other node's so the
// variance decomposition identity still holds across the whole tree.
#ifndef SRC_STATKIT_DECAY_H_
#define SRC_STATKIT_DECAY_H_

#include <cmath>

namespace statkit {

// Weighted streaming mean/variance with exponential forgetting.
class DecayedMoments {
 public:
  DecayedMoments() = default;

  // Accumulator state equivalent to having observed `weight` zeros.
  static DecayedMoments Seeded(double weight) {
    DecayedMoments m;
    m.weight_ = weight;
    return m;
  }

  void Add(double x, double w = 1.0) {
    weight_ += w;
    const double delta = x - mean_;
    mean_ += delta * w / weight_;
    m2_ += w * delta * (x - mean_);
  }

  // Discounts all past observations by `factor` (the decay step). The mean
  // is weight-invariant and stays put; weight and m2 shrink together so
  // variance() is unchanged by aging alone.
  void Scale(double factor) {
    weight_ *= factor;
    m2_ *= factor;
  }

  double weight() const { return weight_; }
  double mean() const { return weight_ > 0.0 ? mean_ : 0.0; }

  // Population-form variance (see welford.h for why the project uses it).
  double variance() const { return weight_ > 0.0 ? m2_ / weight_ : 0.0; }
  double stddev() const { return std::sqrt(variance()); }

 private:
  double weight_ = 0.0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

// Weighted streaming covariance with exponential forgetting.
class DecayedCovariance {
 public:
  DecayedCovariance() = default;

  // State equivalent to `weight` observations of exactly (mean_x, mean_y):
  // the means are fixed, the co-moment is zero. Used when a sibling pair
  // starts being tracked mid-stream: the later-born sibling contributed a
  // constant zero before, so the pair's past covariance is exactly zero.
  static DecayedCovariance Seeded(double weight, double mean_x, double mean_y) {
    DecayedCovariance c;
    c.weight_ = weight;
    c.mean_x_ = mean_x;
    c.mean_y_ = mean_y;
    return c;
  }

  void Add(double x, double y, double w = 1.0) {
    weight_ += w;
    const double dx = x - mean_x_;
    mean_x_ += dx * w / weight_;
    mean_y_ += (y - mean_y_) * w / weight_;
    // Co-moment form of Welford: uses the post-update mean_y_.
    comoment_ += w * dx * (y - mean_y_);
  }

  void Scale(double factor) {
    weight_ *= factor;
    comoment_ *= factor;
  }

  double weight() const { return weight_; }
  double mean_x() const { return mean_x_; }
  double mean_y() const { return mean_y_; }

  // Population-form covariance.
  double covariance() const {
    return weight_ > 0.0 ? comoment_ / weight_ : 0.0;
  }

 private:
  double weight_ = 0.0;
  double mean_x_ = 0.0;
  double mean_y_ = 0.0;
  double comoment_ = 0.0;
};

// Per-epoch decay factor for a half-life given in epochs; 0 disables decay
// (gamma = 1: the infinite cumulative window).
inline double DecayFactorForHalfLife(double half_life_epochs) {
  return half_life_epochs > 0.0 ? std::exp2(-1.0 / half_life_epochs) : 1.0;
}

}  // namespace statkit

#endif  // SRC_STATKIT_DECAY_H_
