// Streaming first/second-moment accumulator (Welford's algorithm).
#ifndef SRC_STATKIT_WELFORD_H_
#define SRC_STATKIT_WELFORD_H_

#include <cmath>
#include <cstdint>

namespace statkit {

// Numerically stable streaming mean/variance.
class StreamingMoments {
 public:
  void Add(double x) {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    if (x < min_ || count_ == 1) {
      min_ = x;
    }
    if (x > max_ || count_ == 1) {
      max_ = x;
    }
  }

  uint64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }

  // Population variance (divide by n). The paper's variance decomposition
  // identity Var(sum) = sum Var + 2 sum Cov holds exactly for the population
  // forms, so the whole project standardizes on them.
  double variance() const {
    return count_ > 0 ? m2_ / static_cast<double>(count_) : 0.0;
  }

  double stddev() const { return std::sqrt(variance()); }

  // Coefficient of variation (stddev / mean); 0 when the mean is 0.
  double cv() const { return mean() != 0.0 ? stddev() / mean() : 0.0; }

 private:
  uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace statkit

#endif  // SRC_STATKIT_WELFORD_H_
