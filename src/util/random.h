// Seeded random number generation. Every stochastic component of the library
// (data generators, epsilon-greedy exploration, replay sampling, Random-S)
// consumes an explicit Rng so experiments are reproducible bit-for-bit.
#ifndef SIMSUB_UTIL_RANDOM_H_
#define SIMSUB_UTIL_RANDOM_H_

#include <cstdint>
#include <random>
#include <vector>

#include "util/logging.h"

namespace simsub::util {

/// Deterministic pseudo-random source wrapping std::mt19937_64.
///
/// The wrapper pins down distribution usage in one place so call sites stay
/// small and the stream of draws is stable across modules.
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  /// Uniform double in [0, 1).
  double Uniform() { return unit_(engine_); }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

  /// Uniform integer in [lo, hi] (inclusive).
  int64_t UniformInt(int64_t lo, int64_t hi) {
    SIMSUB_CHECK_LE(lo, hi);
    std::uniform_int_distribution<int64_t> dist(lo, hi);
    return dist(engine_);
  }

  /// Standard normal draw scaled to N(mean, stddev^2). A zero stddev
  /// returns `mean` without a draw (std::normal_distribution requires
  /// stddev > 0).
  double Normal(double mean, double stddev) {
    if (stddev == 0.0) return mean;
    std::normal_distribution<double> dist(mean, stddev);
    return dist(engine_);
  }

  /// Log-normal draw with the given parameters of the underlying normal.
  double LogNormal(double mu, double sigma) {
    std::lognormal_distribution<double> dist(mu, sigma);
    return dist(engine_);
  }

  /// Bernoulli draw with success probability p.
  bool Bernoulli(double p) { return Uniform() < p; }

  /// Returns k distinct indices sampled uniformly from [0, n).
  /// Requires k <= n. O(n) when k is large, reservoir-free partial shuffle.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

  /// Fisher-Yates shuffle of `items`.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (size_t i = items.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap(items[i - 1], items[j]);
    }
  }

  /// Derives an independent child generator; useful for giving each worker
  /// or episode its own stream without correlating draws.
  Rng Fork() { return Rng(engine_()); }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
  std::uniform_real_distribution<double> unit_{0.0, 1.0};
};

inline std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t k) {
  SIMSUB_CHECK_LE(k, n);
  std::vector<size_t> idx(n);
  for (size_t i = 0; i < n; ++i) idx[i] = i;
  for (size_t i = 0; i < k; ++i) {
    size_t j = static_cast<size_t>(
        UniformInt(static_cast<int64_t>(i), static_cast<int64_t>(n) - 1));
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

}  // namespace simsub::util

#endif  // SIMSUB_UTIL_RANDOM_H_
