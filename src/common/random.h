// Deterministic pseudo-random generator used by all workload generators.
// A small xoshiro256** implementation so results do not depend on the
// standard library's unspecified distributions.
#ifndef UXM_COMMON_RANDOM_H_
#define UXM_COMMON_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace uxm {

/// \brief Seeded, reproducible RNG (xoshiro256**).
///
/// All sampling helpers are implemented on top of NextU64 with explicit
/// arithmetic so the same seed yields the same stream on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL) { Seed(seed); }

  /// Re-seeds the generator via splitmix64 expansion of `seed`.
  void Seed(uint64_t seed);

  /// Returns the next 64 uniform random bits.
  uint64_t NextU64();

  /// Uniform integer in [0, bound). `bound` must be > 0.
  uint64_t Uniform(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi);

  /// Bernoulli trial with probability `p`.
  bool Bernoulli(double p);

  /// Gaussian via Box-Muller (mean, stddev).
  double Gaussian(double mean, double stddev);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    if (v->empty()) return;
    for (size_t i = v->size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(Uniform(i + 1));
      std::swap((*v)[i], (*v)[j]);
    }
  }

  /// Picks a uniformly random element index of a non-empty container size.
  size_t Index(size_t size) { return static_cast<size_t>(Uniform(size)); }

 private:
  uint64_t state_[4];
  bool have_gauss_ = false;
  double gauss_cache_ = 0.0;
};

}  // namespace uxm

#endif  // UXM_COMMON_RANDOM_H_
