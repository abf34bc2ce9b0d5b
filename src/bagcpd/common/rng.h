// Deterministic random-number facility. Every stochastic component of the
// library draws from an explicitly seeded Rng so experiments are reproducible.

#ifndef BAGCPD_COMMON_RNG_H_
#define BAGCPD_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "bagcpd/common/matrix.h"
#include "bagcpd/common/point.h"
#include "bagcpd/common/status.h"

namespace bagcpd {

/// \brief Seedable pseudo-random generator with the distributions used across
/// the library (Gaussian, multivariate Gaussian, Poisson, Dirichlet, ...).
///
/// Draws from bagcpd's own MT19937-64 engine, which yields exactly the word
/// sequence of the standard library's mt19937_64 for the same seed; the std::
/// distributions run on top of it. Not thread-safe; clone one per thread
/// with `Fork()` which derives an independent stream.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed), seed_(seed) {}

  /// \brief Derives an independent generator (seed mixed with `stream_id`).
  ///
  /// Forking depends only on the construction seed, never on how much of the
  /// stream has been consumed, so `rng.Fork(k)` is stable over time. This is
  /// the primitive behind per-replicate and per-stream determinism in the
  /// concurrent runtime: give every unit of parallel work its own fork and
  /// results are bitwise-identical for any thread count.
  Rng Fork(std::uint64_t stream_id) const;

  /// \brief Draws one raw 64-bit word from the engine (advances the state).
  ///
  /// Use to derive a fresh sub-seed from a sequential generator:
  /// `Rng base(rng.NextUInt64());` then `base.Fork(i)` per parallel unit.
  std::uint64_t NextUInt64();

  /// \brief SplitMix64 finalizer; the avalanche mix used by Fork(). Exposed so
  /// callers can derive decorrelated seeds from structured ids.
  static std::uint64_t MixSeed64(std::uint64_t x);

  /// \brief Deterministic, platform-stable FNV-1a hash of a string key.
  ///
  /// Unlike std::hash, the value is fixed by the standard's byte sequence, so
  /// stream-keyed seeds reproduce across runs, shard counts, and platforms.
  static std::uint64_t StableHash64(const std::string& key);

  /// \brief Uniform double in [0, 1).
  double Uniform();

  /// \brief Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// \brief Uniform integer in [lo, hi] inclusive.
  int UniformInt(int lo, int hi);

  /// \brief Standard normal draw.
  double Gaussian();

  /// \brief Normal draw with the given mean and standard deviation.
  double Gaussian(double mean, double stddev);

  /// \brief Poisson draw with rate `lambda`; returns at least `min_value`
  /// (the paper's bag sizes must be >= 1 for estimation to be defined).
  int Poisson(double lambda, int min_value = 0);

  /// \brief Bernoulli draw with success probability p.
  bool Bernoulli(double p);

  /// \brief Exponential draw with the given rate.
  double Exponential(double rate);

  /// \brief Gamma draw with the given shape and scale.
  double Gamma(double shape, double scale);

  /// \brief Dirichlet draw with concentration vector `alpha`; the result sums
  /// to one. Used by the Bayesian bootstrap (paper Eqs. 21-22, Appendix A/B).
  std::vector<double> Dirichlet(const std::vector<double>& alpha);

  /// \brief Symmetric Dirichlet Dir(alpha, ..., alpha) of dimension n.
  std::vector<double> SymmetricDirichlet(std::size_t n, double alpha = 1.0);

  /// \brief Multinomial counts: n trials over the probability vector `probs`.
  std::vector<int> Multinomial(int n, const std::vector<double>& probs);

  /// \brief Draws an index in [0, weights.size()) with probability
  /// proportional to weights[i].
  std::size_t Categorical(const std::vector<double>& weights);

  /// \brief Isotropic multivariate normal N(mean, sigma^2 I).
  Point MultivariateGaussianIso(const Point& mean, double sigma);

  /// \brief Diagonal-covariance multivariate normal.
  Point MultivariateGaussianDiag(const Point& mean, const Point& stddevs);

  /// \brief Full-covariance multivariate normal via the Cholesky factor of
  /// `covariance` (must be symmetric positive definite).
  Point MultivariateGaussian(const Point& mean, const Matrix& covariance);

  /// \brief Fisher-Yates shuffle of indices [0, n).
  std::vector<std::size_t> Permutation(std::size_t n);

  /// \brief The seed this generator was constructed with.
  std::uint64_t seed() const { return seed_; }

  /// \brief The complete generator state — construction seed plus the
  /// MT19937-64 stream position — as a text string: the seed, the 312 state
  /// words and the word position, in decimal, separated by single spaces.
  /// This is the array-plus-index layout libstdc++ writes for
  /// its mt19937_64 (a never-drawn generator writes its seeded words and
  /// position 312), not one the C++ standard fixes; bagcpd's engine defines
  /// it and writes the bytes libstdc++ would. A generator restored from
  /// it continues the draw sequence bitwise where this one stands; every
  /// distribution helper above builds its std:: distribution fresh per call,
  /// so the engine stream is the whole state. Used by the checkpoint
  /// subsystem (serialize/) to freeze a detector's RNG position.
  std::string SerializeState() const;

  /// \brief Restores a state captured by SerializeState(). The text is
  /// treated as hostile: a short word list, a position above 312, a token
  /// that is not a decimal 64-bit word, or trailing non-space bytes is an
  /// `Invalid` status, and the current state is left untouched.
  Status DeserializeState(const std::string& state);

 private:
  /// \brief MT19937-64 with the standard mt19937_64 parameters, seeding and
  /// output. The first 312-word block is seeded and twisted on demand, a few
  /// words at a time: output word i < 156 needs only seed words 0..i+156 and
  /// one twist step, so a fork that draws a few dozen words skips most of the
  /// 312-word seeding and block twist. Later blocks use the ordinary full
  /// twist.
  class Mt64 {
   public:
    using result_type = std::uint64_t;
    static constexpr std::size_t kWords = 312;

    // Only x_[0] is written: the rest of the block is filled on demand.
    explicit Mt64(std::uint64_t seed) { x_[0] = seed; }

    /// \brief Engine at a standard mt19937_64 state: `words` as its 312 state
    /// words and `pos` (<= 312) as its next-word index.
    Mt64(const std::uint64_t* words, std::size_t pos);

    // Copies words [0, seeded_) and the counters only, so a copy never reads
    // the block's unwritten tail (and copying a never-drawn engine is cheap).
    Mt64(const Mt64& other) { *this = other; }
    Mt64& operator=(const Mt64& other);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }
    result_type operator()();

    /// \brief Appends the 312 words and the position in the layout above.
    void AppendState(std::string* out) const;

   private:
    void Refill();

    // Words [0, seeded_) hold defined values; the rest are indeterminate
    // until seeding reaches them, and neither a draw nor a copy reads them.
    // Words [0, ready_) of the current block are twisted and
    // pos_ <= ready_; ready_ < kWords only while a block is twisted lazily.
    // The counters fit in x_'s tail padding, so an Rng is as large as one
    // wrapping the standard mt19937_64 and the detector's resident byte
    // estimate, which drives spilling, keeps its value.
    std::uint64_t x_[kWords];
    std::uint16_t pos_ = 0;     // next output word
    std::uint16_t ready_ = 0;   // words of the current block already twisted
    std::uint16_t seeded_ = 1;  // words of the seed block already written
  };

  Mt64 engine_;
  std::uint64_t seed_;
};

}  // namespace bagcpd

#endif  // BAGCPD_COMMON_RNG_H_
