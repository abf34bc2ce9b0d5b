#include "bagcpd/common/rng.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <random>

#include "bagcpd/common/check.h"

namespace bagcpd {
namespace {

// The mt19937_64 parameters ([rand.predef]) that are not spelled out
// inline below: n = kStateWords, m = kShift, r = 31.
constexpr std::size_t kStateWords = 312;
constexpr std::size_t kShift = 156;
constexpr std::uint64_t kMatrixA = 0xB5026F5AA96619E9ULL;
constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;
constexpr std::uint64_t kLowerMask = ~kUpperMask;
constexpr std::uint64_t kInitMultiplier = 6364136223846793005ULL;

// Words a lazily twisted block twists per refill: enough to amortize the
// refill over a bootstrap replicate's draws, few enough that a fork drawing
// one word stays cheap.
constexpr std::size_t kLazyWords = 8;

// Writes seed words [from, to) of `x`; word i derives from word i - 1.
void SeedWords(std::uint64_t* x, std::size_t from, std::size_t to) {
  for (std::size_t i = from; i < to; ++i) {
    const std::uint64_t prev = x[i - 1];
    x[i] = kInitMultiplier * (prev ^ (prev >> 62)) + i;
  }
}

std::uint64_t TwistMix(std::uint64_t hi, std::uint64_t lo) {
  const std::uint64_t y = (hi & kUpperMask) | (lo & kLowerMask);
  return (y >> 1) ^ ((y & 1) ? kMatrixA : 0);
}

// Twists words [begin, end) of the 312-word block `x` in place, in index
// order as the reference block twist runs: word k reads the old words k and
// k + 1 and, for k < 156, the old word k + 156; from k = 156 on it reads the
// new word k - 156 (and word 311 the new word 0). Twisting a block a word at
// a time therefore yields the same words as twisting it whole.
void TwistWords(std::uint64_t* x, std::size_t begin, std::size_t end) {
  constexpr std::size_t n = kStateWords;
  std::size_t k = begin;
  for (; k < std::min(end, n - kShift); ++k) {
    x[k] = x[k + kShift] ^ TwistMix(x[k], x[k + 1]);
  }
  for (; k < std::min(end, n - 1); ++k) {
    x[k] = x[k + kShift - n] ^ TwistMix(x[k], x[k + 1]);
  }
  if (k < end) x[n - 1] = x[kShift - 1] ^ TwistMix(x[n - 1], x[0]);
}

void AppendDecimal(std::uint64_t value, std::string* out) {
  char digits[20];
  const std::to_chars_result r =
      std::to_chars(digits, digits + sizeof(digits), value);
  out->append(digits, r.ptr);
}

bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' ||
         c == '\f';
}

}  // namespace

Rng::Mt64::Mt64(const std::uint64_t* words, std::size_t pos)
    : seeded_(kWords) {
  static_assert(kWords == kStateWords, "one state size");
  std::copy(words, words + kWords, x_);
  // Position 312 is a spent (or never drawn) block: the next draw twists,
  // which the lazy path does a few words at a time.
  if (pos < kWords) {
    pos_ = static_cast<std::uint16_t>(pos);
    ready_ = kWords;
  }
}

Rng::Mt64& Rng::Mt64::operator=(const Mt64& other) {
  if (this != &other) {
    std::copy(other.x_, other.x_ + other.seeded_, x_);
    pos_ = other.pos_;
    ready_ = other.ready_;
    seeded_ = other.seeded_;
  }
  return *this;
}

Rng::Mt64::result_type Rng::Mt64::operator()() {
  if (pos_ >= ready_) Refill();
  std::uint64_t y = x_[pos_++];
  y ^= (y >> 29) & 0x5555555555555555ULL;
  y ^= (y << 17) & 0x71D67FFFEDA60000ULL;
  y ^= (y << 37) & 0xFFF7EEE000000000ULL;
  return y ^ (y >> 43);
}

void Rng::Mt64::Refill() {
  if (ready_ < kWords) {
    // Lazily twisted block: twist the next kLazyWords words only. Word
    // k < 156 reads seed word k + 156, so the seeding runs that far ahead.
    const std::size_t end =
        std::min<std::size_t>(ready_ + kLazyWords, kWords);
    const std::size_t need = std::min(end + kShift, kWords);
    if (seeded_ < need) {
      SeedWords(x_, seeded_, need);
      seeded_ = static_cast<std::uint16_t>(need);
    }
    TwistWords(x_, ready_, end);
    ready_ = static_cast<std::uint16_t>(end);
    return;
  }
  TwistWords(x_, 0, kWords);
  pos_ = 0;
  ready_ = kWords;
}

void Rng::Mt64::AppendState(std::string* out) const {
  const std::uint64_t* words = x_;
  std::size_t pos = pos_;
  std::array<std::uint64_t, kWords> block;
  if (ready_ < kWords) {
    // The reference engine holds the seeded words with position 312 until
    // its first draw twists the whole block; complete the block on a copy.
    std::copy(x_, x_ + seeded_, block.begin());
    SeedWords(block.data(), seeded_, kWords);
    if (pos_ == 0) {
      pos = kWords;
    } else {
      TwistWords(block.data(), ready_, kWords);
    }
    words = block.data();
  }
  for (std::size_t i = 0; i < kWords; ++i) {
    AppendDecimal(words[i], out);
    out->push_back(' ');
  }
  AppendDecimal(pos, out);
}

std::uint64_t Rng::MixSeed64(std::uint64_t x) {
  // SplitMix64 finalizer; decorrelates fork streams from the parent seed.
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::uint64_t Rng::StableHash64(const std::string& key) {
  // FNV-1a, 64-bit.
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (unsigned char c : key) {
    h ^= static_cast<std::uint64_t>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

Rng Rng::Fork(std::uint64_t stream_id) const {
  return Rng(MixSeed64(seed_ ^ MixSeed64(stream_id + 1)));
}

std::uint64_t Rng::NextUInt64() { return engine_(); }

double Rng::Uniform() {
  std::uniform_real_distribution<double> dist(0.0, 1.0);
  return dist(engine_);
}

double Rng::Uniform(double lo, double hi) {
  BAGCPD_DCHECK(lo <= hi);
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(engine_);
}

int Rng::UniformInt(int lo, int hi) {
  BAGCPD_DCHECK(lo <= hi);
  std::uniform_int_distribution<int> dist(lo, hi);
  return dist(engine_);
}

double Rng::Gaussian() {
  std::normal_distribution<double> dist(0.0, 1.0);
  return dist(engine_);
}

double Rng::Gaussian(double mean, double stddev) {
  BAGCPD_DCHECK(stddev >= 0.0);
  std::normal_distribution<double> dist(mean, stddev);
  return dist(engine_);
}

int Rng::Poisson(double lambda, int min_value) {
  BAGCPD_DCHECK(lambda > 0.0);
  std::poisson_distribution<int> dist(lambda);
  return std::max(min_value, dist(engine_));
}

bool Rng::Bernoulli(double p) {
  std::bernoulli_distribution dist(std::clamp(p, 0.0, 1.0));
  return dist(engine_);
}

double Rng::Exponential(double rate) {
  BAGCPD_DCHECK(rate > 0.0);
  std::exponential_distribution<double> dist(rate);
  return dist(engine_);
}

double Rng::Gamma(double shape, double scale) {
  BAGCPD_DCHECK(shape > 0.0 && scale > 0.0);
  std::gamma_distribution<double> dist(shape, scale);
  return dist(engine_);
}

std::vector<double> Rng::Dirichlet(const std::vector<double>& alpha) {
  BAGCPD_CHECK_MSG(!alpha.empty(), "Dirichlet with empty alpha");
  std::vector<double> draws(alpha.size());
  double total = 0.0;
  for (std::size_t i = 0; i < alpha.size(); ++i) {
    BAGCPD_DCHECK(alpha[i] > 0.0);
    draws[i] = Gamma(alpha[i], 1.0);
    total += draws[i];
  }
  // All-zero draws are possible for tiny alpha due to underflow; fall back to
  // the uniform simplex point rather than dividing by zero.
  if (total <= 0.0) {
    const double u = 1.0 / static_cast<double>(alpha.size());
    std::fill(draws.begin(), draws.end(), u);
    return draws;
  }
  for (double& v : draws) v /= total;
  return draws;
}

std::vector<double> Rng::SymmetricDirichlet(std::size_t n, double alpha) {
  return Dirichlet(std::vector<double>(n, alpha));
}

std::vector<int> Rng::Multinomial(int n, const std::vector<double>& probs) {
  BAGCPD_CHECK(!probs.empty());
  std::vector<int> counts(probs.size(), 0);
  double remaining_prob = 0.0;
  for (double p : probs) remaining_prob += p;
  int remaining = n;
  // Sequential binomial thinning: exact multinomial sampling.
  for (std::size_t i = 0; i + 1 < probs.size() && remaining > 0; ++i) {
    const double p = remaining_prob > 0.0
                         ? std::clamp(probs[i] / remaining_prob, 0.0, 1.0)
                         : 0.0;
    std::binomial_distribution<int> dist(remaining, p);
    counts[i] = dist(engine_);
    remaining -= counts[i];
    remaining_prob -= probs[i];
  }
  counts.back() += remaining;
  return counts;
}

std::size_t Rng::Categorical(const std::vector<double>& weights) {
  BAGCPD_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    BAGCPD_DCHECK(w >= 0.0);
    total += w;
  }
  BAGCPD_CHECK_MSG(total > 0.0, "Categorical with all-zero weights");
  double u = Uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    u -= weights[i];
    if (u <= 0.0) return i;
  }
  return weights.size() - 1;
}

Point Rng::MultivariateGaussianIso(const Point& mean, double sigma) {
  Point x(mean.size());
  for (std::size_t j = 0; j < mean.size(); ++j) {
    x[j] = Gaussian(mean[j], sigma);
  }
  return x;
}

Point Rng::MultivariateGaussianDiag(const Point& mean, const Point& stddevs) {
  BAGCPD_DCHECK(mean.size() == stddevs.size());
  Point x(mean.size());
  for (std::size_t j = 0; j < mean.size(); ++j) {
    x[j] = Gaussian(mean[j], stddevs[j]);
  }
  return x;
}

Point Rng::MultivariateGaussian(const Point& mean, const Matrix& covariance) {
  BAGCPD_CHECK(covariance.rows() == covariance.cols());
  BAGCPD_CHECK(covariance.rows() == mean.size());
  Result<Matrix> chol = covariance.Cholesky();
  BAGCPD_CHECK_MSG(chol.ok(), "covariance is not positive definite: %s",
                   chol.status().ToString().c_str());
  const Matrix& l = chol.ValueOrDie();
  Point z(mean.size());
  for (double& v : z) v = Gaussian();
  Point x(mean);
  for (std::size_t i = 0; i < mean.size(); ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      x[i] += l(i, j) * z[j];
    }
  }
  return x;
}

std::string Rng::SerializeState() const {
  std::string out;
  out.reserve((Mt64::kWords + 2) * 21);
  AppendDecimal(seed_, &out);
  out.push_back(' ');
  engine_.AppendState(&out);
  return out;
}

Status Rng::DeserializeState(const std::string& state) {
  // The seed, the 312 engine words and the position: plain decimal 64-bit
  // tokens separated by white space. Parsing goes into temporaries so a
  // rejected string leaves this generator as it was.
  constexpr std::size_t kTokens = Mt64::kWords + 2;
  std::array<std::uint64_t, kTokens> tokens{};
  const char* cursor = state.data();
  const char* const end = cursor + state.size();
  for (std::size_t i = 0; i < kTokens; ++i) {
    while (cursor != end && IsSpace(*cursor)) ++cursor;
    if (cursor == end) {
      return Status::Invalid("Rng state is short: " + std::to_string(i) +
                             " of " + std::to_string(kTokens) +
                             " numbers (seed, 312 words, position)");
    }
    const std::from_chars_result r = std::from_chars(cursor, end, tokens[i]);
    if (r.ec != std::errc() || (r.ptr != end && !IsSpace(*r.ptr))) {
      return Status::Invalid("Rng state number " + std::to_string(i) +
                             " is not a decimal 64-bit word");
    }
    cursor = r.ptr;
  }
  while (cursor != end && IsSpace(*cursor)) ++cursor;
  if (cursor != end) {
    return Status::Invalid("Rng state has trailing bytes after the position");
  }
  const std::uint64_t pos = tokens[kTokens - 1];
  if (pos > Mt64::kWords) {
    return Status::Invalid("Rng state position " + std::to_string(pos) +
                           " exceeds 312");
  }
  engine_ = Mt64(tokens.data() + 1, static_cast<std::size_t>(pos));
  seed_ = tokens[0];
  return Status::OK();
}

std::vector<std::size_t> Rng::Permutation(std::size_t n) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    std::size_t j = static_cast<std::size_t>(UniformInt(0, static_cast<int>(i) - 1));
    std::swap(idx[i - 1], idx[j]);
  }
  return idx;
}

}  // namespace bagcpd
