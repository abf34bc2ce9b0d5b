#include "bagcpd/common/rng.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bagcpd/common/stats.h"

namespace bagcpd {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.Uniform() == b.Uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, ForkDecorrelates) {
  Rng base(7);
  Rng f1 = base.Fork(1);
  Rng f2 = base.Fork(2);
  int equal = 0;
  for (int i = 0; i < 50; ++i) {
    if (f1.Uniform() == f2.Uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, UniformRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(-2.0, 5.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(RngTest, UniformIntInclusive) {
  Rng rng(4);
  std::set<int> seen;
  for (int i = 0; i < 500; ++i) {
    const int v = rng.UniformInt(1, 4);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 4);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(5);
  std::vector<double> xs(20000);
  for (double& x : xs) x = rng.Gaussian(2.0, 3.0);
  EXPECT_NEAR(Mean(xs), 2.0, 0.1);
  EXPECT_NEAR(StdDev(xs), 3.0, 0.1);
}

TEST(RngTest, PoissonMeanAndMinValue) {
  Rng rng(6);
  std::vector<double> xs(20000);
  for (double& x : xs) x = rng.Poisson(50.0);
  EXPECT_NEAR(Mean(xs), 50.0, 0.5);
  for (int i = 0; i < 200; ++i) {
    EXPECT_GE(rng.Poisson(0.01, 3), 3);
  }
}

TEST(RngTest, DirichletSumsToOne) {
  Rng rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<double> g = rng.SymmetricDirichlet(5);
    EXPECT_EQ(g.size(), 5u);
    const double total = std::accumulate(g.begin(), g.end(), 0.0);
    EXPECT_NEAR(total, 1.0, 1e-12);
    for (double v : g) EXPECT_GE(v, 0.0);
  }
}

TEST(RngTest, DirichletRespectsConcentration) {
  // Heavily skewed alpha concentrates mass on the large component.
  Rng rng(8);
  double mass0 = 0.0;
  const int trials = 2000;
  for (int t = 0; t < trials; ++t) {
    std::vector<double> g = rng.Dirichlet({50.0, 1.0, 1.0});
    mass0 += g[0];
  }
  EXPECT_NEAR(mass0 / trials, 50.0 / 52.0, 0.02);
}

TEST(RngTest, MultinomialTotals) {
  Rng rng(9);
  for (int t = 0; t < 50; ++t) {
    std::vector<int> counts = rng.Multinomial(100, {0.2, 0.3, 0.5});
    EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0), 100);
    for (int c : counts) EXPECT_GE(c, 0);
  }
}

TEST(RngTest, MultinomialProportions) {
  Rng rng(10);
  std::vector<long> totals(3, 0);
  const int trials = 400;
  for (int t = 0; t < trials; ++t) {
    std::vector<int> counts = rng.Multinomial(100, {0.2, 0.3, 0.5});
    for (int i = 0; i < 3; ++i) totals[i] += counts[i];
  }
  EXPECT_NEAR(totals[0] / (100.0 * trials), 0.2, 0.02);
  EXPECT_NEAR(totals[2] / (100.0 * trials), 0.5, 0.02);
}

TEST(RngTest, CategoricalFollowsWeights) {
  Rng rng(11);
  std::vector<int> counts(3, 0);
  for (int t = 0; t < 6000; ++t) {
    counts[rng.Categorical({1.0, 2.0, 3.0})]++;
  }
  EXPECT_NEAR(counts[0] / 6000.0, 1.0 / 6.0, 0.03);
  EXPECT_NEAR(counts[2] / 6000.0, 0.5, 0.03);
}

TEST(RngTest, PermutationIsValid) {
  Rng rng(12);
  std::vector<std::size_t> p = rng.Permutation(20);
  std::set<std::size_t> s(p.begin(), p.end());
  EXPECT_EQ(s.size(), 20u);
  EXPECT_EQ(*s.begin(), 0u);
  EXPECT_EQ(*s.rbegin(), 19u);
}

TEST(RngTest, MultivariateGaussianIsoShape) {
  Rng rng(13);
  Point x = rng.MultivariateGaussianIso({1.0, -1.0, 0.0}, 0.5);
  EXPECT_EQ(x.size(), 3u);
}

TEST(RngTest, MultivariateGaussianFullCovariance) {
  Rng rng(14);
  Matrix cov = Matrix::FromRows({{2.0, 0.8}, {0.8, 1.0}});
  std::vector<double> xs, ys;
  for (int i = 0; i < 20000; ++i) {
    Point p = rng.MultivariateGaussian({0.0, 0.0}, cov);
    xs.push_back(p[0]);
    ys.push_back(p[1]);
  }
  EXPECT_NEAR(Variance(xs), 2.0, 0.1);
  EXPECT_NEAR(Variance(ys), 1.0, 0.05);
  EXPECT_NEAR(Covariance(xs, ys), 0.8, 0.05);
}

// ---- Differential engine tests: std::mt19937_64 is the oracle for the raw
// word sequence, for every sampler's draws and for the state text.

// Seeds that exercise the seeding recurrence at its edges plus fork-derived
// ones as the bootstrap uses them.
std::vector<std::uint64_t> OracleSeeds() {
  std::vector<std::uint64_t> seeds = {
      0, 1, 5489, 0x8000000000000000ULL,
      std::numeric_limits<std::uint64_t>::max()};
  const Rng base(2024);
  for (std::uint64_t r = 0; r < 40; ++r) seeds.push_back(base.Fork(r).seed());
  return seeds;
}

// The draw counts where the lazily twisted first block and the full twist
// meet: around word 156 (last word reading seed word i + 156), the block
// end at 312 and the next two block ends; 40 is a bootstrap replicate's
// draw, which stops inside the lazily twisted block.
const std::vector<std::size_t> kBoundaryCounts = {
    0, 1, 40, 155, 156, 157, 311, 312, 313, 624, 625, 1300};

std::string OracleState(std::uint64_t seed, const std::mt19937_64& engine) {
  std::ostringstream os;
  os << seed << ' ' << engine;
  return os.str();
}

TEST(RngEngineTest, RawWordsMatchStdMt19937_64) {
  for (std::uint64_t seed : OracleSeeds()) {
    Rng rng(seed);
    std::mt19937_64 oracle(seed);
    for (std::size_t i = 0; i < 1400; ++i) {
      ASSERT_EQ(rng.NextUInt64(), oracle()) << "seed " << seed << " word " << i;
    }
  }
}

TEST(RngEngineTest, StandardTenThousandthOutput) {
  // [rand.predef]: the 10000th consecutive invocation of a default-constructed
  // mt19937_64 (seed 5489) produces 9981545732273789042.
  Rng rng(5489);
  std::uint64_t word = 0;
  for (int i = 0; i < 10000; ++i) word = rng.NextUInt64();
  EXPECT_EQ(word, 9981545732273789042ULL);
}

TEST(RngEngineTest, StateTextMatchesStdLayoutAndResumes) {
  for (std::uint64_t seed : {std::uint64_t{0}, std::uint64_t{5489},
                             Rng(77).Fork(3).seed()}) {
    for (std::size_t count : kBoundaryCounts) {
      Rng rng(seed);
      std::mt19937_64 oracle(seed);
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(rng.NextUInt64(), oracle());
      }
      const std::string state = rng.SerializeState();
      ASSERT_EQ(state, OracleState(seed, oracle))
          << "seed " << seed << " after " << count << " draws";

      Rng restored(1);
      ASSERT_TRUE(restored.DeserializeState(state).ok());
      EXPECT_EQ(restored.seed(), seed);
      // Copies carry the position too, also over a generator whose block
      // is further seeded than the source's.
      Rng copied = rng;
      Rng assigned(2);
      for (int i = 0; i < 500; ++i) assigned.NextUInt64();
      assigned = rng;
      for (std::size_t i = 0; i < 700; ++i) {
        const std::uint64_t want = oracle();
        ASSERT_EQ(restored.NextUInt64(), want)
            << "seed " << seed << " resumed at " << count << " + " << i;
        ASSERT_EQ(copied.NextUInt64(), want);
        ASSERT_EQ(assigned.NextUInt64(), want);
        // Serializing is a read: the original keeps drawing the same stream.
        ASSERT_EQ(rng.NextUInt64(), want);
      }
      EXPECT_EQ(restored.SerializeState(), OracleState(seed, oracle));
    }
  }
}

TEST(RngEngineTest, StdBackedSamplersMatchStdDistributions) {
  // Each std::-backed Rng helper against the same std:: distribution (or
  // composition of them) on std::mt19937_64, compared bit for bit and
  // interleaved so every helper also runs across the lazily twisted block and
  // block ends. Exponential and SymmetricDirichlet are bagcpd's own samplers
  // (pinned in RngSamplerPinTest); here they only have to consume exactly one
  // engine word per variate, so the oracle skips that many.
  const Matrix identity = Matrix::FromRows({{1.0, 0.0}, {0.0, 1.0}});
  for (std::uint64_t seed : {std::uint64_t{3}, Rng(9).Fork(0).seed()}) {
    Rng rng(seed);
    std::mt19937_64 e(seed);
    for (int round = 0; round < 60; ++round) {
      EXPECT_EQ(rng.Uniform(), std::uniform_real_distribution<double>(0, 1)(e));
      EXPECT_EQ(rng.Uniform(-2.0, 5.0),
                std::uniform_real_distribution<double>(-2.0, 5.0)(e));
      EXPECT_EQ(rng.UniformInt(-3, 1000),
                std::uniform_int_distribution<int>(-3, 1000)(e));
      EXPECT_EQ(rng.Gaussian(), std::normal_distribution<double>(0, 1)(e));
      EXPECT_EQ(rng.Gaussian(2.0, 0.5),
                std::normal_distribution<double>(2.0, 0.5)(e));
      EXPECT_EQ(rng.Poisson(7.5), std::poisson_distribution<int>(7.5)(e));
      EXPECT_EQ(rng.Poisson(0.01, 3),
                std::max(3, std::poisson_distribution<int>(0.01)(e)));
      EXPECT_EQ(rng.Bernoulli(0.3), std::bernoulli_distribution(0.3)(e));
      rng.Exponential(1.5);
      e.discard(1);
      EXPECT_EQ(rng.Gamma(0.7, 2.0),
                std::gamma_distribution<double>(0.7, 2.0)(e));

      const std::vector<double> alpha = {1.0, 2.5, 0.5};
      const std::vector<double> dir = rng.Dirichlet(alpha);
      std::vector<double> want_dir;
      double total = 0.0;
      for (double a : alpha) {
        want_dir.push_back(std::gamma_distribution<double>(a, 1.0)(e));
        total += want_dir.back();
      }
      for (double& v : want_dir) v /= total;
      EXPECT_EQ(dir, want_dir);

      rng.SymmetricDirichlet(4);
      e.discard(4);

      const std::vector<double> probs = {0.2, 0.3, 0.5};
      const std::vector<int> counts = rng.Multinomial(50, probs);
      std::vector<int> want_counts(3, 0);
      double remaining_prob = std::accumulate(probs.begin(), probs.end(), 0.0);
      int remaining = 50;
      for (std::size_t i = 0; i < 2 && remaining > 0; ++i) {
        const double p = std::clamp(probs[i] / remaining_prob, 0.0, 1.0);
        want_counts[i] = std::binomial_distribution<int>(remaining, p)(e);
        remaining -= want_counts[i];
        remaining_prob -= probs[i];
      }
      want_counts[2] += remaining;
      EXPECT_EQ(counts, want_counts);

      const std::vector<double> weights = {1.0, 2.0, 3.0};
      const std::size_t category = rng.Categorical(weights);
      double u = std::uniform_real_distribution<double>(0, 1)(e) * 6.0;
      std::size_t want_category = 2;
      for (std::size_t i = 0; i < 3; ++i) {
        u -= weights[i];
        if (u <= 0.0) {
          want_category = i;
          break;
        }
      }
      EXPECT_EQ(category, want_category);

      const Point iso = rng.MultivariateGaussianIso({1.0, -1.0}, 0.5);
      EXPECT_EQ(iso[0], std::normal_distribution<double>(1.0, 0.5)(e));
      EXPECT_EQ(iso[1], std::normal_distribution<double>(-1.0, 0.5)(e));
      const Point diag = rng.MultivariateGaussianDiag({0.0, 3.0}, {2.0, 0.1});
      EXPECT_EQ(diag[0], std::normal_distribution<double>(0.0, 2.0)(e));
      EXPECT_EQ(diag[1], std::normal_distribution<double>(3.0, 0.1)(e));
      // Identity covariance: the Cholesky factor adds exact zeros, so the
      // result is the standard normal draws themselves.
      const Point full = rng.MultivariateGaussian({0.0, 0.0}, identity);
      EXPECT_EQ(full[0], std::normal_distribution<double>(0, 1)(e));
      EXPECT_EQ(full[1], std::normal_distribution<double>(0, 1)(e));

      const std::vector<std::size_t> perm = rng.Permutation(9);
      std::vector<std::size_t> want_perm(9);
      std::iota(want_perm.begin(), want_perm.end(), std::size_t{0});
      for (std::size_t i = 9; i > 1; --i) {
        const int j = std::uniform_int_distribution<int>(
            0, static_cast<int>(i) - 1)(e);
        std::swap(want_perm[i - 1], want_perm[static_cast<std::size_t>(j)]);
      }
      EXPECT_EQ(perm, want_perm);
    }
    // Still in lockstep after all helpers.
    EXPECT_EQ(rng.NextUInt64(), e());
  }
}

// ---- bagcpd's own samplers: Exp(1) by inversion on one engine word, and the
// ---- flat Dirichlet built on it. Their first draws are pinned to literals,
// ---- so they cannot drift with the standard library or a refactor.

TEST(RngSamplerPinTest, ExponentialFirstDraws) {
  Rng rng(2024);
  EXPECT_EQ(rng.Exponential(1.0), 0x1.f5a9ada00d7ep-2);
  EXPECT_EQ(rng.Exponential(1.0), 0x1.d691da0402ba8p-3);
  EXPECT_EQ(rng.Exponential(1.0), 0x1.535729a8aa38ap+0);
  EXPECT_EQ(rng.Exponential(2.5), 0x1.c0cf15cef3c2bp-2);
}

TEST(RngSamplerPinTest, SymmetricDirichletFirstDraws) {
  Rng rng(2024);
  EXPECT_EQ(rng.SymmetricDirichlet(5),
            (std::vector<double>{0x1.e7ef60b9ee8f3p-5, 0x1.c9b15e1ee84c9p-6,
                                 0x1.4a0dfac47fa48p-3, 0x1.10d466c4026fcp-3,
                                 0x1.3c7ae6a1494f9p-1}));
  // The span form is the same sampler: it continues the same stream.
  std::vector<double> out(3);
  rng.SymmetricDirichlet(out.size(), out.data());
  EXPECT_EQ(out, (std::vector<double>{0x1.832dcd9decee8p-1,
                                      0x1.9e10c1dc080ebp-6,
                                      0x1.bf86b14ccb442p-3}));
}

TEST(RngSamplerPinTest, ExponentialIsInversionOnOneWord) {
  // The specification itself: -log(((w >> 11) + 1) * 2^-53) / rate on the
  // engine's next word, finite and >= 0 for every word.
  Rng rng(77);
  Rng words(77);
  for (int i = 0; i < 2000; ++i) {
    const double rate = 0.5 + (i % 7);
    const std::uint64_t w = words.NextUInt64();
    const double want =
        -std::log(static_cast<double>((w >> 11) + 1) * 0x1.0p-53) / rate;
    const double got = rng.Exponential(rate);
    ASSERT_EQ(got, want) << "draw " << i;
    ASSERT_TRUE(std::isfinite(got) && got >= 0.0) << "draw " << i;
  }
}

// ---- The state text is untrusted input (it arrives inside checkpoint and
// ---- spill blobs): malformed text is a typed error and changes nothing.

std::string ReplaceLastToken(const std::string& state, const std::string& to) {
  return state.substr(0, state.rfind(' ') + 1) + to;
}

void ExpectRejectedUntouched(const std::string& text, const std::string& why) {
  Rng victim(9);
  Rng twin(9);
  for (int i = 0; i < 3; ++i) {
    victim.NextUInt64();
    twin.NextUInt64();
  }
  const std::string before = victim.SerializeState();
  const Status status = victim.DeserializeState(text);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
      << why << ": " << status.ToString();
  EXPECT_EQ(victim.SerializeState(), before) << why;
  EXPECT_EQ(victim.seed(), 9u) << why;
  for (int i = 0; i < 400; ++i) {
    ASSERT_EQ(victim.NextUInt64(), twin.NextUInt64()) << why;
  }
}

TEST(RngStateTest, RejectsPositionPastBlockEnd) {
  Rng source(31);
  source.NextUInt64();
  const std::string state = source.SerializeState();
  ExpectRejectedUntouched(ReplaceLastToken(state, "313"), "position 313");
  ExpectRejectedUntouched(ReplaceLastToken(state, "18446744073709551615"),
                          "position 2^64-1");
  // 312 itself is the never-drawn / spent-block position and is valid.
  Rng rng(0);
  EXPECT_TRUE(rng.DeserializeState(ReplaceLastToken(state, "312")).ok());
}

TEST(RngStateTest, RejectsShortWordList) {
  Rng source(32);
  const std::string state = source.SerializeState();
  // Drop one state word: 312 numbers after the seed instead of 313.
  const std::size_t first = state.find(' ');
  const std::size_t second = state.find(' ', first + 1);
  ExpectRejectedUntouched(state.substr(0, first) + state.substr(second),
                          "311 words");
  ExpectRejectedUntouched(state.substr(0, state.rfind(' ')),
                          "missing position");
  ExpectRejectedUntouched("", "empty");
  ExpectRejectedUntouched("42", "seed only");
}

TEST(RngStateTest, RejectsTrailingBytes) {
  Rng source(33);
  const std::string state = source.SerializeState();
  ExpectRejectedUntouched(state + " 7", "extra number");
  ExpectRejectedUntouched(state + "x", "glued byte");
  ExpectRejectedUntouched(state + " \n#", "trailing comment");
  // Trailing white space alone is harmless.
  Rng rng(0);
  EXPECT_TRUE(rng.DeserializeState(state + " \n").ok());
}

TEST(RngStateTest, RejectsNonDecimalWords) {
  Rng source(34);
  const std::string state = source.SerializeState();
  const std::size_t first = state.find(' ');
  const std::string tail = state.substr(first);
  ExpectRejectedUntouched("-1" + tail, "negative seed");
  ExpectRejectedUntouched("+1" + tail, "signed seed");
  ExpectRejectedUntouched("18446744073709551616" + tail, "seed overflows");
  ExpectRejectedUntouched("0x10" + tail, "hex seed");
}

}  // namespace
}  // namespace bagcpd
