#include "bagcpd/core/bootstrap.h"

#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "bagcpd/common/stats.h"
#include "bagcpd/info/weighted_set.h"
#include "bagcpd/runtime/thread_pool.h"

namespace bagcpd {
namespace {

std::vector<double> UniformPi(std::size_t n) {
  return std::vector<double>(n, 1.0 / static_cast<double>(n));
}

ScoreContext SimpleContext(std::size_t tau, std::size_t tau_prime) {
  ScoreContext ctx;
  ctx.log_ref_ref = Matrix(tau, tau, 0.3);
  ctx.log_test_test = Matrix(tau_prime, tau_prime, 0.4);
  ctx.log_ref_test = Matrix(tau, tau_prime, 1.0);
  for (std::size_t i = 0; i < tau; ++i) ctx.log_ref_ref(i, i) = 0.0;
  for (std::size_t i = 0; i < tau_prime; ++i) ctx.log_test_test(i, i) = 0.0;
  // Perturb so the score actually varies with the weights.
  ctx.log_ref_test(0, 0) = 2.0;
  ctx.log_ref_ref(0, 1) = 0.9;
  ctx.log_ref_ref(1, 0) = 0.9;
  return ctx;
}

// Appendix A: with uniform priors the Bayesian bootstrap weights are
// Dir(1, ..., 1): E[g_i] = 1/n, var[g_i] = (n - 1) / (n^2 (n + 1)),
// cor[g_i, g_j] = -1 / (n - 1).
TEST(BootstrapTest, BayesianWeightsMatchAppendixMoments) {
  const std::size_t n = 5;
  Rng rng(17);
  const int trials = 20000;
  std::vector<double> g0(trials), g1(trials);
  for (int t = 0; t < trials; ++t) {
    std::vector<double> g =
        ResampleWeights(BootstrapMethod::kBayesian, UniformPi(n), &rng);
    g0[t] = g[0];
    g1[t] = g[1];
  }
  const double nd = static_cast<double>(n);
  EXPECT_NEAR(Mean(g0), 1.0 / nd, 0.003);
  EXPECT_NEAR(Variance(g0), (nd - 1.0) / (nd * nd * (nd + 1.0)), 0.002);
  EXPECT_NEAR(Correlation(g0, g1), -1.0 / (nd - 1.0), 0.03);
}

// Appendix A: the standard bootstrap proportions f_i have E[f_i] = 1/n and
// var[f_i] = (n - 1)/n^3 = var[g_i] * (n + 1)/n.
TEST(BootstrapTest, StandardWeightsMatchAppendixMoments) {
  const std::size_t n = 5;
  Rng rng(18);
  const int trials = 20000;
  std::vector<double> f0(trials);
  for (int t = 0; t < trials; ++t) {
    std::vector<double> f =
        ResampleWeights(BootstrapMethod::kStandard, UniformPi(n), &rng);
    f0[t] = f[0];
  }
  const double nd = static_cast<double>(n);
  EXPECT_NEAR(Mean(f0), 1.0 / nd, 0.003);
  EXPECT_NEAR(Variance(f0), (nd - 1.0) / (nd * nd * nd), 0.002);
}

// Appendix B: with weighted priors pi, E[g_i] = pi_i and
// var[g_i] = pi_i (1 - pi_i) / (n + 1).
TEST(BootstrapTest, WeightedPriorMoments) {
  const std::vector<double> pi = {0.5, 0.3, 0.2};
  Rng rng(19);
  const int trials = 20000;
  std::vector<double> g0(trials);
  for (int t = 0; t < trials; ++t) {
    std::vector<double> g =
        ResampleWeights(BootstrapMethod::kBayesian, pi, &rng);
    g0[t] = g[0];
  }
  EXPECT_NEAR(Mean(g0), 0.5, 0.005);
  EXPECT_NEAR(Variance(g0), 0.5 * 0.5 / 4.0, 0.005);
}

TEST(BootstrapTest, WeightsAlwaysOnSimplex) {
  Rng rng(20);
  for (BootstrapMethod method :
       {BootstrapMethod::kBayesian, BootstrapMethod::kStandard}) {
    for (int t = 0; t < 200; ++t) {
      std::vector<double> g = ResampleWeights(method, UniformPi(7), &rng);
      double total = 0.0;
      for (double v : g) {
        EXPECT_GE(v, 0.0);
        total += v;
      }
      EXPECT_NEAR(total, 1.0, 1e-9);
    }
  }
}

// The Section 4.2 claim: with a small window the Bayesian bootstrap produces
// a smooth (continuous) replicate distribution while the standard bootstrap
// collapses onto few atoms.
TEST(BootstrapTest, BayesianSmootherThanStandardForSmallWindows) {
  Rng rng(21);
  const std::size_t n = 4;
  std::set<double> bayes_values;
  std::set<double> standard_values;
  for (int t = 0; t < 300; ++t) {
    std::vector<double> gb =
        ResampleWeights(BootstrapMethod::kBayesian, UniformPi(n), &rng);
    std::vector<double> gs =
        ResampleWeights(BootstrapMethod::kStandard, UniformPi(n), &rng);
    bayes_values.insert(std::round(gb[0] * 1e9) / 1e9);
    standard_values.insert(std::round(gs[0] * 1e9) / 1e9);
  }
  // Standard proportions live on {0, 1/4, 2/4, 3/4, 1}: at most 5 atoms.
  EXPECT_LE(standard_values.size(), 5u);
  EXPECT_GT(bayes_values.size(), 250u);
}

TEST(BootstrapTest, IntervalContainsCentralMass) {
  ScoreContext ctx = SimpleContext(5, 5);
  BootstrapOptions options;
  options.replicates = 400;
  options.alpha = 0.05;
  Rng rng(22);
  Result<BootstrapInterval> ci =
      BootstrapScoreInterval(ScoreType::kSymmetrizedKl, ctx, UniformPi(5),
                             UniformPi(5), options, &rng);
  ASSERT_TRUE(ci.ok());
  EXPECT_LE(ci->lo, ci->up);
  EXPECT_GE(ci->replicate_stddev, 0.0);
  // The point score with uniform base weights should fall inside the CI.
  const double point =
      ComputeScore(ScoreType::kSymmetrizedKl, ctx, UniformPi(5), UniformPi(5))
          .ValueOrDie();
  EXPECT_GE(point, ci->lo - 3.0 * ci->replicate_stddev);
  EXPECT_LE(point, ci->up + 3.0 * ci->replicate_stddev);
}

TEST(BootstrapTest, TighterAlphaWidensInterval) {
  ScoreContext ctx = SimpleContext(5, 5);
  BootstrapOptions wide;
  wide.replicates = 600;
  wide.alpha = 0.01;
  BootstrapOptions narrow;
  narrow.replicates = 600;
  narrow.alpha = 0.5;
  Rng rng1(23), rng2(23);
  const BootstrapInterval ci_wide =
      BootstrapScoreInterval(ScoreType::kSymmetrizedKl, ctx, UniformPi(5),
                             UniformPi(5), wide, &rng1)
          .ValueOrDie();
  const BootstrapInterval ci_narrow =
      BootstrapScoreInterval(ScoreType::kSymmetrizedKl, ctx, UniformPi(5),
                             UniformPi(5), narrow, &rng2)
          .ValueOrDie();
  EXPECT_GT(ci_wide.up - ci_wide.lo, ci_narrow.up - ci_narrow.lo);
}

TEST(BootstrapTest, WorksForLrScore) {
  ScoreContext ctx = SimpleContext(5, 5);
  BootstrapOptions options;
  options.replicates = 100;
  Rng rng(24);
  Result<BootstrapInterval> ci = BootstrapScoreInterval(
      ScoreType::kLogLikelihoodRatio, ctx, UniformPi(5), UniformPi(5), options,
      &rng);
  ASSERT_TRUE(ci.ok());
  EXPECT_LE(ci->lo, ci->up);
}

TEST(BootstrapTest, StandardBootstrapHandlesDegenerateTestDraws) {
  // With tau' = 2 the standard bootstrap frequently draws gamma_test = (1, 0)
  // which is invalid for scoreLR; the implementation must retry, not fail.
  ScoreContext ctx = SimpleContext(3, 2);
  BootstrapOptions options;
  options.replicates = 200;
  options.method = BootstrapMethod::kStandard;
  Rng rng(25);
  Result<BootstrapInterval> ci = BootstrapScoreInterval(
      ScoreType::kLogLikelihoodRatio, ctx, UniformPi(3), UniformPi(2), options,
      &rng);
  ASSERT_TRUE(ci.ok());
}

TEST(BootstrapTest, RejectsBadOptions) {
  ScoreContext ctx = SimpleContext(3, 3);
  Rng rng(26);
  BootstrapOptions too_few;
  too_few.replicates = 1;
  EXPECT_FALSE(BootstrapScoreInterval(ScoreType::kSymmetrizedKl, ctx,
                                      UniformPi(3), UniformPi(3), too_few, &rng)
                   .ok());
  BootstrapOptions bad_alpha;
  bad_alpha.alpha = 1.5;
  EXPECT_FALSE(BootstrapScoreInterval(ScoreType::kSymmetrizedKl, ctx,
                                      UniformPi(3), UniformPi(3), bad_alpha,
                                      &rng)
                   .ok());
  BootstrapOptions ok_options;
  EXPECT_FALSE(BootstrapScoreInterval(ScoreType::kSymmetrizedKl, ctx,
                                      UniformPi(2), UniformPi(3), ok_options,
                                      &rng)
                   .ok());
}

// Appendix A's Dir(1, ..., 1) is chosen from the prior, not by testing
// n * pi_i == 1.0: for n = 49 that product is 0.9999999999999999, and the
// uniform prior must still take the flat sampler.
TEST(BootstrapTest, UniformPriorOf49TakesTheFlatDirichlet) {
  const std::size_t n = 49;
  ASSERT_NE(static_cast<double>(n) * (1.0 / static_cast<double>(n)), 1.0);
  Rng resampled(40);
  Rng flat(40);
  for (int t = 0; t < 20; ++t) {
    EXPECT_EQ(ResampleWeights(BootstrapMethod::kBayesian, UniformPi(n),
                              &resampled),
              flat.SymmetricDirichlet(n))
        << "draw " << t;
  }
}

// The interval over uniform priors is the central interval of the scores of
// Dir(1, ..., 1) replicates, replicate r drawn from Fork(r) of one word of
// the caller's generator: the reference window's weights, then the test
// window's. Serial and pooled runs both meet that definition.
TEST(BootstrapTest, UniformIntervalIsFlatDirichletOverForkedStreams) {
  const std::size_t tau = 49;
  const std::size_t tau_prime = 3;
  const ScoreContext ctx = SimpleContext(tau, tau_prime);
  BootstrapOptions options;
  options.replicates = 50;

  Rng oracle_rng(41);
  const Rng base(oracle_rng.NextUInt64());
  std::vector<double> scores;
  for (int r = 0; r < options.replicates; ++r) {
    Rng rep = base.Fork(static_cast<std::uint64_t>(r));
    const std::vector<double> gamma_ref = rep.SymmetricDirichlet(tau);
    const std::vector<double> gamma_test = rep.SymmetricDirichlet(tau_prime);
    scores.push_back(ComputeScore(ScoreType::kSymmetrizedKl, ctx, gamma_ref,
                                  gamma_test)
                         .ValueOrDie());
  }
  const Interval want = CentralInterval(scores, options.alpha).ValueOrDie();
  const std::uint64_t next_word = oracle_rng.NextUInt64();

  ThreadPool pool(2);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    Rng rng(41);
    const BootstrapInterval ci =
        BootstrapScoreInterval(ScoreType::kSymmetrizedKl, ctx, UniformPi(tau),
                               UniformPi(tau_prime), options, &rng, p)
            .ValueOrDie();
    EXPECT_EQ(ci.lo, want.lo);
    EXPECT_EQ(ci.up, want.up);
    EXPECT_EQ(ci.replicate_mean, Mean(scores));
    EXPECT_EQ(rng.NextUInt64(), next_word);
  }
}

// The discounted prior (Gamma draws) and the standard bootstrap (multinomial
// draws) are outside the flat sampler: their intervals are pinned to the
// values they had before it existed, bit for bit, together with the one word
// each call takes from the caller's generator.
TEST(BootstrapTest, DiscountedAndStandardIntervalsArePinned) {
  const ScoreContext ctx = SimpleContext(5, 5);
  BootstrapOptions bayesian;
  bayesian.replicates = 100;
  Rng discounted_rng(31);
  const BootstrapInterval discounted =
      BootstrapScoreInterval(ScoreType::kSymmetrizedKl, ctx,
                             DiscountWeights(5, /*toward_end=*/true),
                             DiscountWeights(5, /*toward_end=*/false),
                             bayesian, &discounted_rng)
          .ValueOrDie();
  EXPECT_EQ(discounted.lo, 0x1.4c4ef4723feadp-1);
  EXPECT_EQ(discounted.up, 0x1.b6d577bd4d67cp-1);
  EXPECT_EQ(discounted.replicate_mean, 0x1.5f9e0e8da84e1p-1);
  EXPECT_EQ(discounted.replicate_stddev, 0x1.c14b209406447p-5);
  EXPECT_EQ(discounted_rng.NextUInt64(), 6018678912578767671ULL);

  BootstrapOptions standard;
  standard.replicates = 100;
  standard.method = BootstrapMethod::kStandard;
  Rng standard_rng(32);
  const BootstrapInterval classic =
      BootstrapScoreInterval(ScoreType::kLogLikelihoodRatio, ctx,
                             UniformPi(5), UniformPi(5), standard,
                             &standard_rng)
          .ValueOrDie();
  EXPECT_EQ(classic.lo, 0x1.3333333333332p-1);
  EXPECT_EQ(classic.up, 0x1.3333333333332p+0);
  EXPECT_EQ(classic.replicate_mean, 0x1.9cac083126e96p-1);
  EXPECT_EQ(classic.replicate_stddev, 0x1.7fc685fa504dep-3);
  EXPECT_EQ(standard_rng.NextUInt64(), 17885545588504842117ULL);
}

TEST(BootstrapTest, MethodNames) {
  EXPECT_STREQ(BootstrapMethodName(BootstrapMethod::kBayesian), "bayesian");
  EXPECT_STREQ(BootstrapMethodName(BootstrapMethod::kStandard), "standard");
}

}  // namespace
}  // namespace bagcpd
