// Allocation budget of the bootstrap: the replicate loop draws into per-call
// (per-chunk when pooled) weight scratch, so the number of heap allocations
// one BootstrapScoreInterval call makes does not grow with the replicate
// count T. Counted by the test's replacement of the global operator new.

#include <vector>

#include <gtest/gtest.h>

#include "../alloc_counter.h"
#include "bagcpd/core/bootstrap.h"
#include "bagcpd/info/weighted_set.h"
#include "bagcpd/runtime/thread_pool.h"

namespace bagcpd {
namespace {

ScoreContext Context(std::size_t tau, std::size_t tau_prime) {
  ScoreContext ctx;
  ctx.log_ref_ref = Matrix(tau, tau, 0.3);
  ctx.log_test_test = Matrix(tau_prime, tau_prime, 0.4);
  ctx.log_ref_test = Matrix(tau, tau_prime, 1.0);
  for (std::size_t i = 0; i < tau; ++i) ctx.log_ref_ref(i, i) = 0.0;
  for (std::size_t i = 0; i < tau_prime; ++i) ctx.log_test_test(i, i) = 0.0;
  ctx.log_ref_test(0, 0) = 2.0;
  return ctx;
}

// Heap allocations made by one interval over `replicates` replicates.
long AllocationsPerCall(const std::vector<double>& pi_ref,
                        const std::vector<double>& pi_test, int replicates,
                        ThreadPool* pool) {
  const ScoreContext ctx = Context(pi_ref.size(), pi_test.size());
  BootstrapOptions options;
  options.replicates = replicates;
  Rng rng(5);
  alloc_counter::Reset();
  const bool ok = BootstrapScoreInterval(ScoreType::kSymmetrizedKl, ctx,
                                         pi_ref, pi_test, options, &rng, pool)
                      .ok();
  const long allocations = alloc_counter::calls.load();
  EXPECT_TRUE(ok);
  return allocations;
}

TEST(BootstrapAllocTest, UniformPriorAllocationsDoNotGrowWithReplicates) {
  const std::vector<double> pi(5, 0.2);
  const long small = AllocationsPerCall(pi, pi, 50, nullptr);
  EXPECT_EQ(AllocationsPerCall(pi, pi, 400, nullptr), small);
  EXPECT_LT(small, 20);
}

TEST(BootstrapAllocTest, DiscountedPriorAllocationsDoNotGrowWithReplicates) {
  const std::vector<double> ref = DiscountWeights(5, /*toward_end=*/true);
  const std::vector<double> test = DiscountWeights(5, /*toward_end=*/false);
  EXPECT_EQ(AllocationsPerCall(ref, test, 400, nullptr),
            AllocationsPerCall(ref, test, 50, nullptr));
}

TEST(BootstrapAllocTest, PooledAllocationsDoNotGrowWithReplicates) {
  ThreadPool pool(2);
  const std::vector<double> pi(5, 0.2);
  EXPECT_EQ(AllocationsPerCall(pi, pi, 400, &pool),
            AllocationsPerCall(pi, pi, 50, &pool));
}

}  // namespace
}  // namespace bagcpd
