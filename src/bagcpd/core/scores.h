// Change-point scores (paper Eqs. 16-17) evaluated over a reference/test
// window pair. The hot-path entry points work on precomputed log-EMD tables
// (a ScoreContext) so the Bayesian bootstrap can recompute scores thousands of
// times while the EMDs are solved exactly once per window position.

#ifndef BAGCPD_CORE_SCORES_H_
#define BAGCPD_CORE_SCORES_H_

#include <string>
#include <vector>

#include "bagcpd/common/matrix.h"
#include "bagcpd/common/result.h"
#include "bagcpd/info/estimators.h"

namespace bagcpd {

/// \brief Which change-point score to compute.
enum class ScoreType {
  /// Eq. 16: log-likelihood-ratio style, sensitive but less robust.
  kLogLikelihoodRatio,
  /// Eq. 17: symmetrized KL, conservative and robust (the paper's default for
  /// the bipartite-graph experiments).
  kSymmetrizedKl,
};

/// \brief Short lowercase name ("lr" / "kl").
const char* ScoreTypeName(ScoreType type);

/// \brief Every score type, in declaration order (api/ registry name table).
const std::vector<ScoreType>& AllScoreTypes();

/// \brief Inverse of ScoreTypeName. Accepts the aliases "llr" (kLogLikelihoodRatio)
/// and "skl" (kSymmetrizedKl); rejects unknown names.
Result<ScoreType> ParseScoreType(const std::string& name);

/// \brief Precomputed log-EMD tables for one inspection point t.
///
/// Reference window has tau elements (indices 0..tau-1 = times t-tau..t-1,
/// oldest first); test window has tau_prime elements (indices 0..tau_prime-1 =
/// times t..t+tau_prime-1). S_t itself is test element 0.
struct ScoreContext {
  /// log EMD within the reference window (tau x tau, diagonal ignored).
  Matrix log_ref_ref;
  /// log EMD within the test window (tau' x tau', diagonal ignored).
  Matrix log_test_test;
  /// log EMD across windows (tau x tau').
  Matrix log_ref_test;
  /// Estimator constants (c cancels; d scales).
  InfoEstimatorOptions info;

  std::size_t tau() const { return log_ref_ref.rows(); }
  std::size_t tau_prime() const { return log_test_test.rows(); }

  /// \brief Shape consistency check.
  Status Validate() const;
};

/// \brief Eq. 16: scoreLR(S_t) = I(S_t; S_ref) - I(S_t; S_test \ S_t).
///
/// The weights of S_test \ S_t are the test weights excluding element 0,
/// renormalized to the simplex. Requires tau' >= 2.
Result<double> ScoreLogLikelihoodRatio(const ScoreContext& ctx,
                                       const std::vector<double>& gamma_ref,
                                       const std::vector<double>& gamma_test);

/// \brief Eq. 17: scoreKL(S_t) = H(S_ref,S_test) - (H(S_ref) + H(S_test)) / 2.
/// Requires tau >= 2 and tau' >= 2.
Result<double> ScoreSymmetrizedKl(const ScoreContext& ctx,
                                  const std::vector<double>& gamma_ref,
                                  const std::vector<double>& gamma_test);

/// \brief Dispatches on `type`: CheckScoreInputs, then ComputeCheckedScore.
Result<double> ComputeScore(ScoreType type, const ScoreContext& ctx,
                            const std::vector<double>& gamma_ref,
                            const std::vector<double>& gamma_test);

/// \brief The input checks of ComputeScore: the context's shape, weight
/// vectors of `ref_size` and `test_size` entries, and the window sizes
/// `type` needs.
Status CheckScoreInputs(ScoreType type, const ScoreContext& ctx,
                        std::size_t ref_size, std::size_t test_size);

/// \brief ComputeScore on inputs CheckScoreInputs already accepted, for a
/// caller that scores many weight vectors over one context (the bootstrap's
/// replicate loop). Only a weight value can still fail: scoreLR with
/// gamma_test[0] == 1.
Result<double> ComputeCheckedScore(ScoreType type, const ScoreContext& ctx,
                                   const std::vector<double>& gamma_ref,
                                   const std::vector<double>& gamma_test);

}  // namespace bagcpd

#endif  // BAGCPD_CORE_SCORES_H_
