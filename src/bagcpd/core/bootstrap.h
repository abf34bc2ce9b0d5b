// Confidence intervals for change-point scores via the Bayesian bootstrap
// (paper Section 4.2, Appendices A-B; Rubin 1981). At each inspection point
// the window weights are resampled T times:
//
//   {gamma_ref}  ~ Dir(tau  * pi_ref)     (Eq. 21; Dir(1,...,1) when uniform)
//   {gamma_test} ~ Dir(tau' * pi_test)    (Eq. 22)
//
// and the score recomputed from the cached log-EMD tables, yielding the
// [alpha/2, 1-alpha/2] quantile interval. A uniform prior selects the flat
// Dir(1,...,1) sampler: tau (or tau') Exp(1) variates, each by inversion on
// one engine word, normalized. Any other prior draws Dir(n * pi) through
// Gamma variates. A standard (multinomial) bootstrap is provided for the
// ablation study of the smoothness claim in Section 4.2.

#ifndef BAGCPD_CORE_BOOTSTRAP_H_
#define BAGCPD_CORE_BOOTSTRAP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bagcpd/common/result.h"
#include "bagcpd/common/rng.h"
#include "bagcpd/core/scores.h"

namespace bagcpd {

class ThreadPool;

/// \brief Which resampling scheme generates the weight replicates.
enum class BootstrapMethod {
  /// Dirichlet posterior weights (the paper's choice).
  kBayesian,
  /// Classical multinomial resampling proportions (ablation baseline).
  kStandard,
};

/// \brief Short lowercase name ("bayesian" / "standard").
const char* BootstrapMethodName(BootstrapMethod method);

/// \brief Every bootstrap method, in declaration order (api/ registry table).
const std::vector<BootstrapMethod>& AllBootstrapMethods();

/// \brief Inverse of BootstrapMethodName; rejects unknown names.
Result<BootstrapMethod> ParseBootstrapMethod(const std::string& name);

/// \brief Configuration of the bootstrap procedure.
struct BootstrapOptions {
  /// Number of replicates T.
  int replicates = 200;
  /// Significance level alpha; the CI covers 1 - alpha.
  double alpha = 0.05;
  BootstrapMethod method = BootstrapMethod::kBayesian;
};

/// \brief A bootstrap confidence interval with its replicate summary.
struct BootstrapInterval {
  double lo = 0.0;
  double up = 0.0;
  double replicate_mean = 0.0;
  double replicate_stddev = 0.0;
};

/// \brief Draws one weight replicate for a window of size n with base weights
/// `pi` (simplex). Bayesian: Dir(n * pi), drawn by Rng::SymmetricDirichlet
/// when every entry of `pi` is equal (Appendix A's Dir(1, ..., 1)) and by
/// Rng::Dirichlet otherwise. Standard: multinomial(n, pi) / n.
std::vector<double> ResampleWeights(BootstrapMethod method,
                                    const std::vector<double>& pi, Rng* rng);

/// \brief Bootstraps the chosen change-point score over a fixed ScoreContext.
///
/// `pi_ref` / `pi_test` are the base (prior) weights of the two windows; pass
/// uniform vectors for the paper's default. When both are uniform, the
/// Bayesian replicates draw Dir(1, ..., 1) by exponential inversion; any
/// other prior draws Dir(n * pi) through Gamma variates, as ResampleWeights
/// does. The same EMD tables in `ctx` are reused by every replicate, and
/// the replicate loop allocates nothing for the Bayesian bootstrap.
///
/// Each replicate draws from its own RNG stream forked off one fresh base
/// seed pulled from `rng` (which advances by exactly one word per call), so
/// the interval is bitwise-identical whether the replicate loop runs
/// serially or chunked over `pool` — and for any pool size. Pass
/// `pool == nullptr` for the serial loop.
Result<BootstrapInterval> BootstrapScoreInterval(
    ScoreType score_type, const ScoreContext& ctx,
    const std::vector<double>& pi_ref, const std::vector<double>& pi_test,
    const BootstrapOptions& options, Rng* rng, ThreadPool* pool = nullptr);

}  // namespace bagcpd

#endif  // BAGCPD_CORE_BOOTSTRAP_H_
