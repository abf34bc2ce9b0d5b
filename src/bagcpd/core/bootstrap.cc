#include "bagcpd/core/bootstrap.h"

#include <algorithm>
#include <cmath>

#include "bagcpd/common/check.h"
#include "bagcpd/common/enum_names.h"
#include "bagcpd/common/stats.h"
#include "bagcpd/runtime/thread_pool.h"

namespace bagcpd {

const char* BootstrapMethodName(BootstrapMethod method) {
  switch (method) {
    case BootstrapMethod::kBayesian:
      return "bayesian";
    case BootstrapMethod::kStandard:
      return "standard";
  }
  return "unknown";
}

const std::vector<BootstrapMethod>& AllBootstrapMethods() {
  static const std::vector<BootstrapMethod> kAll = {BootstrapMethod::kBayesian,
                                                    BootstrapMethod::kStandard};
  return kAll;
}

Result<BootstrapMethod> ParseBootstrapMethod(const std::string& name) {
  return ParseNamedEnum(name, AllBootstrapMethods(), BootstrapMethodName,
                        "bootstrap method");
}

namespace {

// Appendix A: a uniform prior reduces Dir(n * pi) to Dir(1, ..., 1). Decided
// from the prior itself, never by comparing n * pi_i with 1.0: for n = 49
// that product is 0.9999999999999999.
bool IsUniform(const std::vector<double>& pi) {
  return std::all_of(pi.begin(), pi.end(),
                     [&pi](double p) { return p == pi.front(); });
}

// Appendix B's concentration alpha_i = n * pi_i, floored so a zero prior
// weight stays a valid Gamma shape; empty under the flat sampler.
std::vector<double> Concentration(const std::vector<double>& pi, bool flat) {
  if (flat) return {};
  std::vector<double> alpha(pi.size());
  for (std::size_t i = 0; i < pi.size(); ++i) {
    alpha[i] = std::max(static_cast<double>(pi.size()) * pi[i], 1e-9);
  }
  return alpha;
}

// Writes one replicate of a window's weights to out[0, pi.size()). Standard:
// multinomial(n, pi) / n. Bayesian: Dir(1, ..., 1) by exponential inversion
// when `alpha` is empty, Dir(alpha) through Gamma draws otherwise.
void DrawWeights(BootstrapMethod method, const std::vector<double>& pi,
                 const std::vector<double>& alpha, Rng* rng, double* out) {
  const std::size_t n = pi.size();
  if (method == BootstrapMethod::kStandard) {
    const std::vector<int> counts = rng->Multinomial(static_cast<int>(n), pi);
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = static_cast<double>(counts[i]) / static_cast<double>(n);
    }
  } else if (alpha.empty()) {
    rng->SymmetricDirichlet(n, out);
  } else {
    rng->Dirichlet(alpha, out);
  }
}

}  // namespace

std::vector<double> ResampleWeights(BootstrapMethod method,
                                    const std::vector<double>& pi, Rng* rng) {
  BAGCPD_CHECK(!pi.empty());
  std::vector<double> gamma(pi.size());
  DrawWeights(method, pi, Concentration(pi, IsUniform(pi)), rng, gamma.data());
  return gamma;
}

Result<BootstrapInterval> BootstrapScoreInterval(
    ScoreType score_type, const ScoreContext& ctx,
    const std::vector<double>& pi_ref, const std::vector<double>& pi_test,
    const BootstrapOptions& options, Rng* rng, ThreadPool* pool) {
  if (options.replicates < 2) {
    return Status::Invalid("need at least 2 bootstrap replicates");
  }
  if (options.alpha <= 0.0 || options.alpha >= 1.0) {
    return Status::Invalid("alpha must be in (0, 1)");
  }
  // Every replicate scores the same context with weights shaped like the
  // priors, so the score's input checks (context shape, weight sizes) run
  // once here instead of once per replicate.
  BAGCPD_RETURN_NOT_OK(
      CheckScoreInputs(score_type, ctx, pi_ref.size(), pi_test.size()));

  // The flat Dir(1, ..., 1) sampler needs both priors uniform, so a
  // discounted prior keeps its Gamma draws in both windows.
  const bool flat = IsUniform(pi_ref) && IsUniform(pi_test);
  const std::vector<double> alpha_ref = Concentration(pi_ref, flat);
  const std::vector<double> alpha_test = Concentration(pi_test, flat);

  // One engine word seeds the whole replicate set; replicate r then draws
  // from Fork(r), its own stream. The caller's rng advances identically
  // whether or not a pool is attached, and replicate r's draws never depend
  // on which thread (or chunk) ran it: fixed seed => bitwise-identical
  // intervals for any thread count.
  const Rng replicate_base(rng->NextUInt64());
  const std::size_t replicates = static_cast<std::size_t>(options.replicates);
  std::vector<double> replicate_scores(replicates, 0.0);
  std::vector<Status> replicate_status(replicates, Status::OK());
  // Each chunk of replicates draws into its own weight scratch, so the
  // Bayesian replicate loop allocates nothing (the standard bootstrap's
  // multinomial counts still do).
  auto run_chunk = [&](std::size_t begin, std::size_t end) {
    std::vector<double> gamma_ref(pi_ref.size());
    std::vector<double> gamma_test(pi_test.size());
    for (std::size_t r = begin; r < end; ++r) {
      Rng rep_rng = replicate_base.Fork(r);
      // The standard bootstrap can draw gamma_test[0] == 1 (every resample
      // hit element 0), which makes scoreLR undefined; redraw in that rare
      // case.
      for (int attempt = 0; attempt < 64; ++attempt) {
        DrawWeights(options.method, pi_ref, alpha_ref, &rep_rng,
                    gamma_ref.data());
        DrawWeights(options.method, pi_test, alpha_test, &rep_rng,
                    gamma_test.data());
        Result<double> score =
            ComputeCheckedScore(score_type, ctx, gamma_ref, gamma_test);
        if (score.ok()) {
          replicate_scores[r] = score.ValueOrDie();
          break;
        }
        if (attempt == 63) replicate_status[r] = score.status();
      }
    }
  };
  if (pool != nullptr) {
    pool->ParallelForChunked(0, replicates, run_chunk);
  } else {
    run_chunk(0, replicates);
  }
  for (const Status& status : replicate_status) {
    BAGCPD_RETURN_NOT_OK(status);
  }

  BAGCPD_ASSIGN_OR_RETURN(Interval interval,
                          CentralInterval(replicate_scores, options.alpha));
  BootstrapInterval out;
  out.lo = interval.lo;
  out.up = interval.up;
  out.replicate_mean = Mean(replicate_scores);
  out.replicate_stddev = StdDev(replicate_scores);
  return out;
}

}  // namespace bagcpd
