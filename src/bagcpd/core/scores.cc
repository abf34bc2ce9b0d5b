#include "bagcpd/core/scores.h"

#include <cmath>

#include "bagcpd/common/check.h"
#include "bagcpd/common/enum_names.h"

namespace bagcpd {

const char* ScoreTypeName(ScoreType type) {
  switch (type) {
    case ScoreType::kLogLikelihoodRatio:
      return "lr";
    case ScoreType::kSymmetrizedKl:
      return "kl";
  }
  return "unknown";
}

const std::vector<ScoreType>& AllScoreTypes() {
  static const std::vector<ScoreType> kAll = {ScoreType::kLogLikelihoodRatio,
                                              ScoreType::kSymmetrizedKl};
  return kAll;
}

Result<ScoreType> ParseScoreType(const std::string& name) {
  if (name == "llr") return ScoreType::kLogLikelihoodRatio;
  if (name == "skl") return ScoreType::kSymmetrizedKl;
  return ParseNamedEnum(name, AllScoreTypes(), ScoreTypeName, "score type");
}

Status ScoreContext::Validate() const {
  if (log_ref_ref.rows() != log_ref_ref.cols()) {
    return Status::Invalid("log_ref_ref is not square");
  }
  if (log_test_test.rows() != log_test_test.cols()) {
    return Status::Invalid("log_test_test is not square");
  }
  if (log_ref_test.rows() != log_ref_ref.rows() ||
      log_ref_test.cols() != log_test_test.rows()) {
    return Status::Invalid("log_ref_test shape mismatch");
  }
  return Status::OK();
}

Status CheckScoreInputs(ScoreType type, const ScoreContext& ctx,
                        std::size_t ref_size, std::size_t test_size) {
  BAGCPD_RETURN_NOT_OK(ctx.Validate());
  if (ref_size != ctx.tau() || test_size != ctx.tau_prime()) {
    return Status::Invalid("weight vector size mismatch");
  }
  switch (type) {
    case ScoreType::kLogLikelihoodRatio:
      if (ctx.tau_prime() < 2) {
        return Status::Invalid(
            "scoreLR needs tau' >= 2 (S_test \\ S_t non-empty)");
      }
      return Status::OK();
    case ScoreType::kSymmetrizedKl:
      if (ctx.tau() < 2 || ctx.tau_prime() < 2) {
        return Status::Invalid("scoreKL needs tau >= 2 and tau' >= 2");
      }
      return Status::OK();
  }
  return Status::Invalid("unknown score type");
}

Result<double> ComputeCheckedScore(ScoreType type, const ScoreContext& ctx,
                                   const std::vector<double>& gamma_ref,
                                   const std::vector<double>& gamma_test) {
  if (type == ScoreType::kSymmetrizedKl) {
    const double cross =
        CrossEntropyFromLog(ctx.log_ref_test, gamma_ref, gamma_test, ctx.info);
    const double auto_ref =
        AutoEntropyFromLog(ctx.log_ref_ref, gamma_ref, ctx.info);
    const double auto_test =
        AutoEntropyFromLog(ctx.log_test_test, gamma_test, ctx.info);
    // Eq. 17; the c constants cancel.
    return cross - 0.5 * (auto_ref + auto_test);
  }

  // Eq. 16. I(S_t; S_ref): S_t is test element 0, so the distances are
  // column 0 of log_ref_test weighted by gamma_ref.
  double info_ref = 0.0;
  for (std::size_t i = 0; i < ctx.tau(); ++i) {
    info_ref += gamma_ref[i] * ctx.log_ref_test(i, 0);
  }

  // I(S_t; S_test \ S_t): test elements 1..tau'-1 with weights renormalized
  // by 1 / (1 - gamma_test[0]).
  const double denom = 1.0 - gamma_test[0];
  if (denom <= 0.0) {
    return Status::Invalid("gamma_test[0] == 1 leaves S_test \\ S_t empty");
  }
  double info_test = 0.0;
  for (std::size_t j = 1; j < ctx.tau_prime(); ++j) {
    info_test += (gamma_test[j] / denom) * ctx.log_test_test(j, 0);
  }

  const double d = ctx.info.d;
  return d * (info_ref - info_test);
}

Result<double> ComputeScore(ScoreType type, const ScoreContext& ctx,
                            const std::vector<double>& gamma_ref,
                            const std::vector<double>& gamma_test) {
  BAGCPD_RETURN_NOT_OK(
      CheckScoreInputs(type, ctx, gamma_ref.size(), gamma_test.size()));
  return ComputeCheckedScore(type, ctx, gamma_ref, gamma_test);
}

Result<double> ScoreLogLikelihoodRatio(const ScoreContext& ctx,
                                       const std::vector<double>& gamma_ref,
                                       const std::vector<double>& gamma_test) {
  return ComputeScore(ScoreType::kLogLikelihoodRatio, ctx, gamma_ref,
                      gamma_test);
}

Result<double> ScoreSymmetrizedKl(const ScoreContext& ctx,
                                  const std::vector<double>& gamma_ref,
                                  const std::vector<double>& gamma_test) {
  return ComputeScore(ScoreType::kSymmetrizedKl, ctx, gamma_ref, gamma_test);
}

}  // namespace bagcpd
