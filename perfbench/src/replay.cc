// Replay lane: the engine-internal layers are not instrumented, so the
// traced run re-drives sampled streams through a standalone detector and,
// beside each timed Push, calls the public function of every layer Push
// uses on the same window. The replayed calls are recorded as children of
// the Push span, which makes Push's self time the part no layer call
// explains (window bookkeeping, the rolling table, the alarm test).

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <map>

#include "bagcpd/common/buffer_arena.h"
#include "bagcpd/common/matrix.h"
#include "bagcpd/common/rng.h"
#include "bagcpd/core/bootstrap.h"
#include "bagcpd/core/scores.h"
#include "bagcpd/emd/approx/emd_solver.h"
#include "bagcpd/signature/builder.h"
#include "bench.h"

namespace perfbench {

using bagcpd::BagStreamDetector;
using bagcpd::Signature;
using bagcpd::SignatureView;

void References::Add(std::size_t k, const std::string& key,
                     const DetectorOptions& detector,
                     std::uint64_t engine_seed) {
  ReplayStream stream;
  stream.key = key;
  stream.options = detector;
  stream.options.seed = bagcpd::DerivePerStreamSeed(
      engine_seed, key, bagcpd::kDefaultProfileName);
  detectors_.push_back(
      Must(BagStreamDetector::Create(stream.options), "reference detector"));
  keys_.push_back(k);
  streams_.push_back(std::move(stream));
  steps_.emplace_back();
}

void References::Feed(std::size_t j, BagView bag) {
  streams_[j].bags.push_back(bag);
  auto step = Must(detectors_[j]->Push(bag), "reference Push");
  if (step.has_value()) steps_[j].push_back(*step);
}

std::size_t References::CatchUp(std::size_t j,
                                const std::vector<std::size_t>& accepted,
                                const BagStore& store) {
  const std::size_t seen = streams_[j].bags.size();
  for (std::size_t p = seen; p < accepted.size(); ++p) {
    Feed(j, store.view(accepted[p]));
  }
  return accepted.size() - seen;
}

std::string References::Mismatch(const EventLog& log) const {
  for (std::size_t j = 0; j < keys_.size(); ++j) {
    std::string detail;
    if (!SameSteps(log.steps(keys_[j]), steps_[j], &detail)) {
      return streams_[j].key + ": " + detail;
    }
  }
  return std::string();
}

std::vector<ReplayStream> References::Streams(std::size_t n) const {
  const std::size_t count = std::min(n, streams_.size());
  return std::vector<ReplayStream>(
      streams_.begin(),
      streams_.begin() + static_cast<std::ptrdiff_t>(count));
}

namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

struct ReplayCounters {
  std::vector<double> solves_per_step;
  std::uint64_t steady_allocs = 0;
  std::uint64_t steps = 0;
  std::uint64_t mismatches = 0;
  std::string first_mismatch;
  std::vector<double> blob_bytes;
};

// Log-EMD table of the replay, keyed by (older, newer) global bag index.
using PairTable = std::map<std::pair<std::uint64_t, std::uint64_t>, double>;

void ReplayOne(const ReplayStream& stream, std::uint64_t bag_base,
               bagcpd::BufferArena* arena, Tracer* tracer,
               ReplayCounters* counters) {
  const DetectorOptions& o = stream.options;
  const std::size_t tau = o.tau;
  const std::size_t tau_prime = o.tau_prime;
  const std::size_t w = tau + tau_prime;
  const int replicates = o.bootstrap.replicates;

  auto detector = Must(BagStreamDetector::Create(o), "replay detector");
  detector->set_buffer_arena(arena);
  auto twin = Must(BagStreamDetector::Create(o), "replay import target");
  const bagcpd::SignatureBuilder builder(o.signature);
  bagcpd::EmdSolver solver(o.emd);
  // The detector's bootstrap draws one word from its generator per step;
  // a generator seeded alike replays the same intervals.
  bagcpd::Rng boot_rng(o.seed);
  const std::vector<double> pi_ref(tau, 1.0 / static_cast<double>(tau));
  const std::vector<double> pi_test(tau_prime,
                                    1.0 / static_cast<double>(tau_prime));
  const bool uniform = o.weight_scheme == bagcpd::WeightScheme::kUniform;

  std::deque<Signature> ring;
  PairTable table;
  std::vector<SignatureView> lefts;
  std::vector<double> emd(w, 0.0);
  bagcpd::ScoreContext ctx;
  ctx.info = o.info;
  ctx.log_ref_ref = bagcpd::Matrix(tau, tau, 0.0);
  ctx.log_test_test = bagcpd::Matrix(tau_prime, tau_prime, 0.0);
  ctx.log_ref_test = bagcpd::Matrix(tau, tau_prime, 0.0);
  std::string blob;
  std::uint64_t scored = 0;

  for (std::size_t idx = 0; idx < stream.bags.size(); ++idx) {
    const BagView bag = stream.bags[idx];
    const std::uint64_t bag_id = bag_base + idx;
    const std::uint64_t solves_before = detector->emd_solver().solve_count();
    const std::uint64_t allocs_before =
        detector->emd_solver().allocation_count();
    // Warm-up pushes only buffer; the first scoring push fills the whole
    // table. Both get their own span names so "core.push" is steady state.
    const bool full = idx + 1 >= w;
    const bool steady = idx + 1 > w;
    const char* push_name =
        steady ? "core.push" : (full ? "core.push.prime" : "core.push.warmup");
    const std::uint32_t push = tracer->Begin(push_name, 0, bag_id);
    auto pushed = Must(detector->Push(bag), "replay Push");
    tracer->End(push);
    const std::uint64_t solves =
        detector->emd_solver().solve_count() - solves_before;
    if (steady) {
      counters->solves_per_step.push_back(static_cast<double>(solves));
      // Scratch reaches its working size on the priming push; any growth
      // after the first steady step is a steady-state allocation.
      if (idx + 1 > w + 1) {
        counters->steady_allocs +=
            detector->emd_solver().allocation_count() - allocs_before;
      }
    }

    {
      ScopedSpan span(tracer, "signature.build", push, bag_id);
      ring.push_back(Must(builder.Build(bag, idx), "SignatureBuilder::Build"));
    }
    if (ring.size() > w) ring.pop_front();
    const std::uint64_t first = idx + 1 - ring.size();
    if (ring.size() >= 2) {
      lefts.clear();
      for (std::size_t p = 0; p + 1 < ring.size(); ++p) {
        lefts.push_back(ring[p].view());
      }
      {
        ScopedSpan span(tracer, "emd.solve_batch", push, bag_id);
        span.set_count(lefts.size());
        MustOk(solver.ComputeBatch(lefts.data(), lefts.size(),
                                   ring.back().view(), o.ground, emd.data()),
               "EmdSolver::ComputeBatch");
      }
      for (std::size_t p = 0; p < lefts.size(); ++p) {
        table[{first + p, idx}] =
            std::log(std::max(emd[p], o.info.distance_floor));
      }
      table.erase(table.begin(), table.lower_bound({first, 0}));
    }
    if (!pushed.has_value()) continue;
    const StepResult& step = *pushed;
    ++counters->steps;

    // Inspection time t: reference = [t - tau, t), test = [t, t + tau').
    const std::uint64_t t = step.time;
    const auto log_emd = [&](std::uint64_t a, std::uint64_t b) {
      return table.at({std::min(a, b), std::max(a, b)});
    };
    for (std::size_t i = 0; i < tau; ++i) {
      for (std::size_t j = i + 1; j < tau; ++j) {
        const double v = log_emd(t - tau + i, t - tau + j);
        ctx.log_ref_ref(i, j) = v;
        ctx.log_ref_ref(j, i) = v;
      }
      for (std::size_t j = 0; j < tau_prime; ++j) {
        ctx.log_ref_test(i, j) = log_emd(t - tau + i, t + j);
      }
    }
    for (std::size_t i = 0; i < tau_prime; ++i) {
      for (std::size_t j = i + 1; j < tau_prime; ++j) {
        const double v = log_emd(t + i, t + j);
        ctx.log_test_test(i, j) = v;
        ctx.log_test_test(j, i) = v;
      }
    }
    const auto mismatch = [&](const char* what) {
      if (counters->mismatches++ == 0) {
        counters->first_mismatch = stream.key + " t=" + std::to_string(t) +
                                   ": " + what;
      }
    };
    double score = 0.0;
    {
      ScopedSpan span(tracer, "core.score", push, bag_id);
      score = Must(bagcpd::ComputeScore(o.score_type, ctx, pi_ref, pi_test),
                   "ComputeScore");
    }
    if (uniform && !SameBits(score, step.score)) mismatch("score");
    if (replicates > 0) {
      bagcpd::BootstrapInterval ci;
      {
        ScopedSpan span(tracer, "core.bootstrap", push, bag_id);
        span.set_count(static_cast<std::uint64_t>(replicates));
        ci = Must(bagcpd::BootstrapScoreInterval(o.score_type, ctx, pi_ref,
                                                 pi_test, o.bootstrap,
                                                 &boot_rng),
                  "BootstrapScoreInterval");
      }
      if (uniform &&
          (!SameBits(ci.lo, step.ci_lo) || !SameBits(ci.up, step.ci_up))) {
        mismatch("bootstrap interval");
      }
    }
    // The fork primitive the bootstrap pays once per replicate, timed alone
    // (a root span: it is part of core.bootstrap, not a second child).
    {
      const std::size_t forks =
          static_cast<std::size_t>(std::max(replicates, 50));
      const bagcpd::Rng base(o.seed ^ t);
      std::uint64_t sink = 0;
      ScopedSpan span(tracer, "common.rng_fork", 0, bag_id);
      span.set_count(forks);
      for (std::size_t r = 0; r < forks; ++r) {
        sink += base.Fork(r).NextUInt64();
      }
      if (sink == 1) mismatch("fork sink");  // Keeps the loop observable.
    }
    // Detector state round trip every few steps (the spill/checkpoint unit).
    if (scored++ % 4 == 0) {
      {
        ScopedSpan span(tracer, "serialize.export", 0, bag_id);
        MustOk(detector->ExportState(&blob), "ExportState");
        span.set_count(blob.size());
      }
      counters->blob_bytes.push_back(static_cast<double>(blob.size()));
      ScopedSpan span(tracer, "serialize.import", 0, bag_id);
      MustOk(twin->ImportState(blob), "ImportState");
    }
  }
}

}  // namespace

void RunReplayLane(const std::vector<ReplayStream>& streams,
                   bagcpd::BufferArena* arena, Tracer* tracer,
                   Report* report) {
  ReplayCounters counters;
  std::uint64_t bag_base = 1ull << 40;  // Disjoint from engine bag ids.
  for (const ReplayStream& stream : streams) {
    ReplayOne(stream, bag_base, arena, tracer, &counters);
    bag_base += stream.bags.size();
  }
  const std::vector<double> push = tracer->Durations("core.push");
  const std::vector<double> boot = tracer->Durations("core.bootstrap");
  const auto sum = [](const std::vector<double>& v) {
    double s = 0.0;
    for (double x : v) s += x;
    return s;
  };
  const auto n = [](const std::vector<double>& v) {
    return static_cast<std::uint64_t>(v.size());
  };
  report->Set("core.push_p50_us", Quantile(push, 0.5), "us", n(push));
  report->Set("core.push_p99_us", Quantile(push, 0.99), "us", n(push));
  const std::vector<double> self = tracer->SelfTimes("core.push");
  report->Set("core.push_self_us", Median(self), "us", n(self));
  const std::vector<double> score = tracer->Durations("core.score");
  report->Set("core.score_us", Median(score), "us", n(score));
  report->Set("core.bootstrap_us", Median(boot), "us", n(boot));
  report->Set("core.bootstrap_share",
              sum(push) > 0.0 ? sum(boot) / sum(push) : 0.0, "ratio",
              n(push));
  const std::vector<double> build = tracer->Durations("signature.build");
  report->Set("signature.build_us", Median(build), "us", n(build));
  const std::vector<double> solve =
      tracer->Durations("emd.solve_batch", /*per_count=*/true);
  report->Set("emd.solve_us", Median(solve), "us", n(solve));
  report->Set("emd.solves_per_step", Median(counters.solves_per_step),
              "count", n(counters.solves_per_step));
  report->Set("emd.steady_allocs", static_cast<double>(counters.steady_allocs),
              "count", counters.steps);
  const std::vector<double> fork =
      tracer->Durations("common.rng_fork", /*per_count=*/true);
  report->Set("common.rng_fork_us", Median(fork), "us", n(fork));
  const std::vector<double> exp = tracer->Durations("serialize.export");
  const std::vector<double> imp = tracer->Durations("serialize.import");
  report->Set("serialize.export_us", Median(exp), "us", n(exp));
  report->Set("serialize.import_us", Median(imp), "us", n(imp));
  report->Set("serialize.blob_bytes", Median(counters.blob_bytes), "B",
              n(counters.blob_bytes));
  report->Check("replay_layers_match_push", counters.mismatches == 0,
                counters.mismatches == 0
                    ? std::to_string(counters.steps) + " steps"
                    : counters.first_mismatch);
}

void ReportLayerSelfTimes(const Tracer& tracer, Report* report) {
  for (const auto& [layer, ms] : tracer.LayerSelfMs()) {
    report->Meta("self_ms." + layer, std::to_string(ms));
  }
}

}  // namespace perfbench
