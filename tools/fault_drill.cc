// fault_drill: fault-containment integration driver for the CI job. Runs the
// same deterministic multi-stream workload twice in one process — once
// fault-free as the reference, once with the given fault spec armed through
// the engine's `fault=` option — and proves the containment contract:
//
//   fault_drill <shards> <fault-spec|-> <fault-budget>
//
//   1. the engine finishes (no hang, no crash) with the fault armed;
//   2. the armed fault actually fired, and hit some but not all streams;
//   3. with a fault budget, nothing is quarantined (no kError events) —
//      every failure is contained to a kStreamFault + recovery;
//   4. streams the fault never touched are bitwise-identical to the
//      fault-free run.
//
// Stream lengths are staggered (8, 10, .., 18 bags) so a per-stream
// `detector.push:every-n:N` drill deterministically targets only the longer
// streams. Every step result prints as hex floats (%a — bit-exact,
// locale-free), one line per step, so `diff` across shard counts proves the
// drill outcome itself is shard-invariant. With spec `-` the drill prints
// the reference run and exits (a disarmed-injector baseline for the diff).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bagcpd/bagcpd.h"

namespace {

constexpr std::size_t kKeys = 6;
constexpr std::uint64_t kEngineSeed = 5;

bagcpd::DetectorOptions DrillDetector() {
  bagcpd::DetectorOptions options;
  options.tau = 3;
  options.tau_prime = 3;
  options.bootstrap.replicates = 30;
  options.signature.method = bagcpd::SignatureMethod::kKMeans;
  options.signature.k = 3;
  options.seed = 0;
  return options;
}

// Staggered lengths: stream-i carries 8 + 2i bags, so an every-n drill on
// per-stream push ordinals only reaches the streams long enough to get there.
std::map<std::string, bagcpd::BagSequence> Corpus() {
  std::map<std::string, bagcpd::BagSequence> corpus;
  const bagcpd::GaussianMixture before =
      bagcpd::GaussianMixture::Isotropic({0.0, 0.0}, 0.5);
  const bagcpd::GaussianMixture after =
      bagcpd::GaussianMixture::Isotropic({4.0, 4.0}, 0.5);
  for (std::size_t i = 0; i < kKeys; ++i) {
    const std::string key = "stream-" + std::to_string(i);
    const std::size_t total = 8 + 2 * i;
    bagcpd::Rng rng(1000 + i);
    bagcpd::BagSequence bags;
    for (std::size_t t = 0; t < total; ++t) {
      bags.push_back((t >= total / 2 ? after : before).SampleBag(14, &rng));
    }
    corpus.emplace(key, std::move(bags));
  }
  return corpus;
}

int Fatal(const bagcpd::Status& status, const char* what) {
  std::fprintf(stderr, "FATAL %s: %s\n", what, status.ToString().c_str());
  return 1;
}

struct RunOutcome {
  std::map<std::string, std::vector<bagcpd::StepResult>> steps;
  // Streams that surfaced in any kStreamFault (contained) or kError
  // (quarantine) event — the fault's blast radius.
  std::set<std::string> touched;
  std::size_t quarantines = 0;
};

RunOutcome RunWorkload(bagcpd::StreamEngine* engine,
                       const std::map<std::string, bagcpd::BagSequence>& corpus) {
  // Time-major round-robin: a fixed global submission order, so every
  // sequence-keyed recovery decision is reproducible run over run.
  std::size_t longest = 0;
  for (const auto& [key, bags] : corpus) {
    if (bags.size() > longest) longest = bags.size();
  }
  for (std::size_t t = 0; t < longest; ++t) {
    for (const auto& [key, bags] : corpus) {
      if (t >= bags.size()) continue;
      const bagcpd::Status status = engine->Submit(key, bags[t]);
      if (!status.ok()) {
        std::fprintf(stderr, "FATAL submit %s t=%zu: %s\n", key.c_str(), t,
                     status.ToString().c_str());
        std::exit(1);
      }
    }
  }
  engine->Flush();
  RunOutcome out;
  for (const bagcpd::EngineEvent& event : engine->DrainEvents()) {
    switch (event.kind) {
      case bagcpd::EngineEvent::Kind::kStep:
        out.steps[event.stream_id].push_back(event.step);
        break;
      case bagcpd::EngineEvent::Kind::kStreamFault:
        out.touched.insert(event.stream_id);
        break;
      case bagcpd::EngineEvent::Kind::kError:
        out.touched.insert(event.stream_id);
        ++out.quarantines;
        break;
      default:
        break;
    }
  }
  return out;
}

void PrintSteps(const RunOutcome& outcome) {
  for (const auto& [key, series] : outcome.steps) {
    for (const bagcpd::StepResult& step : series) {
      std::printf("%s t=%llu score=%a lo=%a up=%a xi=%a alarm=%d\n",
                  key.c_str(), static_cast<unsigned long long>(step.time),
                  step.score, step.ci_lo, step.ci_up, step.xi,
                  step.alarm ? 1 : 0);
    }
  }
}

bool SeriesIdentical(const std::vector<bagcpd::StepResult>& a,
                     const std::vector<bagcpd::StepResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].time != b[i].time || a[i].score != b[i].score ||
        a[i].alarm != b[i].alarm) {
      return false;
    }
    const bool both_nan = std::isnan(a[i].xi) && std::isnan(b[i].xi);
    if (!both_nan && a[i].xi != b[i].xi) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 4) {
    std::fprintf(stderr, "usage: %s <shards> <fault-spec|-> <fault-budget>\n",
                 argv[0]);
    return 2;
  }
  const std::size_t shards =
      static_cast<std::size_t>(std::strtoull(argv[1], nullptr, 10));
  const std::string spec = argv[2];
  const std::uint64_t budget = std::strtoull(argv[3], nullptr, 10);

  const auto corpus = Corpus();
  bagcpd::StreamEngineOptions options;
  options.num_shards = shards;
  options.seed = kEngineSeed;
  options.detector = DrillDetector();

  // Reference: the same workload with the injector disarmed.
  bagcpd::fault::FaultInjector::Global().Disarm();
  bagcpd::Result<std::unique_ptr<bagcpd::StreamEngine>> reference_engine =
      bagcpd::StreamEngine::Create(options);
  if (!reference_engine.ok()) {
    return Fatal(reference_engine.status(), "reference engine init");
  }
  const RunOutcome reference =
      RunWorkload(reference_engine.ValueOrDie().get(), corpus);
  if (!reference.touched.empty()) {
    std::fprintf(stderr, "FATAL: fault-free reference saw failures\n");
    return 1;
  }

  if (spec == "-") {
    PrintSteps(reference);
    std::fprintf(stderr, "fault_drill: baseline, %zu streams clean\n",
                 reference.steps.size());
    return 0;
  }

  options.fault = spec;  // Create() arms the process-wide injector.
  options.max_stream_faults = budget;
  bagcpd::Result<std::unique_ptr<bagcpd::StreamEngine>> drill_engine =
      bagcpd::StreamEngine::Create(options);
  if (!drill_engine.ok()) return Fatal(drill_engine.status(), "drill init");
  const RunOutcome drill = RunWorkload(drill_engine.ValueOrDie().get(), corpus);
  const std::uint64_t fired =
      bagcpd::fault::FaultInjector::Global().fired_count();
  bagcpd::fault::FaultInjector::Global().Disarm();

  int failures = 0;
  if (fired == 0) {
    std::fprintf(stderr, "FAIL: armed fault '%s' never fired\n", spec.c_str());
    ++failures;
  }
  if (drill.touched.empty()) {
    std::fprintf(stderr, "FAIL: fault fired but no stream reported it\n");
    ++failures;
  }
  if (drill.touched.size() >= corpus.size()) {
    std::fprintf(stderr,
                 "FAIL: fault touched every stream — no survivors to check\n");
    ++failures;
  }
  if (budget > 0 && drill.quarantines > 0) {
    std::fprintf(stderr,
                 "FAIL: %zu quarantine(s) despite fault budget %llu\n",
                 drill.quarantines, static_cast<unsigned long long>(budget));
    ++failures;
  }
  // The heart of the contract: untouched streams never noticed the drill.
  for (const auto& [key, series] : reference.steps) {
    if (drill.touched.count(key) != 0) continue;
    auto it = drill.steps.find(key);
    if (it == drill.steps.end() || !SeriesIdentical(series, it->second)) {
      std::fprintf(stderr,
                   "FAIL: untouched stream %s diverged from reference\n",
                   key.c_str());
      ++failures;
    }
  }

  PrintSteps(drill);
  std::fprintf(stderr,
               "fault_drill: spec=%s budget=%llu fired=%llu touched=%zu "
               "quarantined=%zu survivors=%zu -> %s\n",
               spec.c_str(), static_cast<unsigned long long>(budget),
               static_cast<unsigned long long>(fired), drill.touched.size(),
               drill.quarantines, corpus.size() - drill.touched.size(),
               failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}
