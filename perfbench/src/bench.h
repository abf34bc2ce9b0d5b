// Shared plumbing of the end-to-end benchmark: run configuration, the metric
// report and its two output forms, percentiles, the span tracer, the
// pre-generated bag store, and the engine event log the engine workloads
// share. Every workload drives the library only through its public headers.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bagcpd/common/flat_bag.h"
#include "bagcpd/common/result.h"
#include "bagcpd/core/detector.h"
#include "bagcpd/runtime/stream_engine.h"

namespace perfbench {

using bagcpd::BagView;
using bagcpd::DetectorOptions;
using bagcpd::Result;
using bagcpd::Status;
using bagcpd::StepResult;

/// Monotonic nanoseconds (steady_clock).
std::int64_t NowNs();

/// Command-line configuration of one run.
struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny sizes: every metric and check still runs, in a second or two.
  bool smoke = false;
  /// Directory (inside the checkout) for spill files, corpus files, traces.
  std::string work_dir = ".";
  /// Source identity passed in by the launcher (git commit or src digest).
  std::string commit = "unknown";
  /// Threads the run may use in total, producer included.
  std::size_t nproc = 1;
};

/// Exits the run (no result line) when a library call the benchmark relies
/// on fails: that is a broken benchmark, not a measurement.
[[noreturn]] void Die(const std::string& what, const Status& status);

template <typename T>
T Must(Result<T> result, const char* what) {
  if (!result.ok()) Die(what, result.status());
  return result.MoveValueUnsafe();
}

inline void MustOk(const Status& status, const char* what) {
  if (!status.ok()) Die(what, status);
}

/// q-quantile (0..1) with linear interpolation; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Each workload interleaves its timed phases over this many cycles, every
/// cycle giving each phase a slice, so the slow spells of a shared host fall
/// on all metrics alike instead of on whichever phase ran during them.
inline constexpr std::size_t kCycles = 8;

/// Traced runs trace the throughput slices of cycles 1, 2, 5, 6 and leave
/// 0, 3, 4, 7 untraced (A-B-B-A), so drift cancels out of the overhead ratio.
inline bool TracedCycle(std::size_t cycle) {
  return cycle % 4 == 1 || cycle % 4 == 2;
}

/// Work done and wall time spent over the slices of one phase.
struct RateMeter {
  double bags = 0.0;
  double seconds = 0.0;
  void Add(double n, std::int64_t start_ns, std::int64_t end_ns) {
    bags += n;
    seconds += static_cast<double>(end_ns - start_ns) / 1e9;
  }
  double rate() const { return seconds > 0.0 ? bags / seconds : 0.0; }
};

/// True iff two step streams agree bitwise on every field.
bool SameSteps(const std::vector<StepResult>& a,
               const std::vector<StepResult>& b, std::string* detail);

/// Peak resident set size of this process, in MB.
double PeakRssMb();

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

/// Every metric of a run, with unit and sample count, plus metadata and the
/// outcome of every correctness check. Printed twice: a human-readable
/// `REPORT` block holding everything, then the one-line result the contract
/// asks for, holding exactly the metric names of the selected list.
class Report {
 public:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::uint64_t samples = 0;
  };

  void Set(const std::string& name, double value, const std::string& unit,
           std::uint64_t samples);
  void Meta(const std::string& key, const std::string& value);
  void Check(const std::string& name, bool ok, const std::string& detail);
  /// Work items offered and items that failed (rejected, errored,
  /// quarantined or skipped).
  void CountAttempts(std::uint64_t attempted, std::uint64_t failed);

  bool all_checks_ok() const { return checks_ok_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  bool Has(const std::string& name) const;

  /// Prints the REPORT block, then the final result line restricted to
  /// `names` (every one must have been Set).
  void Print(const std::vector<std::string>& names) const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> meta_;
  std::vector<std::pair<std::string, std::string>> checks_;
  bool checks_ok_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// The metric names BENCHMARK.json lists (end_to_end, then per_layer).
const std::vector<std::string>& EndToEndMetricNames();
const std::vector<std::string>& PerLayerMetricNames();

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

/// One traced call: name, interval, parent span (0 = root), the id of the
/// bag (or job) it served, and a work count (pairs solved, bytes written...).
struct Span {
  std::uint32_t name = 0;
  std::uint32_t parent = 0;
  std::uint64_t bag = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t count = 0;
  double us() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

/// In-memory span recorder for the benchmark's own calls into the library.
/// Used from one thread (the main thread). Disabled, Begin/End cost one
/// branch and record nothing. Span ids are 1-based indices.
class Tracer {
 public:
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  std::uint32_t Begin(const char* name, std::uint32_t parent,
                      std::uint64_t bag);
  void End(std::uint32_t id, std::uint64_t count = 1);

  /// Durations (us) of every span named `name`, divided by its count when
  /// `per_count` (per-item cost of a batched call).
  std::vector<double> Durations(const std::string& name,
                                bool per_count = false) const;
  /// Self time (us) of every span named `name`: its duration minus the
  /// durations of its child spans.
  std::vector<double> SelfTimes(const std::string& name) const;
  /// Summed self time (ms) per layer, the layer being the span name up to
  /// its first '.'.
  std::vector<std::pair<std::string, double>> LayerSelfMs() const;

  /// Writes every span as one JSON object per line.
  bool Write(const std::string& path) const;

 private:
  std::uint32_t Intern(const char* name);

  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, std::uint32_t> name_ids_;
};

/// RAII span; records nothing when the tracer is null or disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::uint32_t parent,
             std::uint64_t bag)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
        id_(tracer_ != nullptr ? tracer_->Begin(name, parent, bag) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_, count_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void set_count(std::uint64_t count) { count_ = count; }

 private:
  Tracer* tracer_;
  std::uint32_t id_;
  std::uint64_t count_ = 1;
};

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// Pre-generated bags in one contiguous buffer (generated before timing, so
/// the timed phase only copies them into FlatBags).
class BagStore {
 public:
  explicit BagStore(std::size_t dim) : dim_(dim) {}
  /// Appends a bag given as `points * dim` row-major values.
  void Add(const std::vector<double>& values);
  std::size_t size() const { return begin_.size(); }
  BagView view(std::size_t i) const;
  /// A fresh FlatBag holding a copy of bag `i` (what a client would send).
  bagcpd::FlatBag Copy(std::size_t i) const;

 private:
  std::size_t dim_;
  std::vector<double> values_;
  std::vector<std::size_t> begin_;
  std::vector<std::size_t> points_;
};

/// Samples one bag of `n` points from a Gaussian mixture, flattened.
std::vector<double> SampleGmmBag(const std::vector<std::vector<double>>& means,
                                 double sigma, std::size_t n,
                                 std::uint64_t seed);

/// Stream key of index `i` ("k000042") and its inverse.
std::string KeyName(std::size_t i);
std::size_t KeyIndex(const std::string& key);

// ---------------------------------------------------------------------------
// Engine event log
// ---------------------------------------------------------------------------

/// Event sink shared by the engine workloads. Bags are identified by (key,
/// position in the key's accepted stream); a kStep event for inspection time
/// t is the verdict produced by bag t + tau' - 1. The main thread writes
/// the send time of a bag before submitting it; the shard thread owning the
/// key appends that key's results, so per-key vectors need no lock.
class EventLog {
 public:
  EventLog(std::size_t num_keys, std::size_t tau_prime);
  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// Reserves room for `bags` send times of key `k` (before any Submit).
  void Reserve(std::size_t k, std::size_t bags) { sent_ns_[k].resize(bags, 0); }
  /// Records the send time of the `pos`-th accepted bag of key `k`; 0 means
  /// "do not measure latency for this bag".
  void SetSent(std::size_t k, std::size_t pos, std::int64_t ns) {
    sent_ns_[k][pos] = ns;
  }

  void OnEvent(const bagcpd::EngineEvent& event);
  bagcpd::StreamEngine::EventSink Sink() {
    return [this](const bagcpd::EngineEvent& e) { OnEvent(e); };
  }

  const std::vector<StepResult>& steps(std::size_t k) const {
    return steps_[k];
  }
  /// Latencies (ms) of every measured bag, ordered by send time, and queue
  /// waits (us).
  std::vector<double> LatenciesMs() const;
  std::vector<double> QueueWaitsUs() const;
  std::uint64_t step_events() const;
  std::uint64_t error_events() const { return errors_.load(); }
  /// Max over mean kStep events per delivering thread.
  double ShardSkew() const;

 private:
  std::size_t ThreadSlot();

  std::size_t tau_prime_;
  std::vector<std::vector<std::int64_t>> sent_ns_;
  std::vector<std::vector<StepResult>> steps_;
  std::vector<std::vector<std::pair<std::int64_t, double>>> latency_ms_;
  std::vector<std::vector<double>> queue_us_;
  std::atomic<std::uint64_t> errors_{0};
  static constexpr std::size_t kMaxThreads = 64;
  std::atomic<std::uint64_t> per_thread_[kMaxThreads] = {};
  std::mutex slots_mu_;
  std::unordered_map<std::thread::id, std::size_t> slots_;
};

// ---------------------------------------------------------------------------
// Replay lane and reference runs
// ---------------------------------------------------------------------------

/// One stream re-run outside the engine: its fully seeded detector options
/// and its accepted bags in order.
struct ReplayStream {
  std::string key;
  DetectorOptions options;
  std::vector<BagView> bags;
};

/// Standalone detectors for sampled engine keys, seeded as the engine seeds
/// them (DerivePerStreamSeed): the bitwise reference each engine workload
/// checks against, and its serial baseline.
class References {
 public:
  /// Adds a reference for key index `k` named `key`, under the engine's
  /// default-profile detector options and engine seed.
  void Add(std::size_t k, const std::string& key,
           const DetectorOptions& detector, std::uint64_t engine_seed);
  std::size_t size() const { return keys_.size(); }
  std::size_t key_index(std::size_t j) const { return keys_[j]; }
  const std::vector<StepResult>& steps(std::size_t j) const {
    return steps_[j];
  }
  /// Pushes one bag into reference `j`, recording its verdict.
  void Feed(std::size_t j, BagView bag);
  /// Feeds reference `j` the bags of `accepted` (store indices of its key's
  /// accepted stream) it has not seen yet; returns how many it fed.
  std::size_t CatchUp(std::size_t j, const std::vector<std::size_t>& accepted,
                      const BagStore& store);
  /// Empty when every reference's steps equal `log`'s steps for its key
  /// bitwise; otherwise names the first difference.
  std::string Mismatch(const EventLog& log) const;
  /// The first `n` streams, with every bag fed so far, for the replay lane.
  std::vector<ReplayStream> Streams(std::size_t n) const;

 private:
  std::vector<std::size_t> keys_;
  std::vector<ReplayStream> streams_;
  std::vector<std::unique_ptr<bagcpd::BagStreamDetector>> detectors_;
  std::vector<std::vector<StepResult>> steps_;
};

/// Replays `streams` through a standalone detector while calling each
/// layer's public function on the same window: SignatureBuilder::Build,
/// EmdSolver::ComputeBatch, ComputeScore, BootstrapScoreInterval, Rng::Fork
/// and ExportState/ImportState. Records spans on `tracer`, checks that the
/// replayed score and interval equal Push's bitwise, and sets the core /
/// signature / emd / common / serialize per-layer metrics on `report`.
/// `arena` (optional) is attached to the replayed detector.
void RunReplayLane(const std::vector<ReplayStream>& streams,
                   bagcpd::BufferArena* arena, Tracer* tracer,
                   Report* report);

/// Sets the per-layer self-time lines (report-only) from `tracer`.
void ReportLayerSelfTimes(const Tracer& tracer, Report* report);

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

void RunOnline(const Config& config, Report* report);
void RunBatch(const Config& config, Report* report);
void RunSpill(const Config& config, Report* report);

/// Runs `setup` three times (once in smoke mode) and reports the median
/// wall time as setup_s; the last run's state is the one measured.
template <typename Fn>
void TimeSetup(const Config& config, Report* report, Fn&& setup) {
  const std::size_t reps = config.smoke ? 1 : 3;
  std::vector<double> seconds;
  for (std::size_t r = 0; r < reps; ++r) {
    const std::int64_t start = NowNs();
    setup();
    seconds.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }
  report->Set("setup_s", Median(seconds), "s", seconds.size());
}

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
