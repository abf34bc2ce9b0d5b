// online_paper_default: an open loop offers bags at a fixed rate through
// TrySubmit to a StreamEngine running the paper-default detector. Each
// cycle runs an open-loop slice, a saturated slice (blocking Submit as fast
// as the engine takes bags) and a serial slice that feeds the sampled keys'
// new bags to standalone reference detectors.

#include <algorithm>
#include <cmath>
#include <memory>
#include <thread>

#include "bagcpd/api/spec.h"
#include "bagcpd/common/rng.h"
#include "bench.h"

namespace perfbench {
namespace {

// Offered rate of the open loop: about half the saturated capacity of the
// seed commit on a 4-thread host (3 shards). Fixed, so later commits are
// measured at the same load.
constexpr double kOfferedBagsPerSecond = 1100.0;
// p99 latency limit; a run whose generator lags past it is invalid.
constexpr double kLatencyLimitMs = 25.0;
// Saturated-slice inputs are sized for this rate (2.4x the seed's capacity);
// a faster program ends its slices early when they run out.
constexpr double kSaturatedDataRate = 7500.0;
// Shares of the run: open loop, saturated; the serial slices take the rest.
constexpr double kOpenShare = 0.5;
constexpr double kSaturatedShare = 0.3;

struct Shape {
  std::size_t keys;
  std::size_t mean_bag_points;
  double rate;
  std::size_t sampled_keys;
};

Shape ShapeFor(const Config& config) {
  if (config.smoke) return Shape{8, 16, 200.0, 2};
  return Shape{128, 32, kOfferedBagsPerSecond, 12};
}

struct Inputs {
  BagStore store{2};
  std::vector<std::vector<std::size_t>> key_bags;  // store indices per key
  std::vector<std::size_t> change_at;  // first changed bag, per key
  std::vector<std::string> keys;
};

// Key k draws from a two-component GMM around its own mean; from bag
// change_at[k] on, both components shift by (2, 2).
Inputs Generate(const Shape& shape, std::size_t change_hi,
                std::size_t per_key, std::size_t window,
                std::uint64_t seed) {
  Inputs in;
  in.key_bags.resize(shape.keys);
  in.change_at.resize(shape.keys);
  const bagcpd::Rng root(seed);
  for (std::size_t k = 0; k < shape.keys; ++k) {
    bagcpd::Rng rng = root.Fork(k);
    in.keys.push_back(KeyName(k));
    const double mx = rng.Uniform(-4.0, 4.0);
    const double my = rng.Uniform(-4.0, 4.0);
    const std::size_t lo = window + 2;
    const int span = static_cast<int>(std::max(lo, change_hi) - lo);
    in.change_at[k] = lo + static_cast<std::size_t>(rng.UniformInt(0, span));
    for (std::size_t i = 0; i < per_key; ++i) {
      const double shift = i >= in.change_at[k] ? 2.0 : 0.0;
      const std::size_t n = static_cast<std::size_t>(rng.Poisson(
          static_cast<double>(shape.mean_bag_points),
          static_cast<int>(shape.mean_bag_points / 2)));
      in.key_bags[k].push_back(in.store.size());
      in.store.Add(SampleGmmBag({{mx + shift, my + shift},
                                 {mx + 1.5 + shift, my - 1.0 + shift}},
                                0.8, n, rng.NextUInt64()));
    }
  }
  return in;
}

struct Setup {
  Inputs in;
  DetectorOptions detector;
  std::unique_ptr<EventLog> log;  // Declared before engine: outlives it.
  std::unique_ptr<bagcpd::StreamEngine> engine;
};

void SleepUntilNs(std::int64_t due) {
  const std::int64_t now = NowNs();
  if (due > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
  }
}

}  // namespace

void RunOnline(const Config& config, Report* report) {
  const Shape shape = ShapeFor(config);
  const std::size_t shards = config.nproc - 1;
  const std::size_t tau_prime = 5;
  const std::size_t window = 10;  // tau + tau'
  const std::string spec =
      "shards=" + std::to_string(shards) +
      ",queue=128,collect=false,seed=" + std::to_string(config.seed) +
      ",quantizer=kmeans,k=8,tau=5,tau_prime=5,replicates=200";
  const std::size_t cycles = config.smoke ? 2 : kCycles;
  const double open_s = config.seconds * kOpenShare / cycles;
  const double sat_s = config.seconds * kSaturatedShare / cycles;
  const std::size_t open_per_cycle =
      static_cast<std::size_t>(std::ceil(shape.rate * open_s));
  // Every key receives at least this many open-loop bags; the planted
  // changes fall inside them so all of them are always streamed.
  const std::size_t open_per_key = open_per_cycle * cycles / shape.keys;
  const double sat_rate = config.smoke ? 6000.0 : kSaturatedDataRate;
  const std::size_t per_key =
      open_per_key + 1 +
      static_cast<std::size_t>(std::ceil(sat_rate * sat_s * cycles /
                                         static_cast<double>(shape.keys)));
  report->Meta("loop", "open, TrySubmit at " + std::to_string(shape.rate) +
                           " bags/s, interleaved with saturated blocking "
                           "Submit slices");
  report->Meta("latency_limit_ms", std::to_string(kLatencyLimitMs));
  report->Meta("shape", std::to_string(shape.keys) + " keys round-robin, " +
                            "bags ~Poisson(" +
                            std::to_string(shape.mean_bag_points) +
                            ") x 2-d GMM, " + spec);

  Setup s;
  TimeSetup(config, report, [&] {
    s.engine.reset();
    s = Setup();
    s.in = Generate(shape,
                    std::max(open_per_key, tau_prime + 2) - tau_prime - 2,
                    per_key, window, config.seed);
    auto engine_spec =
        Must(bagcpd::api::EngineSpec::FromKeyValues(spec), "EngineSpec");
    s.detector = Must(engine_spec.Build(), "EngineSpec::Build").detector;
    s.log = std::make_unique<EventLog>(shape.keys, tau_prime);
    for (std::size_t k = 0; k < shape.keys; ++k) s.log->Reserve(k, per_key);
    s.engine = Must(engine_spec.Create(), "EngineSpec::Create");
    MustOk(s.engine->set_event_sink(s.log->Sink()), "set_event_sink");
  });
  bagcpd::StreamEngine& engine = *s.engine;
  EventLog& log = *s.log;
  const Inputs& in = s.in;

  // Sampled keys' standalone references, fed cycle by cycle: their wall
  // time is the serial rate.
  References refs;
  for (std::size_t j = 0; j < shape.sampled_keys; ++j) {
    const std::size_t k = j * shape.keys / shape.sampled_keys;
    refs.Add(k, in.keys[k], s.detector, config.seed);
  }

  Tracer tracer;
  std::vector<std::size_t> cursor(shape.keys, 0);
  std::vector<std::vector<std::size_t>> accepted(shape.keys);
  std::uint64_t attempted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t bag_id = 0;
  std::size_t next_key = 0;
  std::vector<double> lag_ms;
  RateMeter saturated[2];  // [untraced, traced]
  RateMeter serial;
  const double interval_ns = 1e9 / shape.rate;

  for (std::size_t cycle = 0; cycle < cycles; ++cycle) {
    // Open loop: bag j is due at t0 + j / rate whatever happened before it.
    tracer.set_enabled(config.trace);
    const std::int64_t t0 = NowNs() + 1000000;
    for (std::size_t j = 0; j < open_per_cycle; ++j) {
      const std::size_t k = next_key++ % shape.keys;
      const std::int64_t due =
          t0 + static_cast<std::int64_t>(static_cast<double>(j) * interval_ns);
      SleepUntilNs(due);
      lag_ms.push_back(static_cast<double>(NowNs() - due) / 1e6);
      const std::size_t bag = in.key_bags[k][cursor[k]++];
      log.SetSent(k, accepted[k].size(), due);
      ++attempted;
      Status st;
      {
        ScopedSpan span(&tracer, "runtime.submit", 0, bag_id++);
        st = engine.TrySubmit(in.keys[k], in.store.Copy(bag));
      }
      if (st.ok()) {
        accepted[k].push_back(bag);
      } else if (st.IsUnavailable()) {
        ++rejected;  // Shed: the key's stream continues with its next bag.
      } else {
        Die("TrySubmit", st);
      }
    }
    engine.Flush();

    // Saturated slice: blocking Submit as fast as the engine accepts.
    const bool traced = config.trace && TracedCycle(cycle);
    tracer.set_enabled(traced);
    const std::int64_t start = NowNs();
    const std::int64_t deadline =
        start + static_cast<std::int64_t>(sat_s * 1e9);
    std::uint64_t sent = 0;
    while (NowNs() < deadline) {
      const std::size_t k = next_key % shape.keys;
      if (cursor[k] >= in.key_bags[k].size()) break;  // Inputs exhausted.
      ++next_key;
      const std::size_t bag = in.key_bags[k][cursor[k]++];
      log.SetSent(k, accepted[k].size(), 0);  // Not a latency sample.
      ++attempted;
      {
        ScopedSpan span(&tracer, "runtime.submit", 0, bag_id++);
        MustOk(engine.Submit(in.keys[k], in.store.Copy(bag)), "Submit");
      }
      accepted[k].push_back(bag);
      ++sent;
    }
    engine.Flush();
    saturated[traced ? 1 : 0].Add(static_cast<double>(sent), start, NowNs());

    // Serial slice: the sampled keys' new bags through the references.
    tracer.set_enabled(false);
    const std::int64_t serial_start = NowNs();
    std::uint64_t serial_bags = 0;
    for (std::size_t j = 0; j < refs.size(); ++j) {
      serial_bags += refs.CatchUp(j, accepted[refs.key_index(j)], in.store);
    }
    serial.Add(static_cast<double>(serial_bags), serial_start, NowNs());
  }
  engine.Shutdown();
  tracer.set_enabled(config.trace);

  // Open-loop validity: a generator that ran late did not offer the load.
  const double lag_p99 = Quantile(lag_ms, 0.99);
  report->Meta("generator_lag_p50_ms", std::to_string(Quantile(lag_ms, 0.5)));
  report->Meta("generator_lag_p99_ms", std::to_string(lag_p99));
  if (lag_p99 > kLatencyLimitMs) {
    std::fprintf(stderr,
                 "perfbench: run invalid: open-loop generator lag p99 %.3f ms "
                 "exceeds the %.1f ms latency limit; not reported\n",
                 lag_p99, kLatencyLimitMs);
    std::exit(3);
  }
  if (config.trace) {
    report->Set("trace.overhead_ratio",
                saturated[1].rate() / saturated[0].rate(), "ratio", cycles);
  } else {
    report->Set("throughput_bags_per_s", saturated[0].rate(), "bags/s",
                static_cast<std::uint64_t>(saturated[0].bags));
  }
  report->Set("serial_bags_per_s", serial.rate(), "bags/s",
              static_cast<std::uint64_t>(serial.bags));
  const std::vector<double> latencies = log.LatenciesMs();
  report->Set("latency_p50_ms", Quantile(latencies, 0.5), "ms",
              latencies.size());
  report->Set("latency_p99_ms", Quantile(latencies, 0.99), "ms",
              latencies.size());
  std::size_t over_limit = rejected;
  for (double l : latencies) over_limit += l > kLatencyLimitMs ? 1 : 0;
  report->Meta("open_loop_over_latency_limit", std::to_string(over_limit));

  // Every accepted bag past the warm-up window yields exactly one verdict.
  std::uint64_t verdicts_missing = 0;
  for (std::size_t k = 0; k < shape.keys; ++k) {
    const std::size_t expect =
        accepted[k].size() >= window ? accepted[k].size() - window + 1 : 0;
    if (log.steps(k).size() != expect) ++verdicts_missing;
  }
  report->Check("online_every_bag_scored", verdicts_missing == 0,
                std::to_string(verdicts_missing) + " keys short");

  // Detection quality: an alarm within tau' steps after the planted change
  // (in accepted-stream time, so a shed bag does not shift the window).
  std::uint64_t detected = 0;
  std::uint64_t false_alarms = 0;
  std::uint64_t scored = 0;
  for (std::size_t k = 0; k < shape.keys; ++k) {
    const std::uint64_t change = static_cast<std::uint64_t>(
        std::lower_bound(accepted[k].begin(), accepted[k].end(),
                         in.key_bags[k][in.change_at[k]]) -
        accepted[k].begin());
    bool hit = false;
    for (const StepResult& r : log.steps(k)) {
      ++scored;
      if (!r.alarm) continue;
      if (r.time >= change && r.time <= change + tau_prime) {
        hit = true;
      } else {
        ++false_alarms;
      }
    }
    detected += hit ? 1 : 0;
  }
  report->Set("alarm_recall",
              static_cast<double>(detected) / static_cast<double>(shape.keys),
              "ratio", shape.keys);
  report->Set("false_alarms_per_kstep",
              scored == 0 ? 0.0
                          : 1000.0 * static_cast<double>(false_alarms) /
                                static_cast<double>(scored),
              "count", scored);

  const std::string mismatch = refs.Mismatch(log);
  report->Check("online_sampled_keys_bitwise", mismatch.empty(),
                mismatch.empty() ? std::to_string(refs.size()) + " keys"
                                 : mismatch);

  const std::uint64_t errors = log.error_events();
  report->CountAttempts(attempted, rejected + errors);
  report->Check("online_no_stream_errors", errors == 0,
                std::to_string(errors) + " error events");

  if (!config.trace) return;
  const std::vector<double> submit = tracer.Durations("runtime.submit");
  report->Set("runtime.submit_us", Median(submit), "us", submit.size());
  const std::vector<double> queue_us = log.QueueWaitsUs();
  report->Set("runtime.queue_wait_p50_us", Quantile(queue_us, 0.5), "us",
              queue_us.size());
  report->Set("runtime.queue_wait_p99_us", Quantile(queue_us, 0.99), "us",
              queue_us.size());
  report->Set("runtime.rejected", static_cast<double>(rejected), "count",
              attempted);
  report->Set("runtime.shard_skew", log.ShardSkew(), "ratio",
              log.step_events());
  report->Set("runtime.generator_lag_ms", lag_p99, "ms", lag_ms.size());
  const bagcpd::BufferArenaStats arena = engine.arena_stats();
  report->Set("common.arena_hit_rate",
              arena.acquires == 0 ? 0.0
                                  : static_cast<double>(arena.pool_hits) /
                                        static_cast<double>(arena.acquires),
              "ratio", arena.acquires);
  const double kbags = static_cast<double>(engine.processed_count()) / 1e3;
  report->Set("serialize.spills_per_kbag",
              static_cast<double>(engine.spilled_count()) / kbags, "1/kbag",
              engine.processed_count());
  report->Set("serialize.restores_per_kbag",
              static_cast<double>(engine.restored_count()) / kbags, "1/kbag",
              engine.processed_count());
  RunReplayLane(refs.Streams(4), nullptr, &tracer, report);
  ReportLayerSelfTimes(tracer, report);
  const std::string path = config.work_dir + "/trace-online_paper_default-" +
                           std::to_string(config.seed) + ".jsonl";
  report->Meta("trace_file", tracer.Write(path) ? path : "write failed");
}

}  // namespace perfbench
