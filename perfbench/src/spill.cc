// spill_churn: a closed loop of blocking Submits over Zipf-skewed keys, far
// more streams than the engine's resident-state budget holds, so cold
// streams are spilled to disk and rehydrated on their next bag. Ends with a
// whole-engine Checkpoint and a Restore into a fresh engine at a different
// shard count, which then continues a tail of bags.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>

#include "bagcpd/api/spec.h"
#include "bagcpd/common/rng.h"
#include "bench.h"

namespace perfbench {
namespace {

// Inputs are sized for this rate (about 1.5x the seed's throughput); a faster
// program ends the timed phase early when they run out.
constexpr double kDataBagsPerSecond = 12000.0;
constexpr double kZipfExponent = 1.1;
constexpr std::size_t kTailBags = 12;
// Share of the run given to the closed loop; serial slices take the rest.
constexpr double kClosedShare = 0.85;

struct Shape {
  std::size_t keys;
  std::size_t mean_bag_points;
  std::size_t spill_budget_bytes;
  std::vector<std::size_t> sampled_ranks;
  std::size_t replayed;  // The first `replayed` sampled keys are replayed.
};

Shape ShapeFor(const Config& config) {
  if (config.smoke) return Shape{48, 12, 32768, {2, 5, 11}, 2};
  return Shape{2048, 16, 8 << 20, {8, 16, 32, 64, 128, 256, 512, 1024}, 4};
}

struct Inputs {
  BagStore store{2};
  std::vector<std::size_t> order;           // key index of the i-th bag
  std::vector<std::vector<std::size_t>> tail;  // extra bags per sampled key
  std::vector<std::size_t> per_key;         // bags per key in `order`
  std::vector<std::string> keys;
};

Inputs Generate(const Shape& shape, std::size_t bags, std::uint64_t seed) {
  Inputs in;
  const bagcpd::Rng root(seed);
  bagcpd::Rng rng = root.Fork(0);
  std::vector<double> cdf(shape.keys);
  double total = 0.0;
  for (std::size_t k = 0; k < shape.keys; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), kZipfExponent);
    cdf[k] = total;
    in.keys.push_back(KeyName(k));
  }
  std::vector<std::vector<double>> means(shape.keys);
  for (auto& m : means) m = {rng.Uniform(-4.0, 4.0), rng.Uniform(-4.0, 4.0)};
  const auto add_bag = [&](std::size_t k) {
    const std::size_t n = static_cast<std::size_t>(rng.Poisson(
        static_cast<double>(shape.mean_bag_points),
        static_cast<int>(shape.mean_bag_points / 2)));
    in.store.Add(SampleGmmBag({means[k]}, 1.0, n, rng.NextUInt64()));
    return in.store.size() - 1;
  };
  in.per_key.assign(shape.keys, 0);
  for (std::size_t i = 0; i < bags; ++i) {
    const double u = rng.Uniform() * total;
    const std::size_t k = std::min<std::size_t>(
        std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin(),
        shape.keys - 1);
    in.order.push_back(k);
    ++in.per_key[k];
    add_bag(k);
  }
  for (std::size_t rank : shape.sampled_ranks) {
    std::vector<std::size_t> tail;
    for (std::size_t j = 0; j < kTailBags; ++j) tail.push_back(add_bag(rank));
    in.tail.push_back(std::move(tail));
  }
  return in;
}

struct Setup {
  Inputs in;
  DetectorOptions detector;
  std::string spill_dir;
  std::unique_ptr<EventLog> log;  // Declared before engine: outlives it.
  std::unique_ptr<bagcpd::StreamEngine> engine;
};

std::string DetectorKeys() {
  return "quantizer=kmeans,k=4,tau=4,tau_prime=4,replicates=50";
}

}  // namespace

void RunSpill(const Config& config, Report* report) {
  const Shape shape = ShapeFor(config);
  const std::size_t shards = config.nproc - 1;
  const std::size_t restore_shards = shards == 1 ? 2 : shards - 1;
  const std::size_t tau_prime = 4;
  const std::size_t bags = static_cast<std::size_t>(
      std::ceil((config.smoke ? 2000.0 : kDataBagsPerSecond) * config.seconds));
  const std::string root =
      config.work_dir + "/spill-" + std::to_string(config.seed);
  const auto engine_spec = [&](std::size_t n, const std::string& spill) {
    std::string spec = "shards=" + std::to_string(n) +
                       ",queue=16,collect=false,seed=" +
                       std::to_string(config.seed) + "," + DetectorKeys();
    if (!spill.empty()) {
      spec += ",spill_dir=" + spill +
              ",spill_budget=" + std::to_string(shape.spill_budget_bytes);
    }
    return spec;
  };
  report->Meta("loop", "closed, 1 client, blocking Submit, at most " +
                           std::to_string(shards) + " x 16 bags queued");
  report->Meta("shape",
               std::to_string(shape.keys) + " keys Zipf(" +
                   std::to_string(kZipfExponent) + "), bags ~Poisson(" +
                   std::to_string(shape.mean_bag_points) + ") x 2-d, " +
                   engine_spec(shards, "<dir>"));

  Setup s;
  std::size_t setup_rep = 0;
  TimeSetup(config, report, [&] {
    s.engine.reset();
    if (!s.spill_dir.empty()) std::filesystem::remove_all(s.spill_dir);
    s = Setup();
    s.in = Generate(shape, bags, config.seed);
    s.spill_dir = root + "/setup-" + std::to_string(setup_rep++);
    std::filesystem::create_directories(s.spill_dir);
    auto spec = Must(bagcpd::api::EngineSpec::FromKeyValues(
                         engine_spec(shards, s.spill_dir)),
                     "EngineSpec");
    s.detector = Must(spec.Build(), "EngineSpec::Build").detector;
    s.log = std::make_unique<EventLog>(shape.keys, tau_prime);
    for (std::size_t k = 0; k < shape.keys; ++k) {
      s.log->Reserve(k, s.in.per_key[k]);
    }
    s.engine = Must(spec.Create(), "EngineSpec::Create");
    MustOk(s.engine->set_event_sink(s.log->Sink()), "set_event_sink");
  });
  bagcpd::StreamEngine& engine = *s.engine;
  EventLog& log = *s.log;
  const Inputs& in = s.in;

  // Non-spilling references for the sampled keys, fed cycle by cycle.
  References refs;
  for (std::size_t rank : shape.sampled_ranks) {
    refs.Add(rank, in.keys[rank], s.detector, config.seed);
  }

  Tracer tracer;
  std::vector<std::vector<std::size_t>> accepted(shape.keys);
  std::size_t next = 0;
  RateMeter closed[2];  // [untraced, traced]
  RateMeter serial;
  const std::size_t cycles = config.smoke ? 2 : kCycles;
  const double slice_s = config.seconds * kClosedShare / cycles;
  for (std::size_t cycle = 0; cycle < cycles; ++cycle) {
    const bool traced = config.trace && TracedCycle(cycle);
    tracer.set_enabled(traced);
    const std::int64_t start = NowNs();
    const std::int64_t deadline =
        start + static_cast<std::int64_t>(slice_s * 1e9);
    std::uint64_t sent = 0;
    while (next < in.order.size() && NowNs() < deadline) {
      const std::size_t k = in.order[next];
      log.SetSent(k, accepted[k].size(), NowNs());
      {
        ScopedSpan span(&tracer, "runtime.submit", 0, next);
        MustOk(engine.Submit(in.keys[k], in.store.Copy(next)), "Submit");
      }
      accepted[k].push_back(next);
      ++next;
      ++sent;
    }
    engine.Flush();
    closed[traced ? 1 : 0].Add(static_cast<double>(sent), start, NowNs());

    const std::int64_t serial_start = NowNs();
    std::uint64_t serial_bags = 0;
    for (std::size_t j = 0; j < refs.size(); ++j) {
      serial_bags += refs.CatchUp(j, accepted[refs.key_index(j)], in.store);
    }
    serial.Add(static_cast<double>(serial_bags), serial_start, NowNs());
  }
  tracer.set_enabled(config.trace);
  if (config.trace) {
    report->Set("trace.overhead_ratio", closed[1].rate() / closed[0].rate(),
                "ratio", cycles);
  } else {
    report->Set("throughput_bags_per_s", closed[0].rate(), "bags/s",
                static_cast<std::uint64_t>(closed[0].bags));
  }
  report->Set("serial_bags_per_s", serial.rate(), "bags/s",
              static_cast<std::uint64_t>(serial.bags));
  const std::vector<double> latencies = log.LatenciesMs();
  report->Set("latency_p50_ms", Quantile(latencies, 0.5), "ms",
              latencies.size());
  report->Set("latency_p99_ms", Quantile(latencies, 0.99), "ms",
              latencies.size());
  report->Meta("bags_submitted", std::to_string(next));
  report->Meta("streams_touched", std::to_string(engine.stream_count()));

  const std::uint64_t processed = engine.processed_count();
  const double kbags =
      static_cast<double>(std::max<std::uint64_t>(processed, 1)) / 1e3;
  const std::uint64_t spills = engine.spilled_count();
  const std::uint64_t restores = engine.restored_count();
  report->Check("spill_churned", spills > 0 && restores > 0,
                std::to_string(spills) + " spills, " +
                    std::to_string(restores) + " rehydrations");
  const std::vector<double> queue_us = log.QueueWaitsUs();
  const bagcpd::BufferArenaStats arena = engine.arena_stats();
  const std::size_t resident = engine.resident_state_bytes();

  // Whole-engine checkpoint, restored into fresh engines at another shard
  // count; the last restored engine continues the sampled keys' tails.
  std::vector<double> checkpoint_s;
  std::vector<double> restore_s;
  std::string blob;
  EventLog tail_log(shape.keys, tau_prime);
  std::unique_ptr<bagcpd::StreamEngine> restored;
  for (std::size_t rep = 0; rep < (config.smoke ? 1u : 3u); ++rep) {
    {
      const std::int64_t start = NowNs();
      ScopedSpan span(&tracer, "serialize.checkpoint", 0, rep);
      MustOk(engine.Checkpoint(&blob), "Checkpoint");
      span.set_count(blob.size());
      checkpoint_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    }
    restored.reset();
    restored = Must(Must(bagcpd::api::EngineSpec::FromKeyValues(
                             engine_spec(restore_shards, "")),
                         "EngineSpec")
                        .Create(),
                    "EngineSpec::Create");
    MustOk(restored->set_event_sink(tail_log.Sink()), "set_event_sink");
    const std::int64_t start = NowNs();
    ScopedSpan span(&tracer, "serialize.restore", 0, rep);
    MustOk(restored->Restore(blob), "Restore");
    restore_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }
  report->Set("checkpoint_s", Median(checkpoint_s), "s", checkpoint_s.size());
  report->Set("restore_s", Median(restore_s), "s", restore_s.size());
  report->Set("checkpoint_bytes", static_cast<double>(blob.size()), "B", 1);
  for (std::size_t j = 0; j < shape.sampled_ranks.size(); ++j) {
    for (std::size_t bag : in.tail[j]) {
      MustOk(restored->Submit(in.keys[shape.sampled_ranks[j]],
                              in.store.Copy(bag)),
             "Submit after Restore");
    }
  }
  restored->Flush();
  restored->Shutdown();
  engine.Shutdown();

  // The engine's steps must equal the non-spilling references', and the
  // restored engine's steps their continuation over the tails, bitwise.
  const std::string mismatch = refs.Mismatch(log);
  std::size_t tail_bad = 0;
  std::string tail_detail;
  for (std::size_t j = 0; j < refs.size(); ++j) {
    const std::size_t before = refs.steps(j).size();
    for (std::size_t bag : in.tail[j]) refs.Feed(j, in.store.view(bag));
    const std::vector<StepResult> ref_tail(
        refs.steps(j).begin() + static_cast<std::ptrdiff_t>(before),
        refs.steps(j).end());
    std::string why;
    if (!SameSteps(tail_log.steps(refs.key_index(j)), ref_tail, &why) &&
        tail_bad++ == 0) {
      tail_detail = in.keys[refs.key_index(j)] + ": " + why;
    }
  }
  report->Check("spill_sampled_keys_bitwise", mismatch.empty(),
                mismatch.empty() ? std::to_string(refs.size()) + " keys"
                                 : mismatch);
  report->Check("spill_restored_tail_bitwise", tail_bad == 0,
                tail_bad == 0 ? std::to_string(refs.size()) + " keys x " +
                                    std::to_string(kTailBags) + " bags"
                              : tail_detail);
  const std::uint64_t errors = log.error_events() + tail_log.error_events();
  report->CountAttempts(next, errors);
  report->Check("spill_no_stream_errors", errors == 0,
                std::to_string(errors) + " error events");

  if (config.trace) {
    const std::vector<double> submit = tracer.Durations("runtime.submit");
    report->Set("runtime.submit_us", Median(submit), "us", submit.size());
    report->Set("runtime.queue_wait_p50_us", Quantile(queue_us, 0.5), "us",
                queue_us.size());
    report->Set("runtime.queue_wait_p99_us", Quantile(queue_us, 0.99), "us",
                queue_us.size());
    report->Set("runtime.rejected", 0.0, "count", next);
    report->Set("runtime.shard_skew", log.ShardSkew(), "ratio",
                log.step_events());
    report->Set("common.arena_hit_rate",
                arena.acquires == 0 ? 0.0
                                    : static_cast<double>(arena.pool_hits) /
                                          static_cast<double>(arena.acquires),
                "ratio", arena.acquires);
    report->Set("serialize.spills_per_kbag",
                static_cast<double>(spills) / kbags, "1/kbag", processed);
    report->Set("serialize.restores_per_kbag",
                static_cast<double>(restores) / kbags, "1/kbag", processed);
    report->Set("serialize.resident_bytes", static_cast<double>(resident),
                "B", 1);
    RunReplayLane(refs.Streams(shape.replayed), nullptr, &tracer, report);
    ReportLayerSelfTimes(tracer, report);
    const std::string path = config.work_dir + "/trace-spill_churn-" +
                             std::to_string(config.seed) + ".jsonl";
    report->Meta("trace_file", tracer.Write(path) ? path : "write failed");
  }
  restored.reset();
  s.engine.reset();
  std::filesystem::remove_all(root);
}

}  // namespace perfbench
