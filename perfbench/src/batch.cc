// batch_large_k: a closed loop of offline jobs. Setup writes synthetic
// grouped-series corpora to binary files; each job reads one file back
// (ReadBatchTableBinary) and scores every group on an nproc-thread pool
// (RunBatchColumnar) with K = 16 signatures and the bootstrap off.

#include <cstring>
#include <filesystem>
#include <memory>

#include "bagcpd/api/spec.h"
#include "bagcpd/batch/batch_io.h"
#include "bagcpd/batch/batch_runner.h"
#include "bagcpd/batch/synthetic.h"
#include "bagcpd/common/buffer_arena.h"
#include "bagcpd/runtime/thread_pool.h"
#include "bench.h"

namespace perfbench {
namespace {

// Share of the run given to the sharded jobs; serial passes take the rest.
constexpr double kShardedShare = 0.8;

struct Shape {
  std::size_t files;
  bagcpd::BatchSeriesSpec series;
  std::size_t replay_groups;
};

Shape ShapeFor(const Config& config) {
  Shape shape;
  shape.series.dim = 2;
  shape.series.change_fraction = 0.5;
  shape.series.drift = 4.0;
  if (config.smoke) {
    shape.files = 2;
    shape.series.num_groups = 2;
    shape.series.steps_per_group = 14;
    shape.series.points_per_step = 20;
    shape.replay_groups = 1;
  } else {
    shape.files = 6;
    shape.series.num_groups = 8;
    shape.series.steps_per_group = 40;
    shape.series.points_per_step = 48;
    shape.replay_groups = 3;
  }
  return shape;
}

template <typename T>
bool SameColumn(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

bool SameTable(const bagcpd::BatchResultTable& a,
               const bagcpd::BatchResultTable& b) {
  return a.keys == b.keys && a.profiles == b.profiles &&
         SameColumn(a.group, b.group) && SameColumn(a.step, b.step) &&
         SameColumn(a.timestamp, b.timestamp) && SameColumn(a.score, b.score) &&
         SameColumn(a.ci_lo, b.ci_lo) && SameColumn(a.ci_up, b.ci_up) &&
         SameColumn(a.xi, b.xi) && SameColumn(a.is_change, b.is_change) &&
         SameColumn(a.has_score, b.has_score) &&
         a.quarantined.size() == b.quarantined.size() &&
         a.skipped.size() == b.skipped.size();
}

struct Setup {
  std::vector<std::string> paths;
  std::unique_ptr<bagcpd::ThreadPool> pool;
  bagcpd::BatchRunnerOptions options;
};

}  // namespace

void RunBatch(const Config& config, Report* report) {
  const Shape shape = ShapeFor(config);
  const std::string spec = "shards=" + std::to_string(config.nproc) +
                           ",seed=" + std::to_string(config.seed) +
                           ",quantizer=kmeans,k=16,tau=5,tau_prime=5,"
                           "replicates=0";
  const std::string dir =
      config.work_dir + "/batch-" + std::to_string(config.seed);
  report->Meta("loop", "closed, 1 client, one job (load + run) at a time on " +
                           std::to_string(config.nproc) + " pool threads");
  report->Meta("shape",
               std::to_string(shape.files) + " files x " +
                   std::to_string(shape.series.num_groups) + " groups x " +
                   std::to_string(shape.series.steps_per_group) + " steps x " +
                   std::to_string(shape.series.points_per_step) +
                   " points (2-d), " + spec);

  Setup s;
  TimeSetup(config, report, [&] {
    s = Setup();
    std::filesystem::create_directories(dir);
    for (std::size_t f = 0; f < shape.files; ++f) {
      bagcpd::BatchSeriesSpec series = shape.series;
      series.seed = config.seed * 1000 + f;
      const bagcpd::BatchTable table =
          Must(bagcpd::GenerateBatchSeries(series), "GenerateBatchSeries");
      s.paths.push_back(dir + "/corpus-" + std::to_string(f) + ".bin");
      MustOk(bagcpd::WriteBatchTableBinary(s.paths.back(), table),
             "WriteBatchTableBinary");
    }
    s.pool = std::make_unique<bagcpd::ThreadPool>(config.nproc);
    s.options = Must(Must(bagcpd::api::BatchSpec::FromKeyValues(spec),
                          "BatchSpec")
                         .Pool(s.pool.get())
                         .Build(),
                     "BatchSpec::Build");
  });

  // The serial baseline: a single-shard, pool-free pass over the first
  // file's groups, once per cycle; also the bitwise reference for the
  // sharded table of that file.
  const bagcpd::BatchTable table0 =
      Must(bagcpd::ReadBatchTableBinary(s.paths[0]), "ReadBatchTableBinary");
  bagcpd::BatchRunnerOptions serial_options = s.options;
  serial_options.num_shards = 1;
  serial_options.pool = nullptr;

  Tracer tracer;
  std::vector<double> job_ms;
  std::uint64_t jobs = 0;
  std::uint64_t steps_in = 0;
  std::uint64_t rows_out = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t skipped = 0;
  std::uint64_t row_mismatch = 0;
  bool serial_same = true;
  bagcpd::BatchResultTable first_result;
  RateMeter sharded[2];  // [untraced, traced]
  RateMeter serial;
  const std::size_t cycles = config.smoke ? 2 : kCycles;
  const double slice_s = config.seconds * kShardedShare / cycles;
  for (std::size_t cycle = 0; cycle < cycles; ++cycle) {
    const bool traced = config.trace && TracedCycle(cycle);
    tracer.set_enabled(traced);
    const std::int64_t start = NowNs();
    const std::int64_t deadline =
        start + static_cast<std::int64_t>(slice_s * 1e9);
    std::uint64_t rows = 0;
    do {
      const std::size_t f = jobs % shape.files;
      const std::int64_t job_start = NowNs();
      bagcpd::BatchTable table;
      {
        ScopedSpan span(&tracer, "batch.load", 0, jobs);
        table = Must(bagcpd::ReadBatchTableBinary(s.paths[f]),
                     "ReadBatchTableBinary");
      }
      bagcpd::BatchResultTable result;
      {
        ScopedSpan span(&tracer, "batch.run", 0, jobs);
        result = Must(bagcpd::RunBatchColumnar(table, s.options),
                      "RunBatchColumnar");
        span.set_count(result.row_count());
      }
      job_ms.push_back(static_cast<double>(NowNs() - job_start) / 1e6);
      steps_in += table.step_count();
      rows_out += result.row_count();
      rows += result.row_count();
      quarantined += result.quarantined.size();
      skipped += result.skipped.size();
      if (result.row_count() != table.step_count()) ++row_mismatch;
      if (jobs == 0) first_result = std::move(result);
      ++jobs;
    } while (NowNs() < deadline);
    sharded[traced ? 1 : 0].Add(static_cast<double>(rows), start, NowNs());

    tracer.set_enabled(false);
    const std::int64_t serial_start = NowNs();
    const bagcpd::BatchResultTable result =
        Must(bagcpd::RunBatchColumnar(table0, serial_options),
             "serial RunBatchColumnar");
    serial.Add(static_cast<double>(result.row_count()), serial_start, NowNs());
    serial_same = serial_same && SameTable(result, first_result);
  }
  tracer.set_enabled(config.trace);
  if (config.trace) {
    report->Set("trace.overhead_ratio", sharded[1].rate() / sharded[0].rate(),
                "ratio", cycles);
  } else {
    report->Set("throughput_bags_per_s", sharded[0].rate(), "bags/s",
                static_cast<std::uint64_t>(sharded[0].bags));
  }
  report->Set("latency_p50_ms", Quantile(job_ms, 0.5), "ms", job_ms.size());
  report->Set("latency_p99_ms", Quantile(job_ms, 0.99), "ms", job_ms.size());
  report->Set("serial_bags_per_s", serial.rate(), "bags/s",
              static_cast<std::uint64_t>(serial.bags));
  report->Meta("jobs", std::to_string(jobs));

  report->Check("batch_rows_equal_input_steps", row_mismatch == 0,
                std::to_string(rows_out) + " rows / " +
                    std::to_string(steps_in) + " steps");
  report->Check("batch_nothing_quarantined", quarantined == 0 && skipped == 0,
                std::to_string(quarantined) + " quarantined, " +
                    std::to_string(skipped) + " skipped");
  report->CountAttempts(steps_in, quarantined + skipped + row_mismatch);
  report->Check("batch_sharded_equals_serial_bitwise", serial_same,
                std::to_string(first_result.row_count()) + " rows x " +
                    std::to_string(cycles) + " passes");

  if (config.trace) {
    const std::vector<double> load = tracer.Durations("batch.load");
    const std::vector<double> run = tracer.Durations("batch.run");
    report->Set("batch.load_s", Median(load) / 1e6, "s", load.size());
    report->Set("batch.run_s", Median(run) / 1e6, "s", run.size());
    report->Set("batch.rows", static_cast<double>(rows_out), "count", jobs);
    report->Set("batch.quarantined", static_cast<double>(quarantined), "count",
                jobs);
    report->Set("runtime.rejected", 0.0, "count", steps_in);
    report->Set("serialize.spills_per_kbag", 0.0, "1/kbag", steps_in);
    report->Set("serialize.restores_per_kbag", 0.0, "1/kbag", steps_in);
    std::vector<ReplayStream> streams;
    for (std::size_t g = 0; g < shape.replay_groups; ++g) {
      ReplayStream stream;
      stream.key = table0.group_key(g);
      stream.options = s.options.detector;
      stream.options.seed = bagcpd::DerivePerStreamSeed(
          config.seed, stream.key, bagcpd::kDefaultProfileName);
      for (std::size_t t = 0; t < table0.group_step_count(g); ++t) {
        stream.bags.push_back(table0.step_bag(g, t));
      }
      streams.push_back(std::move(stream));
    }
    bagcpd::BufferArena arena;
    RunReplayLane(streams, &arena, &tracer, report);
    const bagcpd::BufferArenaStats stats = arena.stats();
    report->Set("common.arena_hit_rate",
                stats.acquires == 0 ? 0.0
                                    : static_cast<double>(stats.pool_hits) /
                                          static_cast<double>(stats.acquires),
                "ratio", stats.acquires);
    ReportLayerSelfTimes(tracer, report);
    const std::string path = config.work_dir + "/trace-batch_large_k-" +
                             std::to_string(config.seed) + ".jsonl";
    report->Meta("trace_file", tracer.Write(path) ? path : "write failed");
  }
  std::filesystem::remove_all(dir);
}

}  // namespace perfbench
