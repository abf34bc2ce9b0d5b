// bagcpd end-to-end benchmark.
//
//   bagcpd_perfbench --workload <online_paper_default|batch_large_k|
//                    spill_churn> --seed <n> --seconds <s> --trace <0|1>
//                    [--smoke] [--work-dir <dir>] [--commit <id>]
//
// Prints a REPORT block (metadata, every metric with unit and sample count,
// every correctness check), then one JSON result line: with --trace 0 the
// end-to-end metrics, with --trace 1 the per-layer metrics of a traced run.
// Exit code 0 only when every check passed.

#include <cstring>
#include <string>
#include <thread>

#include "bench.h"

namespace perfbench {
namespace {

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: bagcpd_perfbench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> [--smoke] "
               "[--work-dir <dir>] [--commit <id>]\n",
               message);
  std::exit(64);
}

Config ParseArgs(int argc, char** argv) {
  Config config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      config.workload = value();
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      config.trace = value() == "1";
    } else if (arg == "--smoke") {
      config.smoke = true;
    } else if (arg == "--work-dir") {
      config.work_dir = value();
    } else if (arg == "--commit") {
      config.commit = value();
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  if (config.seconds <= 0.0) Usage("--seconds must be positive");
  const unsigned hw = std::thread::hardware_concurrency();
  config.nproc = hw < 2 ? 2 : hw;
  return config;
}

int Main(int argc, char** argv) {
  const Config config = ParseArgs(argc, argv);
  Report report;
  report.Meta("workload", config.workload);
  report.Meta("seed", std::to_string(config.seed));
  report.Meta("seconds", std::to_string(config.seconds));
  report.Meta("trace", config.trace ? "1" : "0");
  report.Meta("smoke", config.smoke ? "1" : "0");
  report.Meta("nproc", std::to_string(config.nproc));
  report.Meta("compiler", std::string("gcc ") + __VERSION__);
  report.Meta("build_type", PERFBENCH_BUILD_TYPE);
  report.Meta("commit", config.commit);

  if (config.workload == "online_paper_default") {
    RunOnline(config, &report);
  } else if (config.workload == "batch_large_k") {
    RunBatch(config, &report);
  } else if (config.workload == "spill_churn") {
    RunSpill(config, &report);
  } else {
    Usage(("unknown workload '" + config.workload + "'").c_str());
  }
  report.Set("peak_rss_mb", PeakRssMb(), "MB", 1);
  report.Set("error_rate",
             report.attempted() == 0
                 ? 0.0
                 : static_cast<double>(report.failed()) /
                       static_cast<double>(report.attempted()),
             "ratio", report.attempted());

  const std::vector<std::string>& names =
      config.trace ? PerLayerMetricNames() : EndToEndMetricNames();
  for (const std::string& name : names) {
    if (!report.Has(name)) {
      report.Check("metric_emitted." + name, false, "not measured");
    }
  }
  report.Print(names);
  return report.all_checks_ok() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
