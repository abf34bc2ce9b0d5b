#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>

#include "bagcpd/common/rng.h"
#include "bagcpd/data/gmm.h"

namespace perfbench {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Die(const std::string& what, const Status& status) {
  std::fprintf(stderr, "perfbench: FATAL %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(2);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

namespace {

bool SameDouble(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace

bool SameSteps(const std::vector<StepResult>& a,
               const std::vector<StepResult>& b, std::string* detail) {
  if (a.size() != b.size()) {
    *detail = "step count " + std::to_string(a.size()) + " vs " +
              std::to_string(b.size());
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const StepResult& x = a[i];
    const StepResult& y = b[i];
    if (x.time != y.time || !SameDouble(x.score, y.score) ||
        !SameDouble(x.ci_lo, y.ci_lo) || !SameDouble(x.ci_up, y.ci_up) ||
        !SameDouble(x.xi, y.xi) || x.alarm != y.alarm) {
      *detail = "first difference at inspection time " +
                std::to_string(x.time);
      return false;
    }
  }
  return true;
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

const std::vector<std::string>& EndToEndMetricNames() {
  static const std::vector<std::string> names = {
      "setup_s", "throughput_bags_per_s", "latency_p50_ms",
      "serial_bags_per_s"};
  return names;
}

const std::vector<std::string>& PerLayerMetricNames() {
  static const std::vector<std::string> names = {
      "core.push_p50_us",          "core.push_p99_us",
      "core.push_self_us",         "core.score_us",
      "core.bootstrap_share",      "signature.build_us",
      "emd.solve_us",              "emd.solves_per_step",
      "emd.steady_allocs",         "common.rng_fork_us",
      "common.arena_hit_rate",     "serialize.export_us",
      "serialize.import_us",       "serialize.blob_bytes",
      "serialize.spills_per_kbag", "serialize.restores_per_kbag",
      "runtime.rejected",          "trace.overhead_ratio"};
  return names;
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit, std::uint64_t samples) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m = Metric{name, value, unit, samples};
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit, samples});
}

void Report::Meta(const std::string& key, const std::string& value) {
  meta_.emplace_back(key, value);
}

void Report::Check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks_.emplace_back(name, (ok ? "ok" : "FAILED") +
                                 (detail.empty() ? "" : ": " + detail));
  if (!ok) checks_ok_ = false;
}

void Report::CountAttempts(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

bool Report::Has(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return true;
  }
  return false;
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::Print(const std::vector<std::string>& names) const {
  std::printf("REPORT\n");
  for (const auto& [key, value] : meta_) {
    std::printf("  meta    %-28s %s\n", key.c_str(), value.c_str());
  }
  for (const Metric& m : metrics_) {
    std::printf("  metric  %-28s %16.6g %-8s n=%llu\n", m.name.c_str(),
                m.value, m.unit.c_str(),
                static_cast<unsigned long long>(m.samples));
  }
  for (const auto& [name, outcome] : checks_) {
    std::printf("  check   %-28s %s\n", name.c_str(), outcome.c_str());
  }
  std::printf("  counts  attempted=%llu failed=%llu\n",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));

  std::string line = "{\"correct\": ";
  line += checks_ok_ ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(
                                    attempted_, 1));
  line += ", \"failed\": " + std::to_string(failed_);
  line += ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : names) {
    for (const Metric& m : metrics_) {
      if (m.name != name) continue;
      if (!first) line += ", ";
      first = false;
      line += JsonString(name) + ": {\"value\": " + JsonNumber(m.value) +
              ", \"unit\": " + JsonString(m.unit) + "}";
    }
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

std::uint32_t Tracer::Intern(const char* name) {
  auto it = name_ids_.find(name);
  if (it != name_ids_.end()) return it->second;
  const std::uint32_t id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(name);
  name_ids_.emplace(name, id);
  return id;
}

std::uint32_t Tracer::Begin(const char* name, std::uint32_t parent,
                            std::uint64_t bag) {
  if (!enabled_) return 0;
  Span span;
  span.name = Intern(name);
  span.parent = parent;
  span.bag = bag;
  span.start_ns = NowNs();
  spans_.push_back(span);
  return static_cast<std::uint32_t>(spans_.size());
}

void Tracer::End(std::uint32_t id, std::uint64_t count) {
  if (id == 0 || id > spans_.size()) return;
  Span& span = spans_[id - 1];
  span.end_ns = NowNs();
  span.count = count;
}

std::vector<double> Tracer::Durations(const std::string& name,
                                      bool per_count) const {
  std::vector<double> out;
  auto it = name_ids_.find(name);
  if (it == name_ids_.end()) return out;
  for (const Span& s : spans_) {
    if (s.name != it->second) continue;
    const double us = s.us();
    out.push_back(per_count && s.count > 0
                      ? us / static_cast<double>(s.count)
                      : us);
  }
  return out;
}

namespace {

// Summed child durations per span (index = span id - 1).
std::vector<double> ChildUs(const std::vector<Span>& spans) {
  std::vector<double> child(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent != 0 && s.parent <= spans.size()) {
      child[s.parent - 1] += s.us();
    }
  }
  return child;
}

}  // namespace

std::vector<double> Tracer::SelfTimes(const std::string& name) const {
  std::vector<double> out;
  auto it = name_ids_.find(name);
  if (it == name_ids_.end()) return out;
  const std::vector<double> child = ChildUs(spans_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == it->second) out.push_back(spans_[i].us() - child[i]);
  }
  return out;
}

std::vector<std::pair<std::string, double>> Tracer::LayerSelfMs() const {
  const std::vector<double> child = ChildUs(spans_);
  std::vector<std::pair<std::string, double>> layers;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::string& name = names_[spans_[i].name];
    const std::string layer = name.substr(0, name.find('.'));
    const double ms = (spans_[i].us() - child[i]) / 1e3;
    auto it = std::find_if(layers.begin(), layers.end(),
                           [&](const auto& l) { return l.first == layer; });
    if (it == layers.end()) {
      layers.emplace_back(layer, ms);
    } else {
      it->second += ms;
    }
  }
  return layers;
}

bool Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << (i + 1) << ",\"name\":\"" << names_[s.name]
        << "\",\"parent\":" << s.parent << ",\"bag\":" << s.bag
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"count\":" << s.count << "}\n";
  }
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

void BagStore::Add(const std::vector<double>& values) {
  begin_.push_back(values_.size());
  points_.push_back(values.size() / dim_);
  values_.insert(values_.end(), values.begin(), values.end());
}

BagView BagStore::view(std::size_t i) const {
  return BagView(values_.data() + begin_[i], points_[i], dim_);
}

bagcpd::FlatBag BagStore::Copy(std::size_t i) const {
  const double* first = values_.data() + begin_[i];
  return Must(bagcpd::FlatBag::FromFlat(
                  std::vector<double>(first, first + points_[i] * dim_), dim_),
              "FlatBag::FromFlat");
}

std::vector<double> SampleGmmBag(const std::vector<std::vector<double>>& means,
                                 double sigma, std::size_t n,
                                 std::uint64_t seed) {
  bagcpd::Rng rng(seed);
  const bagcpd::GaussianMixture mix =
      bagcpd::GaussianMixture::EqualWeight(means, sigma);
  std::vector<double> flat;
  for (const bagcpd::Point& p : mix.SampleBag(n, &rng)) {
    flat.insert(flat.end(), p.begin(), p.end());
  }
  return flat;
}

std::string KeyName(std::size_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "k%06zu", i);
  return buf;
}

std::size_t KeyIndex(const std::string& key) {
  return static_cast<std::size_t>(std::strtoull(key.c_str() + 1, nullptr, 10));
}

// ---------------------------------------------------------------------------
// Engine event log
// ---------------------------------------------------------------------------

EventLog::EventLog(std::size_t num_keys, std::size_t tau_prime)
    : tau_prime_(tau_prime),
      sent_ns_(num_keys),
      steps_(num_keys),
      latency_ms_(num_keys),
      queue_us_(num_keys) {}

std::size_t EventLog::ThreadSlot() {
  std::lock_guard<std::mutex> lock(slots_mu_);
  auto it = slots_.find(std::this_thread::get_id());
  if (it != slots_.end()) return it->second;
  const std::size_t slot = std::min(slots_.size(), kMaxThreads - 1);
  slots_.emplace(std::this_thread::get_id(), slot);
  return slot;
}

void EventLog::OnEvent(const bagcpd::EngineEvent& event) {
  using Kind = bagcpd::EngineEvent::Kind;
  if (event.kind == Kind::kError || event.kind == Kind::kStreamFault) {
    errors_.fetch_add(1);
    return;
  }
  if (event.kind != Kind::kStep) return;
  const std::int64_t now = NowNs();
  const std::size_t k = KeyIndex(event.stream_id);
  per_thread_[ThreadSlot()].fetch_add(1, std::memory_order_relaxed);
  steps_[k].push_back(event.step);
  const std::size_t pos =
      static_cast<std::size_t>(event.step.time) + tau_prime_ - 1;
  if (pos < sent_ns_[k].size() && sent_ns_[k][pos] != 0) {
    latency_ms_[k].emplace_back(
        sent_ns_[k][pos],
        static_cast<double>(now - sent_ns_[k][pos]) / 1e6);
    queue_us_[k].push_back(static_cast<double>(event.enqueue_to_process_ns) /
                           1e3);
  }
}

std::vector<double> EventLog::LatenciesMs() const {
  std::vector<std::pair<std::int64_t, double>> all;
  for (const auto& v : latency_ms_) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  std::vector<double> out;
  out.reserve(all.size());
  for (const auto& sample : all) out.push_back(sample.second);
  return out;
}

std::vector<double> EventLog::QueueWaitsUs() const {
  std::vector<double> out;
  for (const auto& v : queue_us_) out.insert(out.end(), v.begin(), v.end());
  return out;
}

std::uint64_t EventLog::step_events() const {
  std::uint64_t total = 0;
  for (const auto& v : steps_) total += v.size();
  return total;
}

double EventLog::ShardSkew() const {
  std::uint64_t max = 0;
  std::uint64_t sum = 0;
  std::size_t threads = 0;
  for (const auto& c : per_thread_) {
    const std::uint64_t n = c.load();
    if (n == 0) continue;
    max = std::max(max, n);
    sum += n;
    ++threads;
  }
  if (threads == 0) return 0.0;
  return static_cast<double>(max) * static_cast<double>(threads) /
         static_cast<double>(sum);
}

}  // namespace perfbench
