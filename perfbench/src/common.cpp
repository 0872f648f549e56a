#include "common.hpp"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace fs = std::filesystem;

namespace perfbench {

namespace {

constexpr const char* kSpanNames[kSpanCount] = {
    "bench.event",        "trace.next",      "core.arrive",
    "core.depart",        "core.migrate",    "tenancy.admit",
    "tenancy.release",    "tenancy.settle",  "persist.arrive",
    "persist.depart",     "persist.evict",   "persist.replace",
    "persist.settle_credits", "persist.checkpoint", "wire.request",
    "net.rtt",
};

std::vector<MetricDef> build_metric_table() {
  std::vector<MetricDef> t = {
      {"setup_s", "s", true},
      {"peak_rss_mb", "MB", true},
      {"ok_share", "share", true},
      {"cost_over_lb", "ratio", true},
      {"events_per_s", "1/s", true},
      {"recover_s", "s", true},
      {"lo.p50_ms", "ms", true},
      {"lo.p99_ms", "ms", true},
      {"hi.p50_ms", "ms", true},
      {"hi.p99_ms", "ms", true},
      {"gen.instance_ms", "ms", false},
      {"trace.write_ms", "ms", false},
      {"trace.open_ms", "ms", false},
      {"trace.next_ns", "ns", false},
      {"core.arrive_p50_ns", "ns", false},
      {"core.arrive_p99_ns", "ns", false},
      {"core.depart_p50_ns", "ns", false},
      {"core.open_bins_mean", "count", false},
      {"core.bins_opened", "count", false},
      {"core.fit_fail_per_arrive", "ratio", false},
      {"core.migrate_p50_ns", "ns", false},
      {"core.migrate_p99_ns", "ns", false},
      {"core.migrations", "count", false},
      {"tenancy.admit_ns", "ns", false},
      {"tenancy.deny_share", "share", false},
      {"tenancy.settle_ms", "ms", false},
      {"persist.arrive_p50_ns", "ns", false},
      {"persist.arrive_p99_ns", "ns", false},
      {"persist.depart_p50_ns", "ns", false},
      {"persist.bytes_per_op", "B", false},
      {"persist.commits_per_op", "ratio", false},
      {"persist.fsyncs", "count", false},
      {"persist.checkpoint_ms", "ms", false},
      {"persist.replayed_ops", "count", false},
  };
  // Names must outlive the table: keep the phase-prefixed ones static.
  static std::vector<std::string> phased;
  static const std::vector<std::pair<const char*, const char*>> kPhase = {
      {"cloud.batch_mean", "count"},    {"cloud.backlog_max", "count"},
      {"cloud.shard_skew", "ratio"},    {"net.rtt_p50_us", "us"},
      {"net.rtt_p99_us", "us"},         {"net.server_p50_us", "us"},
      {"net.server_p99_us", "us"},      {"net.outside_p50_us", "us"},
      {"net.bytes_per_req", "B"},       {"net.retry_later_share", "share"},
      {"driver.late_p99_us", "us"},     {"driver.valid_share", "share"},
  };
  phased.reserve(2 * kPhase.size());
  for (const char* phase : {"lo.", "hi."}) {
    for (const auto& [name, unit] : kPhase) {
      phased.push_back(std::string(phase) + name);
      t.push_back({phased.back().c_str(), unit, false});
    }
  }
  const std::vector<MetricDef> tail = {
      {"self.bench_ns_per_event", "ns", false},
      {"self.trace_ns_per_event", "ns", false},
      {"self.core_ns_per_event", "ns", false},
      {"self.tenancy_ns_per_event", "ns", false},
      {"self.persist_ns_per_event", "ns", false},
      {"tracing.layer_share", "share", false},
      {"tracing.overhead_share", "share", false},
      {"host.steal_share", "share", false},
  };
  t.insert(t.end(), tail.begin(), tail.end());
  return t;
}

std::string format_double(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out;
}

}  // namespace

const char* span_name(std::uint32_t name) {
  return name < kSpanCount ? kSpanNames[name] : "?";
}

std::vector<double> Spans::durations(std::uint32_t name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns));
    }
  }
  return out;
}

std::vector<double> Spans::self_ns_by_name() const {
  std::vector<double> self(kSpanCount, 0.0);
  for (const Span& s : spans_) {
    const double d = static_cast<double>(s.end_ns - s.start_ns);
    self[s.name] += d;
    if (s.parent != kNoParent) self[spans_[s.parent].name] -= d;
  }
  return self;
}

void Spans::write(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  for (std::uint32_t n = 0; n < kSpanCount; ++n) {
    out << (n == 0 ? "" : " ") << span_name(n);
  }
  out << '\n';
  for (const Span& s : spans_) {
    out.write(reinterpret_cast<const char*>(&s.name), 4);
    out.write(reinterpret_cast<const char*>(&s.parent), 4);
    out.write(reinterpret_cast<const char*>(&s.id), 8);
    out.write(reinterpret_cast<const char*>(&s.start_ns), 8);
    out.write(reinterpret_cast<const char*>(&s.end_ns), 8);
  }
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t k = rank == 0 ? 0 : rank - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double block_p99(const std::vector<double>& v, double block_q) {
  std::vector<double> tails;
  for (std::size_t b = 0; b + kTailBlock <= v.size(); b += kTailBlock) {
    tails.push_back(quantile(
        std::vector<double>(v.begin() + static_cast<std::ptrdiff_t>(b),
                            v.begin() +
                                static_cast<std::ptrdiff_t>(b + kTailBlock)),
        0.99));
  }
  return tails.empty() ? quantile(v, 0.99) : quantile(tails, block_q);
}

void RoundLatency::add(const std::string& phase,
                       const std::vector<double>& samples) {
  p50_[phase].push_back(median(samples));
  p99_[phase].push_back(block_p99(samples, block_q_));
}

void RoundLatency::report(Result& result) const {
  for (const auto& [phase, v] : p50_) {
    result.set(phase + ".p50_ms", quantile(v, round_q_) * 1e-6);
    result.set(phase + ".p99_ms", quantile(p99_.at(phase), round_q_) * 1e-6);
  }
}

const std::vector<MetricDef>& metric_table() {
  static const std::vector<MetricDef> table = build_metric_table();
  return table;
}

void Result::set(const std::string& name, double value) {
  for (const MetricDef& m : metric_table()) {
    if (name == m.name) {
      values_[name] = value;
      return;
    }
  }
  throw std::logic_error("perfbench: unknown metric " + name);
}

double Result::get(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    throw std::logic_error("perfbench: metric not set: " + name);
  }
  return it->second;
}

bool Result::check(bool ok, const std::string& what, std::uint64_t ops) {
  if (ok) return true;
  ++checks_failed_;
  failed_ += ops;
  std::cerr << "perfbench: check failed: " << what << '\n';
  return false;
}

std::string Result::to_json(bool trace) const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << std::max<std::uint64_t>(attempted_, 1)
     << ", \"failed\": "
     << std::min(failed_, std::max<std::uint64_t>(attempted_, 1))
     << ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& m : metric_table()) {
    if (m.end_to_end == trace) continue;
    const auto it = values_.find(m.name);
    if (it == values_.end() && m.end_to_end && correct()) {
      throw std::logic_error(std::string("perfbench: end-to-end metric "
                                         "not measured: ") + m.name);
    }
    const double v = it == values_.end() ? 0.0 : it->second;
    os << (first ? "" : ", ") << '"' << m.name << "\": {\"value\": "
       << format_double(v) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

void pin_thread(bool driver) {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  if (n < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (driver) {
    CPU_SET(0, &set);
  } else {
    for (long c = 1; c < n; ++c) CPU_SET(static_cast<int>(c), &set);
  }
  ::sched_setaffinity(0, sizeof(set), &set);
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream ls(line.substr(6));
      double kb = 0.0;
      ls >> kb;
      return kb / 1024.0;
    }
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

CpuTimes cpu_times() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  CpuTimes t;
  std::uint64_t v = 0;
  // Fields: user nice system idle iowait irq softirq steal.
  for (int field = 0; field < 8 && (in >> v); ++field) {
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

std::string provenance_json(const Config& cfg, double steal_share) {
  std::ostringstream os;
  os << "{\"provenance\": {\"git_sha\": \"" << json_escape(cfg.git_sha)
     << "\", \"src_digest\": \"" << json_escape(cfg.src_digest)
     << "\", \"compiler\": \"" << json_escape(PERFBENCH_COMPILER)
     << "\", \"cxx_flags\": \"" << json_escape(PERFBENCH_CXX_FLAGS)
     << "\", \"cmake_build_type\": \"" << json_escape(PERFBENCH_BUILD_TYPE)
     << "\", \"nproc\": " << ::sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"workload\": \"" << json_escape(cfg.workload)
     << "\", \"seed\": " << cfg.seed << ", \"seconds\": "
     << format_double(cfg.seconds) << ", \"trace\": " << (cfg.trace ? 1 : 0)
     << ", \"steal_share\": " << format_double(steal_share) << "}}";
  return os.str();
}

void reset_dir(const std::string& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
}

void copy_dir(const std::string& from, const std::string& to) {
  fs::remove_all(to);
  fs::copy(from, to, fs::copy_options::recursive);
}

void flip_byte(const std::string& path, std::uint64_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  if (!f) throw std::runtime_error("cannot open " + path);
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.get(c);
  f.seekp(static_cast<std::streamoff>(offset));
  f.put(static_cast<char>(c ^ 0xFF));
  if (!f) throw std::runtime_error("cannot flip a byte of " + path);
}

std::uint64_t file_size(const std::string& path) {
  return static_cast<std::uint64_t>(fs::file_size(path));
}

void report_layer_shares(const Spans& spans, double traced_wall_ns,
                         std::uint64_t events, double untraced_rate,
                         double traced_rate, Result& result) {
  const std::vector<double> self = spans.self_ns_by_name();
  std::map<std::string, double> by_layer;
  for (std::uint32_t n = 0; n < kSpanCount; ++n) {
    const std::string name = span_name(n);
    by_layer[name.substr(0, name.find('.'))] += self[n];
  }
  const double ev = static_cast<double>(std::max<std::uint64_t>(events, 1));
  double layers = 0.0;
  for (const char* layer : {"bench", "trace", "core", "tenancy", "persist"}) {
    result.set(std::string("self.") + layer + "_ns_per_event",
               by_layer[layer] / ev);
    if (std::string(layer) != "bench") layers += by_layer[layer];
  }
  const double share = traced_wall_ns > 0.0 ? layers / traced_wall_ns : 0.0;
  result.set("tracing.layer_share", share);
  result.check(share >= 0.5,
               "per-layer self times cover only " + std::to_string(share) +
                   " of the traced per-event wall time (need >= 0.5)");
  result.set("tracing.overhead_share",
             traced_rate > 0.0 ? untraced_rate / traced_rate - 1.0 : 0.0);
}

}  // namespace perfbench
