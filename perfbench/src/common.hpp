// Shared pieces of the benchmark driver: run configuration, the in-memory
// span recorder of the traced run, order statistics, the open-loop pacer,
// the metric table and the result line (README.md in this directory).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for trace files, journals and span dumps.
  std::string work_dir;
  /// Deliberate corruption for the smoke run: "", "trace" or "journal".
  std::string corrupt;
  /// Shrinks every input size (smoke runs only; 1.0 for measurements).
  double scale = 1.0;
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
};

// ---- Traced run: spans kept in memory, written out at exit -------------

/// Every span name the driver records. The layer of a span is the part of
/// its name before the first '.'; "bench" is the driver's own loop.
enum SpanName : std::uint32_t {
  kSpanEvent,             // bench.event: one trace event, all layers
  kSpanTraceNext,         // trace.next
  kSpanCoreArrive,        // core.arrive
  kSpanCoreDepart,        // core.depart
  kSpanCoreMigrate,       // core.migrate
  kSpanTenancyAdmit,      // tenancy.admit
  kSpanTenancyRelease,    // tenancy.release
  kSpanTenancySettle,     // tenancy.settle
  kSpanPersistArrive,     // persist.arrive
  kSpanPersistDepart,     // persist.depart
  kSpanPersistEvict,      // persist.evict
  kSpanPersistReplace,    // persist.replace
  kSpanPersistCredits,    // persist.settle_credits
  kSpanPersistCheckpoint, // persist.checkpoint
  kSpanWireRequest,       // wire.request: due -> response
  kSpanNetRtt,            // net.rtt: send -> response
  kSpanCount
};

const char* span_name(std::uint32_t name);

class Spans {
 public:
  static constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;

  struct Span {
    std::uint32_t name = 0;
    std::uint32_t parent = kNoParent;
    std::uint64_t id = 0;  ///< event index or request id
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  explicit Spans(std::size_t reserve = 0) { spans_.reserve(reserve); }

  /// Opens a span as a child of the innermost open one.
  std::uint32_t open(std::uint32_t name, std::uint64_t id) {
    const auto idx = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back({name, current_, id, now_ns(), 0});
    current_ = idx;
    return idx;
  }
  void close(std::uint32_t idx) {
    spans_[idx].end_ns = now_ns();
    current_ = spans_[idx].parent;
  }
  /// Records a finished span with explicit times (spans that end on
  /// another code path, such as a request answered later).
  void add(std::uint32_t name, std::uint64_t id, std::int64_t start,
           std::int64_t end, std::uint32_t parent = kNoParent) {
    spans_.push_back({name, parent, id, start, end});
  }

  const std::vector<Span>& spans() const noexcept { return spans_; }
  void clear() {
    spans_.clear();
    current_ = kNoParent;
  }

  /// Durations (ns) of every span named `name`.
  std::vector<double> durations(std::uint32_t name) const;
  /// Summed self time (duration minus the time covered by direct
  /// children) per span name.
  std::vector<double> self_ns_by_name() const;

  /// Writes the spans: one text line with the span names (index order),
  /// then 32 bytes per span, native byte order: u32 name, u32 parent
  /// (0xFFFFFFFF: none), u64 id, i64 start_ns, i64 end_ns.
  void write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::uint32_t current_ = kNoParent;
};

/// RAII span; a null recorder (the untraced run) costs one branch.
class ScopedSpan {
 public:
  ScopedSpan(Spans* spans, std::uint32_t name, std::uint64_t id)
      : spans_(spans), idx_(spans ? spans->open(name, id) : 0) {}
  ~ScopedSpan() {
    if (spans_ != nullptr) spans_->close(idx_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Spans* spans_;
  std::uint32_t idx_;
};

// ---- Statistics ---------------------------------------------------------

/// Order statistic at quantile q in [0,1] (nearest rank); 0 when empty.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}
double mean(const std::vector<double>& v);

/// Closed-loop passes (or traced/untraced pairs) per run: `per_second`
/// per second of run length, at least 3. A fixed count, not a time budget,
/// so a run's work and memory do not depend on the host's speed.
inline std::size_t passes(double seconds, double per_second) {
  return std::max<std::size_t>(
      3, static_cast<std::size_t>(seconds * per_second + 0.5));
}

// ---- Open-loop pacing (in-process workloads) ----------------------------

/// Runs op(i) for i in [0, n) with op i due at start + i/rate, spinning
/// between ops; a late op starts at once (the schedule is never
/// stretched). Returns each op's own time, from its start to its
/// completion, in ns.
template <class Op>
std::vector<double> run_open_loop(double rate, std::size_t n, Op&& op) {
  std::vector<double> service_ns;
  service_ns.reserve(n);
  const double period_ns = 1e9 / rate;
  const std::int64_t start = now_ns() + 1000000;  // 1 ms to get going
  for (std::size_t i = 0; i < n; ++i) {
    const auto due = start + static_cast<std::int64_t>(
                                 static_cast<double>(i) * period_ns);
    std::int64_t t = now_ns();
    while (t < due) t = now_ns();
    op(i);
    service_ns.push_back(static_cast<double>(now_ns() - t));
  }
  return service_ns;
}

// ---- Results ------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
  bool end_to_end;
};

/// Every metric the benchmark reports, in output order; BENCHMARK.json at
/// the repository root lists the same names (run.py checks it).
const std::vector<MetricDef>& metric_table();

class Result {
 public:
  /// Sets a metric from metric_table(); throws on an unknown name.
  void set(const std::string& name, double value);
  double get(const std::string& name) const;

  /// Counts `ops` as attempted.
  void attempt(std::uint64_t ops) { attempted_ += ops; }
  /// Records one correctness check; a failure counts `ops` as failed
  /// and is reported on stderr.
  bool check(bool ok, const std::string& what, std::uint64_t ops = 1);

  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }
  bool correct() const noexcept { return checks_failed_ == 0; }

  /// The final stdout line: {"correct","attempted","failed","metrics"}
  /// with every end-to-end metric (trace off) or every per-layer metric
  /// (trace on); per-layer metrics of layers the workload does not call
  /// read 0.
  std::string to_json(bool trace) const;

 private:
  std::map<std::string, double> values_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t checks_failed_ = 0;
};

/// The 99th percentile of each consecutive block of kTailBlock samples of
/// `v`, and of those the `block_q` quantile over blocks (the plain p99
/// when `v` is shorter than a block). The host preempts the VM's vCPUs
/// (gaps of up to ~3.5 ms, ~1.5% of wall time when quiet), which makes a
/// plain p99 a measure of the host; a change to the service's own tail
/// moves every block.
inline constexpr std::size_t kTailBlock = 1000;
double block_p99(const std::vector<double>& v, double block_q);

/// The in-process workloads (`replay`, `durable`) run their `lo` and `hi`
/// phases in kOpenRounds rounds each, alternating, so both phases sample
/// the whole run. The host's single-thread speed switches between a fast
/// and a slow state (the usual one) every second or so, by up to 40%; a
/// median over rounds flips with the share of fast rounds a run catches,
/// so they report the upper quartile over rounds (kRoundQ).
inline constexpr int kOpenRounds = 15;
inline constexpr double kRoundQ = 0.75;

/// Latency of open-loop phases run in rounds: <phase>.p50_ms and
/// <phase>.p99_ms are the `round_q` quantile over the phase's rounds of
/// each round's median and of its block_p99(round, block_q). Only these
/// two numbers of a round are kept, so memory does not grow with the
/// rounds or with how many samples a round keeps.
class RoundLatency {
 public:
  RoundLatency(double block_q, double round_q)
      : block_q_(block_q), round_q_(round_q) {}
  void add(const std::string& phase, const std::vector<double>& samples);
  void report(Result& result) const;

 private:
  double block_q_;
  double round_q_;
  std::map<std::string, std::vector<double>> p50_, p99_;
};

// ---- Host and provenance ------------------------------------------------

/// Restricts the calling thread to CPU 0 (driver = true) or to the other
/// CPUs. Threads inherit the affinity of their creator, so a service is
/// started from a thread pinned away from CPU 0 and the driving thread
/// then moves onto it: the driver and the service's threads (shard
/// workers, event loop, journal flusher) never share a core.
void pin_thread(bool driver);

/// VmHWM of this process, in MB.
double peak_rss_mb();

/// Cumulative CPU jiffies from /proc/stat: {steal, total}.
struct CpuTimes {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
CpuTimes cpu_times();

/// One JSON line with git sha, source digest, compiler and flags, the
/// project's build type, nproc, seed, run length and the steal share.
std::string provenance_json(const Config& cfg, double steal_share);

// ---- Files ----------------------------------------------------------------

void reset_dir(const std::string& dir);
/// Replaces `to` with a copy of directory `from`.
void copy_dir(const std::string& from, const std::string& to);
/// XORs the byte at `offset` of `path` with 0xFF.
void flip_byte(const std::string& path, std::uint64_t offset);
std::uint64_t file_size(const std::string& path);

// ---- Workloads ------------------------------------------------------------

void run_replay(const Config& cfg, Result& result);
void run_durable(const Config& cfg, Result& result);
void run_wire(const Config& cfg, Result& result);

/// Per-event layer accounting shared by the in-process traced runs:
/// per-layer self time per event (self.<layer>_ns_per_event), the share
/// of traced wall time the layers account for (tracing.layer_share, a
/// check at >= 0.5) and the tracing overhead against the untraced rate.
void report_layer_shares(const Spans& spans, double traced_wall_ns,
                         std::uint64_t events, double untraced_rate,
                         double traced_rate, Result& result);

}  // namespace perfbench
