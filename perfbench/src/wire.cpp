// `wire`: the path service users call. An open loop over loopback TCP into
// a PlacementServer (1 event loop) on a ShardedDispatcher (2 shards,
// round-robin, no journal, no gate), driven by one single-threaded,
// nonblocking client on one connection that spins on CPU 0 while the
// service's threads run on the others: 4 busy threads in all. The client
// sends at the frozen `lo` rate, then at the frozen `hi` rate;
// each request is timed from when it was due to when its response came
// back. Overload is out of scope (README.md).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <map>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cloud/sharded_dispatcher.hpp"
#include "common.hpp"
#include "core/event.hpp"
#include "core/packing_hash.hpp"
#include "core/policies/registry.hpp"
#include "gen/uniform.hpp"
#include "net/frame.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "opt/lower_bounds.hpp"

namespace perfbench {
namespace {

using namespace dvbp;

constexpr const char* kPolicy = "MoveToFront";
constexpr std::size_t kDim = 2;
constexpr std::size_t kShards = 2;

// Offered rates in requests/s, against the ~80-100k/s one connection
// sustains on a quiet 4-vCPU x86 VM. lo stays above the rate at which the
// shard workers fall asleep between ops (their spin lasts ~50 us, so
// ~20k/s per shard): below it every request waits on thread wake-ups,
// whose latency the host's steal decides, not the service. hi stays below
// the rate a host that steals CPU time can still sustain. Frozen.
constexpr double kLoRate = 40000.0;
constexpr double kHiRate = 60000.0;

constexpr int kSetups = 9;
constexpr int kRounds = 12;
// In-flight window and shard queue bound. A host that deschedules the
// service's vCPUs for a few seconds piles up that many requests at `hi`;
// with the defaults (1024, 4096) they would be refused as RETRY_LATER,
// which is overload handling, out of scope here, not the service's normal
// path.
constexpr std::size_t kBacklog = std::size_t{1} << 17;
constexpr int kRestarts = 15;
constexpr std::size_t kRestartJobs = 4096;
constexpr std::size_t kRestartWindow = 256;
// A response missing this long after the last send fails the run.
constexpr std::int64_t kAnswerTimeoutNs = 10'000'000'000;
constexpr std::uint64_t kControlId = 1ull << 62;
// A block whose sends ran later than this at p99 is not a valid open-loop
// sample (a quiet host keeps the driver's p99 lateness near 10 us).
constexpr double kMaxLateNs = 100000.0;


gen::UniformParams params(std::size_t items) {
  gen::UniformParams p;
  p.d = kDim;
  p.n = items;
  p.mu = 10;
  // ~40 events per sim-time unit; about 110 jobs are live at any time.
  p.span = std::max<std::int64_t>(20, static_cast<std::int64_t>(items / 20));
  p.bin_size = 100;
  return p;
}

struct Service {
  explicit Service(obs::MetricRegistry* metrics)
      : sharded(kDim, [](std::size_t) { return make_policy(kPolicy); },
                sharded_options(metrics)),
        server(sharded, server_options(metrics)) {}

  static cloud::ShardedOptions sharded_options(obs::MetricRegistry* m) {
    cloud::ShardedOptions o;
    o.shards = kShards;
    o.router = cloud::RouterKind::kRoundRobin;
    o.queue_capacity = kBacklog;
    o.metrics = m;
    return o;
  }
  static net::ServerOptions server_options(obs::MetricRegistry* m) {
    net::ServerOptions o;
    o.event_loops = 1;
    o.max_inflight_per_conn = kBacklog;
    o.metrics = m;
    return o;
  }

  cloud::ShardedDispatcher sharded;
  net::PlacementServer server;
};

/// Bounds of dvbp.shard.<i>.batch_size as the service registers them
/// (powers of two up to ShardedOptions::max_batch); the registry throws if
/// they ever differ, so a change there cannot go unnoticed here.
std::vector<double> batch_bounds() {
  std::vector<double> b;
  const std::size_t max_batch = cloud::ShardedOptions{}.max_batch;
  for (std::size_t v = 1; v < max_batch; v *= 2) {
    b.push_back(static_cast<double>(v));
  }
  b.push_back(static_cast<double>(max_batch));
  return b;
}

/// Counters and histogram buckets read at a phase boundary.
struct ServerSample {
  std::uint64_t bytes = 0;
  std::uint64_t requests = 0;
  std::vector<std::uint64_t> latency_buckets;
  double batches = 0.0;
  double batch_ops = 0.0;
  std::vector<std::size_t> jobs;

  static ServerSample take(obs::MetricRegistry& m,
                           const cloud::ShardedDispatcher& svc) {
    ServerSample s;
    s.bytes = m.counter("dvbp.net.bytes_in_total").value() +
              m.counter("dvbp.net.bytes_out_total").value();
    s.requests = m.counter("dvbp.net.requests_total").value();
    s.latency_buckets =
        m.histogram("dvbp.net.request_latency_ns").bucket_counts();
    for (std::size_t i = 0; i < kShards; ++i) {
      const std::string prefix = "dvbp.shard." + std::to_string(i) + ".";
      obs::Histogram& h = m.histogram(prefix + "batch_size", batch_bounds());
      s.batches += static_cast<double>(h.count());
      s.batch_ops += h.sum();
      s.jobs.push_back(svc.shard_jobs_admitted(i));
    }
    return s;
  }

  /// Adds `after - before` to this sample, which then holds a sum of
  /// per-phase deltas.
  void accumulate(const ServerSample& before, const ServerSample& after) {
    bytes += after.bytes - before.bytes;
    requests += after.requests - before.requests;
    latency_buckets.resize(after.latency_buckets.size(), 0);
    for (std::size_t i = 0; i < after.latency_buckets.size(); ++i) {
      latency_buckets[i] += after.latency_buckets[i] - before.latency_buckets[i];
    }
    batches += after.batches - before.batches;
    batch_ops += after.batch_ops - before.batch_ops;
    jobs.resize(kShards, 0);
    for (std::size_t i = 0; i < kShards; ++i) {
      jobs[i] += after.jobs[i] - before.jobs[i];
    }
  }
};

/// Quantile of histogram bucket counts, interpolated inside the bucket
/// like obs::Histogram::quantile.
double bucket_quantile(const std::vector<double>& bounds,
                       const std::vector<std::uint64_t>& d, double q) {
  std::uint64_t total = 0;
  for (const std::uint64_t c : d) total += c;
  if (total == 0) return 0.0;
  const double rank = q * static_cast<double>(total);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < d.size(); ++i) {
    seen += d[i];
    if (static_cast<double>(seen) >= rank) {
      if (i >= bounds.size()) return bounds.back();
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      const double within =
          (rank - static_cast<double>(seen - d[i])) / static_cast<double>(d[i]);
      return lo + (bounds[i] - lo) * std::clamp(within, 0.0, 1.0);
    }
  }
  return bounds.back();
}

struct PhaseStats {
  std::vector<double> latency_ns;  // due -> response, kept blocks only
  std::vector<double> rtt_ns;      // send -> response
  std::vector<double> late_ns;     // due -> send
  std::size_t blocks = 0;          // blocks of kTailBlock requests ...
  std::size_t kept = 0;            // ... and the clean ones among them
  double wall_ns = 0.0;
  std::uint64_t answered = 0;
  std::uint64_t retry_later = 0;
  std::uint64_t backlog_max = 0;

  /// Folds in another round of the same phase (latencies excepted: the
  /// caller keeps those per round).
  void merge(const PhaseStats& o) {
    rtt_ns.insert(rtt_ns.end(), o.rtt_ns.begin(), o.rtt_ns.end());
    late_ns.insert(late_ns.end(), o.late_ns.begin(), o.late_ns.end());
    blocks += o.blocks;
    kept += o.kept;
    wall_ns += o.wall_ns;
    answered += o.answered;
    retry_later += o.retry_later;
    backlog_max = std::max(backlog_max, o.backlog_max);
  }
};

/// The load generator: one nonblocking connection, one thread, requests
/// encoded with the net/frame.hpp codec.
class Driver {
 public:
  Driver(std::uint16_t port, const Instance& inst,
         const std::vector<Event>& events)
      : inst_(inst), events_(events), job_of_item_(inst.size(), 0),
        admitted_(inst.size(), 0),
        sent_at_(events.size(), 0), due_at_(events.size(), 0),
        done_at_(events.size(), 0),
        answered_(events.size(), 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("wire: socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      throw std::runtime_error("wire: connect() failed");
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~Driver() {
    if (fd_ >= 0) ::close(fd_);
  }
  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;

  /// Sends events [begin, end) at `rate` and waits for every response.
  PhaseStats run_phase(std::size_t begin, std::size_t end, double rate,
                       const cloud::ShardedDispatcher& svc, Spans* spans,
                       Result& result) {
    PhaseStats st;
    const double period_ns = 1e9 / rate;
    const std::int64_t start = now_ns() + 1000000;
    const auto due_of = [&](std::size_t i) {
      return start + static_cast<std::int64_t>(
                         static_cast<double>(i - begin) * period_ns);
    };
    std::size_t next = begin;
    std::int64_t last_progress = now_ns();
    // Hypervisor steal (jiffies, all CPUs) when each block's first request
    // went out, and at the end of the phase.
    std::vector<std::uint64_t> steal_at;
    while (next < end || outstanding_ > 0) {
      const std::int64_t now = now_ns();
      bool wrote = false;
      for (; next < end && due_of(next) <= now; ++next) {
        if ((next - begin) % kTailBlock == 0) steal_at.push_back(cpu_times().steal);
        due_at_[next] = due_of(next);
        result.attempt(1);
        send(next, now);
        wrote = true;
        if (((next - begin) & 15) == 0) {
          st.backlog_max = std::max<std::uint64_t>(
              st.backlog_max, svc.ops_enqueued() - svc.ops_applied());
        }
      }
      if (wrote || out_pos_ < out_.size()) flush();
      const std::size_t got = poll_responses(st, spans, result);
      // The driver spins on its own core (pin_thread()): a sleeping
      // driver would add a host wake-up to every request.
      if (got > 0 || wrote) last_progress = now_ns();
      if (next >= end && outstanding_ > 0 &&
          now_ns() - last_progress > kAnswerTimeoutNs) {
        result.check(false, "wire: " + std::to_string(outstanding_) +
                                " requests never answered", outstanding_);
        outstanding_ = 0;
        break;
      }
    }
    st.wall_ns = static_cast<double>(now_ns() - start);
    steal_at.push_back(cpu_times().steal);

    // Open-loop validity: a block of kTailBlock requests during which the
    // hypervisor stole CPU time from the VM, or which the driver itself
    // sent late (p99 lateness above kMaxLateNs), measures the host, not the
    // server. Such blocks are left out. Under sustained steal fewer than a
    // quarter of the blocks are clean; then the quarter with the least
    // steal, sends on time first, stands in. (Every block standing in, as
    // before, read 5-30x the quiet latencies in runs with 14-17% steal.)
    struct Block {
      bool late;
      std::uint64_t steal;
      std::vector<double> latency;
    };
    std::vector<Block> blocks;
    for (std::size_t b = begin; b < end; b += kTailBlock) {
      std::vector<double> late, latency;
      for (std::size_t i = b; i < std::min(end, b + kTailBlock); ++i) {
        if (sent_at_[i] != 0) {
          late.push_back(static_cast<double>(sent_at_[i] - due_at_[i]));
        }
        if (done_at_[i] != 0) {
          latency.push_back(static_cast<double>(done_at_[i] - due_at_[i]));
        }
      }
      st.late_ns.insert(st.late_ns.end(), late.begin(), late.end());
      const std::size_t k = blocks.size();
      blocks.push_back({quantile(late, 0.99) > kMaxLateNs,
                        steal_at[k + 1] - steal_at[k], std::move(latency)});
      if (!blocks.back().late && blocks.back().steal == 0) ++st.kept;
    }
    st.blocks = blocks.size();
    std::vector<std::size_t> use(blocks.size());
    std::iota(use.begin(), use.end(), 0);
    std::stable_sort(use.begin(), use.end(), [&](std::size_t x, std::size_t y) {
      return std::pair(blocks[x].late, blocks[x].steal) <
             std::pair(blocks[y].late, blocks[y].steal);
    });
    use.resize(std::max(st.kept, (st.blocks + 3) / 4));
    std::sort(use.begin(), use.end());
    for (const std::size_t k : use) {
      st.latency_ns.insert(st.latency_ns.end(), blocks[k].latency.begin(),
                           blocks[k].latency.end());
    }
    return st;
  }

  /// Closed loop: sends the first `n` arrivals of the stream with at most
  /// `window` in flight; true once every one was answered OK.
  bool burst(std::size_t n, std::size_t window) {
    std::size_t sent = 0, answered = 0, i = 0;
    bool ok = true;
    const std::int64_t deadline = now_ns() + kAnswerTimeoutNs;
    while (answered < n && now_ns() < deadline) {
      for (; sent < n && sent - answered < window; ++sent, ++i) {
        while (events_[i].kind != EventKind::kArrival) ++i;
        net::Request req;
        req.id = i;
        req.type = net::MsgType::kArrive;
        req.time = events_[i].time;
        req.size = inst_[events_[i].item].size;
        req.expected_departure = inst_[events_[i].item].departure;
        net::encode_request(req, out_);
      }
      flush();
      while (auto payload = next_payload()) {
        ok = ok && net::decode_response(payload->data(), payload->size())
                           .status == net::Status::kOk;
        ++answered;
      }
    }
    return ok && answered == n;
  }

  /// Sends one control request and waits for its response.
  net::Response call(net::MsgType type) {
    net::Request req;
    req.id = kControlId + control_++;
    req.type = type;
    net::encode_request(req, out_);
    flush();
    const std::int64_t deadline = now_ns() + kAnswerTimeoutNs;
    while (now_ns() < deadline) {
      if (auto payload = next_payload()) {
        const net::Response resp =
            net::decode_response(payload->data(), payload->size());
        if (resp.id == req.id) return resp;
      }
    }
    throw std::runtime_error("wire: no response to a control request");
  }

  /// Items whose arrival was answered OK.
  const std::vector<std::uint8_t>& admitted() const { return admitted_; }

 private:
  void flush() {
    while (out_pos_ < out_.size()) {
      const ssize_t n =
          ::send(fd_, out_.data() + out_pos_, out_.size() - out_pos_,
                 MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n > 0) {
        out_pos_ += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (n < 0 && errno == EINTR) continue;
      throw std::runtime_error("wire: send() failed");
    }
    out_.clear();
    out_pos_ = 0;
  }

  /// Reads what the socket holds and returns one complete payload, if any.
  std::optional<std::vector<std::uint8_t>> next_payload() {
    if (auto p = decoder_.next()) return p;
    std::uint8_t buf[65536];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) decoder_.feed(buf, static_cast<std::size_t>(n));
    return decoder_.next();
  }

  /// Encodes event i's request. The service numbers jobs in arrival
  /// order from 0, so a departure names its job without waiting for the
  /// arrival's response, and requests go out exactly in stream order.
  void send(std::size_t i, std::int64_t now) {
    const Event& ev = events_[i];
    net::Request req;
    req.id = i;
    req.time = ev.time;
    if (ev.kind == EventKind::kArrival) {
      req.type = net::MsgType::kArrive;
      req.size = inst_[ev.item].size;
      req.expected_departure = inst_[ev.item].departure;
      job_of_item_[ev.item] = next_job_++;
    } else {
      req.type = net::MsgType::kDepart;
      req.job = job_of_item_[ev.item];
    }
    net::encode_request(req, out_);
    sent_at_[i] = now;
    ++outstanding_;
  }

  std::size_t poll_responses(PhaseStats& st, Spans* spans, Result& result) {
    std::size_t got = 0;
    while (auto payload = next_payload()) {
      const std::int64_t now = now_ns();
      const net::Response resp =
          net::decode_response(payload->data(), payload->size());
      ++got;
      if (resp.id >= events_.size() || sent_at_[resp.id] == 0 ||
          answered_[resp.id] != 0) {
        result.check(false, "wire: response with an unexpected request id " +
                                std::to_string(resp.id));
        continue;
      }
      answered_[resp.id] = 1;
      --outstanding_;
      ++st.answered;
      const Event& ev = events_[resp.id];
      const bool arrive = ev.kind == EventKind::kArrival;
      const bool type_ok = resp.type == (arrive ? net::MsgType::kArrive
                                                : net::MsgType::kDepart);
      if (resp.status == net::Status::kRetryLater) ++st.retry_later;
      const bool ok = result.check(
          type_ok && resp.status == net::Status::kOk,
          std::string("wire: request not applied: ") +
              std::string(net::status_name(resp.status)));
      if (arrive && ok) {
        result.check(resp.job == job_of_item_[ev.item],
                     "wire: arrival answered with job " +
                         std::to_string(resp.job) + ", expected " +
                         std::to_string(job_of_item_[ev.item]));
        admitted_[ev.item] = 1;
      }
      if (!ok) continue;
      done_at_[resp.id] = now;
      st.rtt_ns.push_back(static_cast<double>(now - sent_at_[resp.id]));
      if (spans != nullptr) {
        const auto root = static_cast<std::uint32_t>(spans->spans().size());
        spans->add(kSpanWireRequest, resp.id, due_at_[resp.id], now);
        spans->add(kSpanNetRtt, resp.id, sent_at_[resp.id], now, root);
      }
    }
    return got;
  }

  const Instance& inst_;
  const std::vector<Event>& events_;
  int fd_ = -1;
  net::FrameDecoder decoder_;
  std::vector<std::uint8_t> out_;
  std::size_t out_pos_ = 0;
  std::vector<std::uint64_t> job_of_item_;
  std::vector<std::uint8_t> admitted_;
  std::uint64_t next_job_ = 0;
  std::vector<std::int64_t> sent_at_;
  std::vector<std::int64_t> due_at_;
  std::vector<std::int64_t> done_at_;  // 0 unless answered OK
  std::vector<std::uint8_t> answered_;
  std::uint64_t outstanding_ = 0;
  std::uint64_t control_ = 0;
};

void report_phase(const std::string& phase, const PhaseStats& st,
                  const ServerSample& delta,
                  const std::vector<double>& latency_bounds, Result& result) {
  const double rtt_p50 = quantile(st.rtt_ns, 0.5) * 1e-3;
  const double server_p50 =
      bucket_quantile(latency_bounds, delta.latency_buckets, 0.5) * 1e-3;
  const auto reqs =
      static_cast<double>(std::max<std::uint64_t>(delta.requests, 1));
  const auto [jmin, jmax] = std::minmax_element(delta.jobs.begin(),
                                                delta.jobs.end());
  result.set(phase + ".cloud.batch_mean",
             delta.batches > 0 ? delta.batch_ops / delta.batches : 0.0);
  result.set(phase + ".cloud.backlog_max", static_cast<double>(st.backlog_max));
  result.set(phase + ".cloud.shard_skew",
             *jmin > 0 ? static_cast<double>(*jmax) / static_cast<double>(*jmin)
                       : 0.0);
  result.set(phase + ".net.rtt_p50_us", rtt_p50);
  result.set(phase + ".net.rtt_p99_us", quantile(st.rtt_ns, 0.99) * 1e-3);
  result.set(phase + ".net.server_p50_us", server_p50);
  result.set(phase + ".net.server_p99_us",
             bucket_quantile(latency_bounds, delta.latency_buckets, 0.99) *
                 1e-3);
  result.set(phase + ".net.outside_p50_us", rtt_p50 - server_p50);
  result.set(phase + ".net.bytes_per_req",
             static_cast<double>(delta.bytes) / reqs);
  result.set(phase + ".net.retry_later_share",
             static_cast<double>(st.retry_later) /
                 static_cast<double>(std::max<std::uint64_t>(st.answered, 1)));
  result.set(phase + ".driver.late_p99_us", quantile(st.late_ns, 0.99) * 1e-3);
  result.set(phase + ".driver.valid_share",
             st.blocks > 0 ? static_cast<double>(st.kept) /
                                 static_cast<double>(st.blocks)
                           : 0.0);
}

}  // namespace

void run_wire(const Config& cfg, Result& result) {
  // Phases in order; the traced run adds an untraced lo phase first, the
  // baseline of the tracing overhead.
  struct Phase {
    const char* name;
    double rate;
    bool traced;
  };
  std::vector<Phase> phases;
  if (cfg.trace) phases.push_back({"lo", kLoRate, false});
  phases.push_back({"lo", kLoRate, cfg.trace});
  phases.push_back({"hi", kHiRate, cfg.trace});
  const double phase_s =
      cfg.seconds * (cfg.trace ? 0.25 : 0.35) / static_cast<double>(kRounds);
  std::vector<std::size_t> bounds{0};
  for (const Phase& p : phases) {
    const auto n = static_cast<std::size_t>(p.rate * phase_s * cfg.scale);
    bounds.push_back(bounds.back() + std::max<std::size_t>(200, n));
  }
  const std::size_t items = (bounds.back() + 1) / 2;

  // ---- Set-up, repeated: generate, start the service, connect ------------
  Instance inst;
  std::vector<Event> events;
  std::vector<double> setup_s, gen_ms;
  for (int rep = 0; rep < kSetups; ++rep) {
    const std::int64_t t0 = now_ns();
    inst = gen::uniform_instance(params(items), cfg.seed);
    events = build_event_stream(inst);
    const std::int64_t t1 = now_ns();
    obs::MetricRegistry registry;
    pin_thread(false);
    Service service(&registry);
    pin_thread(true);
    Driver driver(service.server.port(), inst, events);
    const std::int64_t t2 = now_ns();
    setup_s.push_back(static_cast<double>(t2 - t0) * 1e-9);
    gen_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
  }
  result.set("setup_s", median(setup_s));
  result.set("gen.instance_ms", median(gen_ms));
  // Phase boundaries follow the event stream, whose length is 2 * items.
  bounds.back() = events.size();

  // ---- Rounds: each replays the stream into a fresh service --------------
  // Where the service's threads land (and the host cores under them)
  // moves its latency by up to ~30% from one service instance to the
  // next; the latencies take the median over kRounds instances, of each
  // one's p50 and of the 10th percentile of its block p99s.
  struct PhaseTotal {
    PhaseStats st;
    ServerSample delta;
  };
  std::map<std::string, PhaseTotal> totals;
  RoundLatency latency(0.1, 0.5);
  const std::vector<double> latency_bounds = obs::default_latency_bounds_ns();
  Spans spans(cfg.trace ? 2 * events.size() * kRounds : 0);
  double wall_ns = 0.0;
  std::uint64_t answered = 0;
  std::vector<double> untraced_lo;
  for (int round = 0; round < kRounds; ++round) {
    obs::MetricRegistry registry;
    pin_thread(false);
    Service service(&registry);
    pin_thread(true);
    Driver driver(service.server.port(), inst, events);
    // Warm the connection, the loop and the shard workers.
    result.check(driver.call(net::MsgType::kPing).status == net::Status::kOk,
                 "wire: ping failed");
    std::uint64_t round_answered = 0;
    for (std::size_t k = 0; k < phases.size(); ++k) {
      const Phase& p = phases[k];
      const ServerSample before = ServerSample::take(registry, service.sharded);
      const PhaseStats st =
          driver.run_phase(bounds[k], bounds[k + 1], p.rate, service.sharded,
                           p.traced ? &spans : nullptr, result);
      const ServerSample after = ServerSample::take(registry, service.sharded);
      wall_ns += st.wall_ns;
      round_answered += st.answered;
      if (!p.traced && cfg.trace) {
        untraced_lo.insert(untraced_lo.end(), st.latency_ns.begin(),
                           st.latency_ns.end());
        continue;
      }
      latency.add(p.name, st.latency_ns);
      PhaseTotal& t = totals[p.name];
      t.st.merge(st);
      t.delta.accumulate(before, after);
    }
    answered += round_answered;

    // Drain over the wire; its hash must match the in-process snapshot.
    const net::Response drained = driver.call(net::MsgType::kDrain);
    service.server.wait();
    const Packing packing = service.sharded.snapshot();
    result.check(drained.status == net::Status::kOk &&
                     drained.packing_hash == packing_hash(packing),
                 "wire: DRAIN hash differs from ShardedDispatcher::snapshot()",
                 round_answered);
    if (round > 0) continue;
    result.set("core.bins_opened", static_cast<double>(packing.num_bins()));
    Instance admitted(inst.dim());
    for (std::size_t i = 0; i < inst.size(); ++i) {
      if (driver.admitted()[i] != 0) {
        admitted.add(inst[i].arrival, inst[i].departure, inst[i].size);
      }
    }
    const double lb = lower_bounds(admitted).best();
    result.check(packing.cost() >= lb, "wire: cost below the lower bound");
    result.set("cost_over_lb", packing.cost() / lb);
  }
  latency.report(result);
  for (const auto& [name, t] : totals) {
    if (cfg.trace) report_phase(name, t.st, t.delta, latency_bounds, result);
  }
  result.set("events_per_s", static_cast<double>(answered) * 1e9 / wall_ns);
  if (cfg.trace) {
    result.set("tracing.overhead_share",
               result.get("lo.p50_ms") * 1e6 / median(untraced_lo) - 1.0);
    spans.write(cfg.work_dir + "/spans.bin");
  }

  // ---- recover_s: cold restart back to serving ---------------------------
  // Without a journal, a restarted service is recovered by its clients
  // re-admitting their jobs: start, connect, and have kRestartJobs
  // arrivals answered.
  std::vector<double> restart_s;
  const auto restart_jobs = std::min<std::size_t>(kRestartJobs, inst.size());
  for (int r = 0; r < (cfg.trace ? 3 : kRestarts); ++r) {
    const std::int64_t t0 = now_ns();
    pin_thread(false);
    Service fresh(nullptr);
    pin_thread(true);
    Driver d(fresh.server.port(), inst, events);
    const bool ok = d.burst(restart_jobs, kRestartWindow);
    restart_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    result.attempt(restart_jobs);
    result.check(ok, "wire: restarted service did not admit the jobs",
                 restart_jobs);
    fresh.server.stop();
  }
  // Each restart starts four threads and a connection, whose wake-ups a
  // busy host delays by milliseconds: the lower quartile of the restarts.
  result.set("recover_s", quantile(restart_s, 0.25));
}

}  // namespace perfbench
