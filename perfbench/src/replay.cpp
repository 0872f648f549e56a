// `replay`: the paper's model at scale. A Table-2 uniform trace (d=5),
// written once with TraceWriter, streamed by TraceCursor into a
// Dispatcher under MoveToFront on one thread. The core placement scan does
// nearly all of the work; persist, cloud, net and tenancy do none.
#include <algorithm>
#include <memory>
#include <string>

#include "common.hpp"
#include "core/dispatcher.hpp"
#include "core/packing_hash.hpp"
#include "core/policies/registry.hpp"
#include "core/simulator.hpp"
#include "gen/uniform.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "opt/lower_bounds.hpp"
#include "trace/format.hpp"
#include "trace/reader.hpp"
#include "trace/writer.hpp"

namespace perfbench {
namespace {

using namespace dvbp;

constexpr const char* kPolicy = "MoveToFront";

// Offered rates of the open-loop phases, in events/s: about 1/4 and 3/4
// of the ~620k events/s the seed sustains on this trace on a 4-core x86
// host. Frozen: never recomputed from the machine.
constexpr double kLoRate = 150000.0;
constexpr double kHiRate = 450000.0;

// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;
// Reopen-and-validate repeats behind recover_s.
constexpr int kRecoveries = 15;

gen::UniformParams params(const Config& cfg) {
  // harness --n=300000 --d=5 --mu=12 --span=5000 --bin-size=400 peaks at
  // ~380 open bins: dense enough that the fits scan dominates.
  gen::UniformParams p;
  p.d = 5;
  p.n = std::max<std::size_t>(
      2000, static_cast<std::size_t>(300000 * cfg.scale));
  p.mu = 12;
  p.span = std::max<std::int64_t>(
      100, static_cast<std::int64_t>(5000 * cfg.scale));
  p.bin_size = 400;
  return p;
}

struct Pass {
  double wall_ns = 0.0;
  std::uint64_t events = 0;
  std::uint64_t hash = 0;
  double cost = 0.0;
  std::size_t bins_opened = 0;
  double open_bins_sum = 0.0;
};

/// One episode: a fresh policy and Dispatcher fed by a TraceCursor.
class Episode {
 public:
  Episode(const trace::TraceReader& reader, obs::Observer* observer = nullptr)
      : reader_(reader),
        policy_(make_policy(kPolicy)),
        dispatcher_(reader.dim(), *policy_, 1.0, observer),
        cursor_(reader),
        size_(reader.dim()) {}

  /// Streams one event into the dispatcher; false at end of stream.
  bool step(Spans* spans, std::uint64_t i) {
    ScopedSpan event(spans, kSpanEvent, i);
    trace::TraceEvent ev;
    {
      ScopedSpan s(spans, kSpanTraceNext, i);
      if (!cursor_.next(ev)) return false;
    }
    if (ev.kind == EventKind::kArrival) {
      reader_.size_into(ev.item, size_);
      ScopedSpan s(spans, kSpanCoreArrive, i);
      // Arrivals stream in row order, so JobId == ItemId.
      dispatcher_.arrive(ev.time, size_, reader_.departure(ev.item),
                         reader_.tenant(ev.item));
    } else {
      ScopedSpan s(spans, kSpanCoreDepart, i);
      dispatcher_.depart(ev.time, ev.item);
    }
    return true;
  }

  const Dispatcher& dispatcher() const { return dispatcher_; }

 private:
  const trace::TraceReader& reader_;
  PolicyPtr policy_;
  Dispatcher dispatcher_;
  trace::TraceCursor cursor_;
  RVec size_;
};

Pass closed_pass(const trace::TraceReader& reader, Spans* spans,
                 obs::Observer* observer = nullptr) {
  Episode ep(reader, observer);
  Pass p;
  const std::int64_t t0 = now_ns();
  while (ep.step(spans, p.events)) {
    ++p.events;
    if (spans != nullptr) {
      p.open_bins_sum += static_cast<double>(ep.dispatcher().open_bins());
    }
  }
  p.wall_ns = static_cast<double>(now_ns() - t0);
  const Packing packing = ep.dispatcher().packing();
  p.hash = packing_hash(packing);
  p.cost = packing.cost();
  p.bins_opened = ep.dispatcher().bins_opened();
  return p;
}

/// The open-loop rounds of both phases. One episode streams on from one
/// round to the next, so the rounds sample the whole trace and not only
/// its ramp-up, and only one episode's state is alive at a time; each
/// completed episode's packing is checked against the reference (outside
/// the timed ops) and a fresh episode starts.
class OpenStream {
 public:
  explicit OpenStream(const trace::TraceReader& reader)
      : reader_(reader), episode_events_(2 * reader.size()) {}

  /// Runs the next `n` events at `rate`; returns each op's time in ns.
  std::vector<double> round(double rate, std::size_t n,
                            std::uint64_t ref_hash, Result& result) {
    std::vector<double> out;
    out.reserve(n);
    while (n > 0) {
      if (!episode_) {
        episode_ = std::make_unique<Episode>(reader_);
        done_ = 0;
      }
      const std::size_t chunk = std::min(n, episode_events_ - done_);
      const std::vector<double> s = run_open_loop(
          rate, chunk,
          [&](std::size_t i) { episode_->step(nullptr, done_ + i); });
      out.insert(out.end(), s.begin(), s.end());
      done_ += chunk;
      n -= chunk;
      if (done_ == episode_events_) {
        result.check(
            packing_hash(episode_->dispatcher().packing()) == ref_hash,
            "replay: open-loop episode packing differs from simulate()",
            episode_events_);
        episode_.reset();
      }
    }
    return out;
  }

 private:
  const trace::TraceReader& reader_;
  std::size_t episode_events_;
  std::unique_ptr<Episode> episode_;
  std::size_t done_ = 0;
};

}  // namespace

void run_replay(const Config& cfg, Result& result) {
  const std::string path = cfg.work_dir + "/replay.trc";
  const gen::UniformParams gp = params(cfg);

  // ---- Set-up, repeated: generate, write, open, construct ---------------
  Instance inst;
  std::unique_ptr<trace::TraceReader> reader;
  std::vector<double> setup_s, gen_ms, write_ms, open_ms;
  for (int rep = 0; rep < kSetups; ++rep) {
    reader.reset();
    const std::int64_t t0 = now_ns();
    inst = gen::uniform_instance(gp, cfg.seed);
    const std::int64_t t1 = now_ns();
    trace::TraceWriter::write_instance(inst, path);
    const std::int64_t t2 = now_ns();
    if (cfg.corrupt == "trace") flip_byte(path, file_size(path) / 2);
    try {
      reader = std::make_unique<trace::TraceReader>(path);
    } catch (const trace::TraceError& e) {
      result.attempt(2 * inst.size());
      result.check(false,
                   std::string("replay: trace file failed validation: ") +
                       e.what(),
                   2 * inst.size());
      return;
    }
    const std::int64_t t3 = now_ns();
    Episode ready(*reader);  // the service, constructed and ready
    const std::int64_t t4 = now_ns();
    setup_s.push_back(static_cast<double>(t4 - t0) * 1e-9);
    gen_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    write_ms.push_back(static_cast<double>(t2 - t1) * 1e-6);
    open_ms.push_back(static_cast<double>(t3 - t2) * 1e-6);
  }
  result.set("setup_s", median(setup_s));
  result.set("gen.instance_ms", median(gen_ms));
  result.set("trace.write_ms", median(write_ms));
  result.set("trace.open_ms", median(open_ms));

  // Reference: the batch engine on the same instance.
  const PolicyPtr ref_policy = make_policy(kPolicy);
  const SimResult ref = simulate(inst, *ref_policy);
  const std::uint64_t ref_hash = packing_hash(ref.packing);
  const double lb = lower_bounds(inst).best();
  const std::uint64_t events = 2 * inst.size();

  const auto check_pass = [&](const Pass& p) {
    result.attempt(p.events);
    result.check(p.events == events, "replay: pass streamed " +
                 std::to_string(p.events) + " events, expected " +
                 std::to_string(events), events);
    result.check(p.hash == ref_hash,
                 "replay: pass packing hash differs from simulate()", p.events);
    result.check(p.cost >= lb, "replay: cost below the lower bound", p.events);
  };

  // Warm caches and the allocator before timing.
  check_pass(closed_pass(*reader, nullptr));

  if (!cfg.trace) {
    // ---- Closed loop: events per wall second, median over passes -------
    std::vector<double> rates;
    while (rates.size() < passes(cfg.seconds, 0.6)) {
      const Pass p = closed_pass(*reader, nullptr);
      check_pass(p);
      rates.push_back(static_cast<double>(p.events) * 1e9 / p.wall_ns);
    }
    result.set("events_per_s", median(rates));

    // ---- Open loop at the frozen lo and hi rates -------------------------
    // Rounds alternate lo and hi (RoundLatency).
    OpenStream stream(*reader);
    RoundLatency latency(0.5, kRoundQ);
    for (int r = 0; r < 2 * kOpenRounds; ++r) {
      const bool hi = r % 2 == 1;
      const double rate = hi ? kHiRate : kLoRate;
      const auto n = std::max<std::size_t>(
          kTailBlock,
          static_cast<std::size_t>(rate * cfg.seconds * 0.2 / kOpenRounds));
      result.attempt(n);
      latency.add(hi ? "hi" : "lo", stream.round(rate, n, ref_hash, result));
    }
    latency.report(result);

    // ---- recover_s: reopen and fully validate the trace ------------------
    std::vector<double> reopen_s;
    for (int r = 0; r < kRecoveries; ++r) {
      const std::int64_t t0 = now_ns();
      trace::TraceReader again(path);
      reopen_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
      result.check(again.size() == inst.size(), "replay: reopened trace size");
    }
    result.set("recover_s", median(reopen_s));
  } else {
    // ---- Traced run: untraced and traced passes alternate ---------------
    Spans spans(3 * events + 16);
    std::vector<double> untraced, traced;
    Pass last;
    while (traced.size() < passes(cfg.seconds, 0.25)) {
      const Pass u = closed_pass(*reader, nullptr);
      check_pass(u);
      untraced.push_back(static_cast<double>(u.events) * 1e9 / u.wall_ns);
      spans.clear();
      last = closed_pass(*reader, &spans);
      check_pass(last);
      traced.push_back(static_cast<double>(last.events) * 1e9 / last.wall_ns);
    }
    result.set("trace.next_ns", mean(spans.durations(kSpanTraceNext)));
    const std::vector<double> arrive = spans.durations(kSpanCoreArrive);
    result.set("core.arrive_p50_ns", quantile(arrive, 0.5));
    result.set("core.arrive_p99_ns", quantile(arrive, 0.99));
    result.set("core.depart_p50_ns",
               quantile(spans.durations(kSpanCoreDepart), 0.5));
    result.set("core.open_bins_mean",
               last.open_bins_sum / static_cast<double>(last.events));
    result.set("core.bins_opened", static_cast<double>(last.bins_opened));
    report_layer_shares(spans, last.wall_ns, last.events, median(untraced),
                        median(traced), result);
    spans.write(cfg.work_dir + "/spans.bin");

    // Fit failures need the observer, which slows every event: its own
    // untimed pass.
    obs::MetricRegistry registry;
    obs::Observer observer(&registry);
    check_pass(closed_pass(*reader, nullptr, &observer));
    result.set("core.fit_fail_per_arrive",
               static_cast<double>(
                   registry.counter("dvbp.alloc.fit_failures_total").value()) /
                   static_cast<double>(inst.size()));
  }

  result.set("cost_over_lb", ref.cost / lb);
}

}  // namespace perfbench
