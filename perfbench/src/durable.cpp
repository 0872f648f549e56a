// `durable`: a high-churn, tenant-labelled stream with few open bins. Each
// arrival passes the AdmissionGate, then the journaled DurableDispatcher
// (fsync=interval, UsageAccountant hook installed); the Rebalancer runs
// with migration budget 1 on every departure; credits settle at a fixed
// sim-time cadence and checkpoint() runs at a fixed event cadence. At the
// end the instance is abandoned without a final checkpoint and recovery
// is timed. Placement is cheap here: journal framing, write(2), migration
// planning, tenancy accounting and recovery replay do the work.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/event.hpp"
#include "core/invariants.hpp"
#include "core/packing_hash.hpp"
#include "core/policies/registry.hpp"
#include "core/rebalancer.hpp"
#include "gen/tenants.hpp"
#include "gen/uniform.hpp"
#include "obs/metrics.hpp"
#include "opt/lower_bounds.hpp"
#include "persist/durable.hpp"
#include "persist/journal.hpp"
#include "tenancy/accountant.hpp"
#include "tenancy/arbiter.hpp"
#include "tenancy/gate.hpp"

namespace perfbench {
namespace {

using namespace dvbp;

constexpr const char* kPolicy = "MoveToFront";
constexpr std::uint32_t kTenants = 4;
constexpr double kInitCredits = 1.0;
constexpr double kSettleEvery = 50.0;  // sim-time units
// checkpoint() runs when (event index + kCheckpointEvery/2) is a multiple
// of kCheckpointEvery. Event counts are multiples of kCheckpointEvery, so
// every pass ends exactly kCheckpointEvery/2 events after its last
// checkpoint and recovery replays a tail of the same length on every seed.
constexpr std::size_t kCheckpointEvery = 32768;

// Offered rates of the open-loop phases, in events/s: about 1/4 and 3/4
// of what the seed sustains on this stream on a 4-core x86 host. Frozen.
constexpr double kLoRate = 32000.0;
constexpr double kHiRate = 96000.0;

constexpr int kSetups = 9;
constexpr int kRecoveries = 9;

tenancy::ArbiterConfig arbiter_config() {
  tenancy::ArbiterConfig c;
  c.num_tenants = kTenants;
  c.alpha = 0.02;
  // Finite quota so the gate denies some arrivals.
  c.capacity_units = 4.0;
  c.init_credits = kInitCredits;
  return c;
}

MigrationConfig migration_config() {
  MigrationConfig c;
  c.migrations_per_event = 1.0;
  return c;
}

Instance make_instance(const Config& cfg) {
  gen::UniformParams p;
  p.d = 2;
  // A whole number of checkpoint periods of events (see kCheckpointEvery).
  const auto periods = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(5 * cfg.scale)));
  p.n = periods * kCheckpointEvery / 2;
  p.mu = 4;
  p.span = static_cast<std::int64_t>(p.n / 6);  // ~15 active items
  p.bin_size = 100;
  Instance inst = gen::uniform_instance(p, cfg.seed);
  gen::label_tenants_uniform(inst, kTenants, cfg.seed ^ 0x7e4a7ebef1ull);
  return inst;
}

/// The composed service of one pass, on its own journal directory.
class Stack {
 public:
  Stack(const Instance& inst, const std::string& dir, bool checkpoints,
        obs::MetricRegistry* metrics)
      : inst_(inst),
        checkpoints_(checkpoints),
        arbiter_(arbiter_config()),
        gate_(arbiter_),
        accountant_(kTenants),
        policy_(make_policy(kPolicy)),
        durable_(inst.dim(), *policy_, options(dir, metrics)),
        rebalancer_(durable_.dispatcher(), migration_config(),
                    MigrationExec{
                        [this](Time t, JobId j) {
                          ScopedSpan s(spans_, kSpanPersistEvict, event_);
                          durable_.evict(t, j);
                        },
                        [this](Time t, JobId j, BinId b) {
                          ScopedSpan s(spans_, kSpanPersistReplace, event_);
                          return durable_.replace(t, j, b);
                        }}),
        job_of_item_(inst.size(), kNoItem),
        next_settle_(inst.empty() ? 0.0
                                  : inst.first_arrival() + kSettleEvery) {}

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  void step(const Event& ev, std::uint64_t i, Spans* spans) {
    spans_ = spans;
    event_ = i;
    ScopedSpan event(spans, kSpanEvent, i);
    while (ev.time >= next_settle_) {
      settle(next_settle_);
      next_settle_ += kSettleEvery;
    }
    const Item& item = inst_[ev.item];
    if (ev.kind == EventKind::kArrival) {
      ++admits_;
      bool admitted = false;
      {
        ScopedSpan s(spans, kSpanTenancyAdmit, i);
        admitted = gate_.admit(ev.time, item.tenant, item.size, item.id);
      }
      if (!admitted) {
        ++denied_;
      } else {
        ScopedSpan s(spans, kSpanPersistArrive, i);
        job_of_item_[ev.item] =
            durable_.arrive(ev.time, item.size, item.departure, item.tenant)
                .job;
      }
    } else if (job_of_item_[ev.item] != kNoItem) {
      {
        ScopedSpan s(spans, kSpanPersistDepart, i);
        durable_.depart(ev.time, job_of_item_[ev.item]);
      }
      {
        ScopedSpan s(spans, kSpanTenancyRelease, i);
        gate_.release(item.tenant, item.size);
      }
      {
        ScopedSpan s(spans, kSpanCoreMigrate, i);
        rebalancer_.on_departure(ev.time);
      }
      if (PackingInvariantChecker::check_budget(rebalancer_.budget_usage())) {
        budget_overdrawn_ = true;
      }
    }
    if (checkpoints_ &&
        (i + 1 + kCheckpointEvery / 2) % kCheckpointEvery == 0) {
      ScopedSpan s(spans, kSpanPersistCheckpoint, i);
      durable_.checkpoint();
    }
    open_bins_sum_ += static_cast<double>(durable_.dispatcher().open_bins());
  }

  /// Final settlement at the end of the stream, after the last checkpoint,
  /// so the journal tail carries the newest credit state.
  void finish(Time end) { settle(std::max(end, last_settle_)); }

  const persist::DurableDispatcher& durable() const { return durable_; }
  const tenancy::Arbiter& arbiter() const { return arbiter_; }
  const Rebalancer& rebalancer() const { return rebalancer_; }
  std::uint64_t admits() const { return admits_; }
  std::uint64_t denied() const { return denied_; }
  bool budget_overdrawn() const { return budget_overdrawn_; }
  double open_bins_sum() const { return open_bins_sum_; }
  /// Admitted items with their real times: the lower-bound input.
  Instance admitted() const {
    Instance out(inst_.dim());
    for (std::size_t i = 0; i < inst_.size(); ++i) {
      if (job_of_item_[i] != kNoItem) {
        out.add(inst_[i].arrival, inst_[i].departure, inst_[i].size);
      }
    }
    return out;
  }

 private:
  persist::DurableOptions options(const std::string& dir,
                                  obs::MetricRegistry* metrics) {
    persist::DurableOptions o;
    o.dir = dir;
    o.fsync = persist::FsyncPolicy::kInterval;
    o.metrics = metrics;
    o.usage_hook = &accountant_;
    return o;
  }

  void settle(Time at) {
    ScopedSpan s(spans_, kSpanTenancySettle, event_);
    accountant_.on_advance(std::max(at, accountant_.last_event()),
                           durable_.dispatcher().open_bins());
    gate_.settle(at, accountant_.cut_epoch());
    {
      ScopedSpan c(spans_, kSpanPersistCredits, event_);
      durable_.settle_credits(at, arbiter_.state_bytes());
    }
    last_settle_ = at;
  }

  const Instance& inst_;
  bool checkpoints_;
  tenancy::Arbiter arbiter_;
  tenancy::AdmissionGate gate_;
  tenancy::UsageAccountant accountant_;
  PolicyPtr policy_;
  persist::DurableDispatcher durable_;
  Rebalancer rebalancer_;
  std::vector<JobId> job_of_item_;
  Time next_settle_;
  Time last_settle_ = 0.0;
  Spans* spans_ = nullptr;
  std::uint64_t event_ = 0;
  std::uint64_t admits_ = 0;
  std::uint64_t denied_ = 0;
  bool budget_overdrawn_ = false;
  double open_bins_sum_ = 0.0;
};

struct PassOutcome {
  double wall_ns = 0.0;
  std::uint64_t state_hash = 0;
  std::vector<std::uint8_t> credits;
  double cost = 0.0;
  double lb = 0.0;
};

/// Runs every event through a fresh stack on `dir` and checks the final
/// state; the stack is returned for per-layer reads, then abandoned.
PassOutcome closed_pass(const Instance& inst, const std::vector<Event>& events,
                        const std::string& dir, Spans* spans,
                        obs::MetricRegistry* metrics, Result& result,
                        std::unique_ptr<Stack>& keep) {
  reset_dir(dir);
  auto stack = std::make_unique<Stack>(inst, dir, true, metrics);
  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < events.size(); ++i) {
    stack->step(events[i], i, spans);
  }
  stack->finish(events.empty() ? 0.0 : events.back().time);
  PassOutcome out;
  out.wall_ns = static_cast<double>(now_ns() - t0);

  const tenancy::Arbiter& arb = stack->arbiter();
  const std::uint64_t n = events.size();
  result.attempt(n);
  result.check(
      std::abs(arb.credit_sum() -
               (kTenants * kInitCredits + arb.public_injected())) <=
          1e-6 * (kTenants * kInitCredits + arb.public_injected()),
      "durable: credit_sum != n*init + public_injected", n);
  const auto bad =
      PackingInvariantChecker().check(stack->durable().dispatcher());
  result.check(!bad, "durable: packing invariant: " + bad.value_or(""), n);
  result.check(!stack->budget_overdrawn(),
               "durable: migration budget overdrawn", n);
  out.state_hash = dispatcher_state_hash(stack->durable().dispatcher());
  out.credits = arb.state_bytes();
  out.cost = stack->durable().dispatcher().packing().cost();
  out.lb = lower_bounds(stack->admitted()).best();
  result.check(out.cost >= out.lb, "durable: cost below the lower bound", n);
  keep = std::move(stack);
  return out;
}

}  // namespace

void run_durable(const Config& cfg, Result& result) {
  const std::string pass_dir = cfg.work_dir + "/durable-pass";
  const std::string pristine = cfg.work_dir + "/durable-crashed";
  const std::string rec_dir = cfg.work_dir + "/durable-recover";

  // ---- Set-up, repeated: generate, label, construct ----------------------
  Instance inst;
  std::vector<Event> events;
  std::vector<double> setup_s, gen_ms;
  for (int rep = 0; rep < kSetups; ++rep) {
    reset_dir(pass_dir);
    const std::int64_t t0 = now_ns();
    inst = make_instance(cfg);
    events = build_event_stream(inst);
    const std::int64_t t1 = now_ns();
    Stack ready(inst, pass_dir, true, nullptr);
    const std::int64_t t2 = now_ns();
    setup_s.push_back(static_cast<double>(t2 - t0) * 1e-9);
    gen_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
  }
  result.set("setup_s", median(setup_s));
  result.set("gen.instance_ms", median(gen_ms));

  obs::MetricRegistry registry;
  std::unique_ptr<Stack> last;
  // Warm-up pass; its outcome is the reference every later pass matches.
  const PassOutcome ref =
      closed_pass(inst, events, pass_dir, nullptr, &registry, result, last);
  const auto check_same = [&](const PassOutcome& p) {
    result.check(p.state_hash == ref.state_hash && p.credits == ref.credits,
                 "durable: passes disagree on the final state", events.size());
  };
  Spans spans(cfg.trace ? 8 * events.size() : 0);

  if (!cfg.trace) {
    std::vector<double> rates;
    while (rates.size() < passes(cfg.seconds, 0.35)) {
      const PassOutcome p =
          closed_pass(inst, events, pass_dir, nullptr, &registry, result, last);
      check_same(p);
      rates.push_back(static_cast<double>(events.size()) * 1e9 / p.wall_ns);
    }
    result.set("events_per_s", median(rates));
  } else {
    std::vector<double> untraced, traced;
    PassOutcome p;
    while (traced.size() < passes(cfg.seconds, 0.15)) {
      p = closed_pass(inst, events, pass_dir, nullptr, &registry, result, last);
      check_same(p);
      untraced.push_back(static_cast<double>(events.size()) * 1e9 / p.wall_ns);
      spans.clear();
      obs::MetricRegistry pass_metrics;
      p = closed_pass(inst, events, pass_dir, &spans, &pass_metrics, result,
                      last);
      check_same(p);
      traced.push_back(static_cast<double>(events.size()) * 1e9 / p.wall_ns);
      const double ops = static_cast<double>(last->durable().next_seq() - 1);
      const auto count = [&](const char* name) {
        return static_cast<double>(pass_metrics.counter(name).value());
      };
      result.set("persist.bytes_per_op",
                 count("dvbp.persist.journal_bytes_total") / ops);
      result.set("persist.commits_per_op",
                 count("dvbp.persist.journal_commits_total") / ops);
      result.set("persist.fsyncs", count("dvbp.persist.fsyncs_total"));
    }
    const std::vector<double> arrive = spans.durations(kSpanPersistArrive);
    const std::vector<double> migrate = spans.durations(kSpanCoreMigrate);
    result.set("persist.arrive_p50_ns", quantile(arrive, 0.5));
    result.set("persist.arrive_p99_ns", quantile(arrive, 0.99));
    result.set("persist.depart_p50_ns",
               quantile(spans.durations(kSpanPersistDepart), 0.5));
    result.set("persist.checkpoint_ms",
               mean(spans.durations(kSpanPersistCheckpoint)) * 1e-6);
    result.set("core.migrate_p50_ns", quantile(migrate, 0.5));
    result.set("core.migrate_p99_ns", quantile(migrate, 0.99));
    result.set("core.migrations",
               static_cast<double>(last->rebalancer().stats().migrations));
    result.set("tenancy.admit_ns", mean(spans.durations(kSpanTenancyAdmit)));
    result.set("tenancy.deny_share", static_cast<double>(last->denied()) /
                                         static_cast<double>(last->admits()));
    result.set("tenancy.settle_ms",
               mean(spans.durations(kSpanTenancySettle)) * 1e-6);
    result.set("core.open_bins_mean",
               last->open_bins_sum() / static_cast<double>(events.size()));
    result.set("core.bins_opened",
               static_cast<double>(last->durable().dispatcher().bins_opened()));
    report_layer_shares(spans, p.wall_ns, events.size(), median(untraced),
                        median(traced), result);
    spans.write(cfg.work_dir + "/spans.bin");
  }
  result.set("cost_over_lb", ref.cost / ref.lb);

  // ---- Crash: abandon the last pass without a final checkpoint ----------
  last.reset();
  copy_dir(pass_dir, pristine);
  if (cfg.corrupt == "journal") {
    const std::vector<std::string> segs = persist::journal_segments(pristine);
    if (!segs.empty()) flip_byte(segs.back(), file_size(segs.back()) / 2);
  }
  std::vector<double> recover_s;
  const int recoveries = cfg.trace ? 3 : kRecoveries;
  for (int r = 0; r < recoveries; ++r) {
    copy_dir(pristine, rec_dir);
    PolicyPtr policy = make_policy(kPolicy);
    tenancy::UsageAccountant accountant(kTenants);
    persist::DurableOptions opts;
    opts.dir = rec_dir;
    opts.usage_hook = &accountant;
    const std::int64_t t0 = now_ns();
    persist::DurableDispatcher recovered(inst.dim(), *policy, opts);
    recover_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    result.attempt(1);
    result.check(
        dispatcher_state_hash(recovered.dispatcher()) == ref.state_hash,
        "durable: recovered packing differs from the pre-crash state");
    result.check(recovered.recovery().tenant_credits == ref.credits,
                 "durable: recovered tenant credits differ from the pre-crash "
                 "state");
    result.set("persist.replayed_ops",
               static_cast<double>(recovered.recovery().replayed_ops));
  }
  result.set("recover_s", median(recover_s));

  if (cfg.trace) return;
  // ---- Open loop at the frozen lo and hi rates ---------------------------
  // Rounds alternate lo and hi (RoundLatency), each on a fresh stack
  // without checkpoints: the checkpoint is an event-count cadence whose
  // cost events_per_s already carries; here it would put a few whole-file
  // writes into the latency tail. The journal's flusher thread is started
  // away from the driving thread's core: woken every fsync_interval_ops
  // ops, it would otherwise preempt the op in flight whenever the
  // scheduler put it on the same core.
  RoundLatency latency(0.5, kRoundQ);
  for (int r = 0; r < 2 * kOpenRounds; ++r) {
    const bool hi = r % 2 == 1;
    const double rate = hi ? kHiRate : kLoRate;
    const std::size_t n = std::min(
        events.size(),
        std::max<std::size_t>(kTailBlock,
                              static_cast<std::size_t>(
                                  rate * cfg.seconds * 0.2 / kOpenRounds)));
    reset_dir(pass_dir);
    pin_thread(false);
    Stack stack(inst, pass_dir, false, &registry);
    pin_thread(true);
    latency.add(hi ? "hi" : "lo",
                run_open_loop(rate, n, [&](std::size_t i) {
                  stack.step(events[i], i, nullptr);
                }));
    result.attempt(n);
  }
  latency.report(result);
}

}  // namespace perfbench
