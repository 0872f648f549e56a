// The `harness` CLI: run one instrumented simulation and dump telemetry.
//
// Runs a workload (a built-in generator or a CSV trace) under one policy
// with the obs subsystem wired in, prints a summary, and optionally writes
//   --metrics-out=<path>  one JSON object: the MetricRegistry snapshot;
//   --trace-out=<path>    JSONL decision trace (docs/OBSERVABILITY.md).
//
//   $ harness --generator=uniform --policy=MoveToFront --n=1000 --d=2
//       --mu=10 --metrics-out=metrics.json --trace-out=trace.jsonl
//       --check-roundtrip
//
// --check-roundtrip re-reads the emitted trace, reconstructs the Packing
// via obs::replay_packing_file, and fails (exit 2) unless it matches the
// simulator's packing exactly -- the telemetry acceptance gate, also run
// from tests/test_obs_cli.cpp.
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "cloud/router.hpp"
#include "cloud/sharded_dispatcher.hpp"
#include "core/event.hpp"
#include "core/instance.hpp"
#include "core/dispatcher.hpp"
#include "core/packing_hash.hpp"
#include "core/policies/registry.hpp"
#include "core/rebalancer.hpp"
#include "core/simulator.hpp"
#include "gen/registry.hpp"
#include "gen/tenants.hpp"
#include "harness/cli.hpp"
#include "harness/table.hpp"
#include "net/client.hpp"
#include "net/loadgen.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "obs/replay.hpp"
#include "obs/trace.hpp"
#include "persist/durable.hpp"
#include "persist/journal.hpp"
#include "opt/offline_opt.hpp"
#include "tenancy/accountant.hpp"
#include "tenancy/arbiter.hpp"
#include "tenancy/gate.hpp"
#include "tenancy/report.hpp"
#include "trace/convert.hpp"
#include "trace/format.hpp"
#include "trace/reader.hpp"
#include "trace/reduce.hpp"
#include "trace/replay.hpp"
#include "trace/writer.hpp"

namespace {

using namespace dvbp;

int usage() {
  std::cout <<
      "harness: run one instrumented DVBP simulation and dump telemetry\n"
      "  workload:  --generator=uniform|zipf|bursty|correlated|diurnal\n"
      "             --n=1000 --d=2 --mu=10 --span=1000 --bin-size=100\n"
      "             --seed=1 --trial=0   (or --trace=<instance.csv>)\n"
      "  policy:    --policy=MoveToFront --capacity=1.0\n"
      "  service:   --shards=K  (run the sharded placement service instead\n"
      "             of the serial simulator; reports wall-clock throughput)\n"
      "             --router=round-robin|rendezvous|least-usage\n"
      "  migration (docs/MIGRATION.md):\n"
      "             --migrate-budget=N|inf   migrations allowed per\n"
      "             departure event (amortized; 0 disables repacking)\n"
      "             --migrate-volume=V|inf   L1 volume allowed per event\n"
      "             serial: runs the live Dispatcher + Rebalancer instead\n"
      "             of simulate(); sharded: one shard-rebalance pass at\n"
      "             the stream midpoint with max_moves=budget\n"
      "  outputs:   --metrics-out=<path.json> --trace-out=<path.jsonl>\n"
      "             --check-roundtrip  (replay trace, verify packing)\n"
      "             --quiet\n"
      "  durability (docs/DURABILITY.md):\n"
      "             --journal-dir=<dir>  write-ahead journal + checkpoints\n"
      "             --fsync=always|interval|none --fsync-interval=256\n"
      "             --checkpoint-every=N  (journaled ops; 0 = never)\n"
      "             --recover  (restore from --journal-dir, report, exit;\n"
      "             no workload is ingested)\n"
      "  --trace-out/--check-roundtrip apply to the serial path only.\n"
      "  tenancy (docs/TENANCY.md):\n"
      "             --tenants=T  label the workload with T tenants and run\n"
      "             the serial dispatcher behind the credit admission gate;\n"
      "             prints the welfare/instant-fairness/utilization report\n"
      "             --fairshare=w0,w1,...  relative fair shares (default\n"
      "             uniform)  --alpha=0.0  public credit injection rate\n"
      "             --capacity-units=U  admission capacity (bin units;\n"
      "             default: no quota)  --credits=C  starting balances\n"
      "             --settle-every=T  settlement epoch length (sim time)\n"
      "             --inflate-tenant=t --inflate-factor=F  demand-inflation\n"
      "             adversary  --no-arbiter  baseline without gating\n"
      "\n"
      "subcommands (docs/PROTOCOL.md):\n"
      "  harness serve   --port=7070 --shards=K --policy=... [--d=2]\n"
      "                  [--router=...] [--event-loops=1] [--max-inflight=N]\n"
      "                  [--journal-dir=... --fsync=... --checkpoint-every=N]\n"
      "                  [--metrics-out=...]  run the binary-RPC placement\n"
      "                  server; SIGTERM/SIGINT or a Drain RPC drains it\n"
      "  harness loadgen --port=7070 [--host=127.0.0.1] [--connections=4]\n"
      "                  [--requests=10000] [--window=64] [--dim=2]\n"
      "                  [--depart-fraction=0.45] [--seed=42]\n"
      "                  [--rate=0 --duration=1]  (rate>0: open loop)\n"
      "                  [--drain]  send a Drain RPC afterwards and report\n"
      "                  the server's final packing hash\n"
      "                  [--trace=<file.trc>]  replay a binary trace over\n"
      "                  the wire instead of synthetic traffic\n"
      "\n"
      "trace data plane (docs/TRACES.md):\n"
      "  harness trace convert --csv=<in.csv> --out=<out.trc>\n"
      "                  [--tenants] [--strict]  Azure-style CSV\n"
      "                  (vmid,start,end,frac...) -> binary trace\n"
      "  harness trace info    --in=<trc> [--bounds]  header summary and,\n"
      "                  with --bounds, the Lemma-1 OPT lower bounds\n"
      "  harness trace reduce  --in=<trc> --out=<reduced.trc>\n"
      "                  [--size-grid=16] [--time-cells=64] [--no-opt]\n"
      "                  [--node-limit=20000000]  van Bevern-style\n"
      "                  reduction; prints a sound interval on OPT(in)\n"
      "  harness trace run     --in=<trc> [--policy=...] [--capacity=1.0]\n"
      "                  [--bounds] [--metrics-out=...]  streaming replay\n"
      "                  through the live dispatcher (O(active) memory)\n";
  return 0;
}

// A typo'd flag silently falling back to its default would corrupt the
// telemetry this CLI exists to report, so unlike the bench binaries the
// flag set is closed.
void reject_unknown_flags(const harness::Args& args) {
  static const std::set<std::string> kKnown{
      "generator", "trace",        "policy",    "n",
      "d",         "mu",           "span",      "bin-size",
      "seed",      "trial",        "capacity",  "policy-seed",
      "metrics-out", "trace-out",  "check-roundtrip", "quiet",
      "shards",    "router",       "help",
      "journal-dir", "checkpoint-every", "recover", "fsync",
      "fsync-interval", "migrate-budget", "migrate-volume",
      "tenants",   "fairshare",    "alpha",     "capacity-units",
      "credits",   "settle-every", "price",     "inflate-tenant",
      "inflate-factor", "no-arbiter"};
  for (const std::string& key : args.keys()) {
    if (!kKnown.count(key)) {
      throw harness::CliError("unknown flag '--" + key +
                              "' (see --help)");
    }
  }
}

/// Fail fast on unwritable output paths -- before the (possibly long)
/// simulation runs, so a typo'd path costs nothing. CliError exits 2.
void validate_output_paths(const harness::Args& args) {
  harness::require_writable_file("metrics-out", args.get("metrics-out", ""));
  harness::require_writable_file("trace-out", args.get("trace-out", ""));
  harness::require_writable_dir("journal-dir", args.get("journal-dir", ""));
}

/// Budget values accept "inf"/"unlimited" in addition to numbers, so the
/// unbounded sweep point of bench_migration is expressible from the CLI.
double parse_budget_value(const std::string& flag, const std::string& value,
                          double fallback) {
  if (value.empty()) return fallback;
  if (value == "inf" || value == "unlimited") {
    return MigrationConfig::kUnlimited;
  }
  try {
    const double v = std::stod(value);
    if (v < 0.0) throw std::invalid_argument("negative");
    return v;
  } catch (const std::exception&) {
    throw harness::CliError("--" + flag + "=" + value +
                            " is not a budget (number >= 0, or 'inf')");
  }
}

MigrationConfig parse_migration_config(const harness::Args& args) {
  MigrationConfig config;
  config.migrations_per_event = parse_budget_value(
      "migrate-budget", args.get("migrate-budget", ""), 0.0);
  config.volume_per_event =
      parse_budget_value("migrate-volume", args.get("migrate-volume", ""),
                         MigrationConfig::kUnlimited);
  return config;
}

bool wants_migration(const harness::Args& args) {
  return args.has("migrate-budget") || args.has("migrate-volume");
}

/// The batch run main() performs: the first mode whose trigger flag is
/// given (--tenants, --shards, --journal-dir/--recover, --migrate-*).
enum class BatchMode { kTenants, kSharded, kDurable, kMigration, kSerial };

BatchMode pick_batch_mode(const harness::Args& args) {
  if (args.has("tenants")) return BatchMode::kTenants;
  if (args.has("shards")) return BatchMode::kSharded;
  if (!args.get("journal-dir", "").empty() || args.get_bool("recover")) {
    return BatchMode::kDurable;
  }
  if (wants_migration(args)) return BatchMode::kMigration;
  return BatchMode::kSerial;
}

/// Only one batch mode runs, so a flag that mode does not read would be
/// dropped silently (e.g. --shards next to --tenants). Each such flag is
/// a CliError (exit 2) naming it, before any work starts.
void reject_unread_flags(const harness::Args& args, BatchMode mode) {
  // Read by every mode: the instance, the policy and the outputs.
  static const std::set<std::string> kEveryMode{
      "generator", "trace", "n",    "d",      "mu",       "span",
      "bin-size",  "seed",  "trial", "policy", "policy-seed",
      "capacity",  "metrics-out",    "quiet",  "help"};
  static const std::set<std::string> kDurable{
      "journal-dir", "checkpoint-every", "recover", "fsync",
      "fsync-interval", "migrate-budget", "migrate-volume"};
  std::set<std::string> reads;
  const char* name = "serial";
  switch (mode) {
    case BatchMode::kTenants:
      name = "tenant";
      reads = {"tenants", "fairshare", "alpha", "capacity-units",
               "credits", "settle-every", "price", "inflate-tenant",
               "inflate-factor", "no-arbiter", "trace-out"};
      break;
    case BatchMode::kSharded:
      name = "sharded";
      reads = kDurable;
      reads.insert({"shards", "router"});
      break;
    case BatchMode::kDurable:
      name = "durable";
      reads = kDurable;
      break;
    case BatchMode::kMigration:
      name = "migration";
      reads = {"migrate-budget", "migrate-volume", "trace-out",
               "check-roundtrip"};
      break;
    case BatchMode::kSerial:
      reads = {"trace-out", "check-roundtrip"};
      break;
  }
  for (const std::string& key : args.keys()) {
    if (!kEveryMode.count(key) && !reads.count(key)) {
      throw harness::CliError("--" + key + " is not read by the " + name +
                              " run (see --help)");
    }
  }
}

Instance load_instance(const harness::Args& args) {
  const std::string trace_path = args.get("trace", "");
  if (!trace_path.empty()) {
    std::ifstream in(trace_path, std::ios::binary);
    if (!in) {
      throw std::runtime_error("cannot open trace '" + trace_path + "'");
    }
    // Sniff the magic: --trace accepts both the legacy CSV instance dump
    // and the binary columnar format (docs/TRACES.md).
    char magic[sizeof(trace::kMagic)] = {};
    in.read(magic, sizeof(magic));
    if (in.gcount() == sizeof(magic) &&
        std::memcmp(magic, trace::kMagic, sizeof(magic)) == 0) {
      in.close();
      return trace::TraceReader(trace_path).materialize();
    }
    in.clear();
    in.seekg(0);
    return Instance::from_csv(in);
  }
  gen::UniformParams params;
  params.n = static_cast<std::size_t>(args.get_int("n", 1000));
  params.d = static_cast<std::size_t>(args.get_int("d", 2));
  params.mu = args.get_int("mu", 10);
  params.span = args.get_int("span", 1000);
  params.bin_size = args.get_int("bin-size", 100);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const auto trial = static_cast<std::uint64_t>(args.get_int("trial", 0));
  const gen::GeneratorFn generate =
      gen::make_generator(args.get("generator", "uniform"), params, seed);
  return generate(trial);
}

/// Throughput mode: feed the instance's event stream through the sharded
/// placement service, wall-clock the whole ingest, and report aggregate +
/// per-shard figures. The event feed is the same one simulate() consumes,
/// so at --shards=1 the resulting cost matches the serial path exactly
/// (pinned by tests/test_sharded_parity.cpp).
int run_sharded(const harness::Args& args, const Instance& inst) {
  const auto shards = static_cast<std::size_t>(args.get_int("shards", 1));
  const std::string policy = args.get("policy", "MoveToFront");
  const auto policy_seed =
      static_cast<std::uint64_t>(args.get_int("policy-seed", 0xD1CEu));
  const std::string metrics_out = args.get("metrics-out", "");
  const bool quiet = args.get_bool("quiet");

  obs::MetricRegistry registry;
  cloud::ShardedOptions options;
  options.shards = shards;
  options.router = cloud::parse_router(args.get("router", "round-robin"));
  options.bin_capacity = args.get_double("capacity", 1.0);
  options.metrics = &registry;
  options.journal_dir = args.get("journal-dir", "");
  options.fsync =
      persist::parse_fsync_policy(args.get("fsync", "interval"));
  options.fsync_interval_ops =
      static_cast<std::size_t>(args.get_int("fsync-interval", 256));
  options.checkpoint_every =
      static_cast<std::size_t>(args.get_int("checkpoint-every", 0));
  cloud::ShardedDispatcher service(
      inst.dim(),
      [&](std::size_t) { return make_policy(policy, policy_seed); },
      options);

  if (args.get_bool("recover")) {
    if (options.journal_dir.empty()) {
      throw harness::CliError("--recover requires --journal-dir");
    }
    harness::Table recovery({"shard", "checkpoint_seq", "replayed_ops",
                             "last_seq", "torn_tail", "jobs"});
    for (std::size_t s = 0; s < shards; ++s) {
      const persist::RecoveryReport& rec = service.shard_recovery(s);
      recovery.add_row(
          {std::to_string(s),
           rec.had_checkpoint ? std::to_string(rec.checkpoint_seq) : "-",
           std::to_string(rec.replayed_ops), std::to_string(rec.last_seq),
           rec.torn_tail ? std::to_string(rec.tail_bytes_discarded) + "B"
                         : "no",
           std::to_string(service.shard_jobs_admitted(s))});
    }
    std::cout << recovery.to_aligned_text();
    return 0;
  }

  // --migrate-budget > 0: pause at the stream midpoint (drained, so the
  // service is quiescent) and run one shard-rebalance pass with the budget
  // as the move cap. Rebalancing at the end would be vacuous -- the full
  // event stream departs every job.
  const MigrationConfig migration = parse_migration_config(args);
  const bool rebalance =
      wants_migration(args) && migration.migrations_per_event > 0.0 &&
      shards > 1;
  cloud::ShardRebalanceReport rebalance_report;

  const std::vector<Event> events = build_event_stream(inst);
  std::vector<JobId> job_of_item(inst.size(), kNoItem);
  const std::size_t midpoint = rebalance ? events.size() / 2 : events.size();
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i == midpoint && rebalance) {
      service.drain();
      cloud::ShardRebalanceConfig rconfig;
      rconfig.max_moves =
          migration.migrations_per_event == MigrationConfig::kUnlimited
              ? rconfig.max_moves
              : static_cast<std::size_t>(migration.migrations_per_event);
      rebalance_report =
          service.rebalance_shards(events[i].time, rconfig);
    }
    const Event& ev = events[i];
    const Item& item = inst[ev.item];
    if (ev.kind == EventKind::kArrival) {
      job_of_item[ev.item] =
          service.arrive(item.arrival, item.size, item.departure);
    } else {
      service.depart(ev.time, job_of_item[ev.item]);
    }
  }
  service.drain();
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - start;

  const Packing packing = service.snapshot();
  const double throughput =
      wall.count() > 0.0 ? static_cast<double>(inst.size()) / wall.count()
                         : 0.0;

  if (!metrics_out.empty()) {
    std::ofstream out(metrics_out);
    if (!out) {
      throw std::runtime_error("cannot open metrics-out '" + metrics_out +
                               "'");
    }
    out << registry.to_json() << '\n';
  }

  if (!quiet) {
    harness::Table summary({"policy", "shards", "router", "items", "cost",
                            "bins", "wall_ms", "arrivals_per_s"});
    summary.add_row(
        {policy, std::to_string(shards),
         std::string(cloud::router_name(service.router())),
         std::to_string(inst.size()), harness::Table::num(packing.cost(), 1),
         std::to_string(packing.num_bins()),
         harness::Table::num(wall.count() * 1e3, 2),
         harness::Table::num(throughput, 0)});
    std::cout << summary.to_aligned_text();

    harness::Table per_shard({"shard", "jobs", "bins", "cost",
                              "placement_p50_ns"});
    const Time horizon = events.empty() ? 0.0 : events.back().time;
    for (std::size_t s = 0; s < shards; ++s) {
      per_shard.add_row(
          {std::to_string(s),
           std::to_string(service.shard_jobs_admitted(s)),
           std::to_string(service.shard_bins_opened(s)),
           harness::Table::num(service.shard_cost_so_far(s, horizon), 1),
           harness::Table::num(
               registry
                   .histogram("dvbp.shard." + std::to_string(s) +
                              ".placement_latency_ns")
                   .quantile(0.5),
               0)});
    }
    std::cout << per_shard.to_aligned_text();
    if (rebalance) {
      harness::Table rb({"rebalance_moves", "moved_volume", "skew_before",
                         "skew_after"});
      rb.add_row({std::to_string(rebalance_report.moves),
                  harness::Table::num(rebalance_report.moved_volume, 3),
                  harness::Table::num(rebalance_report.skew_before, 2),
                  harness::Table::num(rebalance_report.skew_after, 2)});
      std::cout << rb.to_aligned_text();
    }
    if (!metrics_out.empty()) std::cout << "metrics: " << metrics_out << '\n';
  }
  return 0;
}

/// Durable serial mode (--journal-dir without --shards): the event stream
/// runs through persist::DurableDispatcher, so every op is journaled and a
/// killed run can be resumed. --recover restores from the journal
/// directory, reports what recovery found, and exits without ingesting.
int run_durable(const harness::Args& args, const Instance& inst) {
  const std::string journal_dir = args.get("journal-dir", "");
  if (journal_dir.empty()) {
    throw harness::CliError("--recover requires --journal-dir");
  }
  const std::string policy_name = args.get("policy", "MoveToFront");
  const std::string metrics_out = args.get("metrics-out", "");
  const bool quiet = args.get_bool("quiet");

  obs::MetricRegistry registry;
  const PolicyPtr policy = make_policy(
      policy_name,
      static_cast<std::uint64_t>(args.get_int("policy-seed", 0xD1CEu)));
  persist::DurableOptions dopts;
  dopts.dir = journal_dir;
  dopts.fsync = persist::parse_fsync_policy(args.get("fsync", "interval"));
  dopts.fsync_interval_ops =
      static_cast<std::size_t>(args.get_int("fsync-interval", 256));
  dopts.checkpoint_every =
      static_cast<std::size_t>(args.get_int("checkpoint-every", 0));
  dopts.metrics = &registry;
  persist::DurableDispatcher service(inst.dim(), *policy, dopts,
                                     args.get_double("capacity", 1.0));

  const persist::RecoveryReport& rec = service.recovery();
  if (!quiet && (args.get_bool("recover") || rec.last_seq > 0)) {
    harness::Table recovery({"checkpoint_seq", "replayed_ops", "last_seq",
                             "torn_tail", "open_bins", "jobs_active"});
    recovery.add_row(
        {rec.had_checkpoint ? std::to_string(rec.checkpoint_seq) : "-",
         std::to_string(rec.replayed_ops), std::to_string(rec.last_seq),
         rec.torn_tail ? std::to_string(rec.tail_bytes_discarded) + "B"
                       : "no",
         std::to_string(service.dispatcher().open_bins()),
         std::to_string(service.dispatcher().jobs_active())});
    std::cout << recovery.to_aligned_text();
  }
  if (args.get_bool("recover")) {
    const Time now = service.dispatcher().last_event_time();
    if (!quiet) {
      std::cout << "cost_so_far: "
                << harness::Table::num(service.dispatcher().cost_so_far(now),
                                       1)
                << '\n';
    }
    return 0;
  }

  // Migration over the durable path: the Rebalancer plans against the
  // inner dispatcher but mutates through the journaled evict/replace
  // wrappers, so every migration is crash-recoverable.
  const MigrationConfig migration = parse_migration_config(args);
  std::optional<Rebalancer> rebalancer;
  if (wants_migration(args)) {
    rebalancer.emplace(service.dispatcher(), migration,
                       service.migration_exec());
  }

  const std::vector<Event> events = build_event_stream(inst);
  std::vector<JobId> job_of_item(inst.size(), kNoItem);
  const auto start = std::chrono::steady_clock::now();
  for (const Event& ev : events) {
    const Item& item = inst[ev.item];
    if (ev.kind == EventKind::kArrival) {
      job_of_item[ev.item] =
          service.arrive(item.arrival, item.size, item.departure).job;
    } else {
      service.depart(ev.time, job_of_item[ev.item]);
      if (rebalancer) rebalancer->on_departure(ev.time);
    }
  }
  service.flush();
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - start;

  if (!metrics_out.empty()) {
    std::ofstream out(metrics_out);
    if (!out) {
      throw std::runtime_error("cannot open metrics-out '" + metrics_out +
                               "'");
    }
    out << registry.to_json() << '\n';
  }

  if (!quiet) {
    const Dispatcher& d = service.dispatcher();
    harness::Table summary({"policy", "items", "cost", "bins", "wall_ms",
                            "journal_bytes", "checkpoints"});
    summary.add_row(
        {policy_name, std::to_string(inst.size()),
         harness::Table::num(d.cost_so_far(d.last_event_time()), 1),
         std::to_string(d.bins_opened()),
         harness::Table::num(wall.count() * 1e3, 2),
         std::to_string(
             registry.counter("dvbp.persist.journal_bytes_total").value()),
         std::to_string(
             registry.counter("dvbp.persist.checkpoints_total").value())});
    std::cout << summary.to_aligned_text();
    if (rebalancer) {
      const MigrationStats& stats = rebalancer->stats();
      std::cout << "migrations: " << stats.migrations << " (volume "
                << harness::Table::num(stats.migrated_volume, 3)
                << ", bins closed " << stats.bins_closed << ")\n";
    }
    std::cout << "journal: " << journal_dir << '\n';
    if (!metrics_out.empty()) std::cout << "metrics: " << metrics_out
                                        << '\n';
  }
  return 0;
}

bool same_packing(const Packing& a, const Packing& b);

/// Serial migration mode (--migrate-budget without --shards/--journal-dir):
/// the event stream runs through a live Dispatcher with a Rebalancer
/// attached, so departures can trigger bounded repacking. Telemetry
/// (metrics, JSONL trace, --check-roundtrip) works exactly as in the
/// simulate() path; the trace additionally carries evict/replace records.
int run_migration(const harness::Args& args, const Instance& inst) {
  const std::string policy_name = args.get("policy", "MoveToFront");
  const std::string metrics_out = args.get("metrics-out", "");
  const std::string trace_out = args.get("trace-out", "");
  const bool quiet = args.get_bool("quiet");

  obs::MetricRegistry registry;
  std::shared_ptr<obs::TraceSink> sink;
  if (!trace_out.empty()) {
    sink = std::make_shared<obs::FileSink>(trace_out);
  }
  obs::Tracer tracer(sink);
  obs::Observer observer(&registry, &tracer);

  const PolicyPtr policy = make_policy(
      policy_name,
      static_cast<std::uint64_t>(args.get_int("policy-seed", 0xD1CEu)));
  Dispatcher dispatcher(inst.dim(), *policy,
                        args.get_double("capacity", 1.0), &observer);
  Rebalancer rebalancer(dispatcher, parse_migration_config(args));

  const std::vector<Event> events = build_event_stream(inst);
  std::vector<JobId> job_of_item(inst.size(), kNoItem);
  const auto start = std::chrono::steady_clock::now();
  for (const Event& ev : events) {
    const Item& item = inst[ev.item];
    if (ev.kind == EventKind::kArrival) {
      job_of_item[ev.item] =
          dispatcher.arrive(item.arrival, item.size, item.departure).job;
    } else {
      dispatcher.depart(ev.time, job_of_item[ev.item]);
      rebalancer.on_departure(ev.time);
    }
  }
  tracer.flush();
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - start;

  if (!metrics_out.empty()) {
    std::ofstream out(metrics_out);
    if (!out) {
      throw std::runtime_error("cannot open metrics-out '" + metrics_out +
                               "'");
    }
    out << registry.to_json() << '\n';
  }

  const Packing packing = dispatcher.packing();
  const MigrationStats& stats = rebalancer.stats();
  if (!quiet) {
    harness::Table summary({"policy", "items", "cost", "bins", "migrations",
                            "migrated_volume", "bins_closed_by_migration",
                            "wall_ms"});
    summary.add_row(
        {policy_name, std::to_string(inst.size()),
         harness::Table::num(packing.cost(), 1),
         std::to_string(dispatcher.bins_opened()),
         std::to_string(stats.migrations),
         harness::Table::num(stats.migrated_volume, 3),
         std::to_string(stats.bins_closed),
         harness::Table::num(wall.count() * 1e3, 2)});
    std::cout << summary.to_aligned_text();
    if (!trace_out.empty()) {
      std::cout << "trace:   " << trace_out << " ("
                << tracer.records_emitted() << " records)\n";
    }
    if (!metrics_out.empty()) std::cout << "metrics: " << metrics_out << '\n';
  }

  if (args.get_bool("check-roundtrip")) {
    if (trace_out.empty()) {
      throw std::runtime_error("--check-roundtrip requires --trace-out");
    }
    const Packing replayed = obs::replay_packing_file(trace_out);
    if (!same_packing(packing, replayed)) {
      std::cerr << "harness: trace round-trip MISMATCH\n";
      return 2;
    }
    if (!quiet) std::cout << "trace round-trip: ok\n";
  }
  return 0;
}

/// Tenant fairness mode (--tenants=T): the serial dispatcher behind the
/// credit-based admission gate, with periodic settlement epochs and the
/// Karma-style welfare / instant-fairness / utilization report at the end
/// (docs/TENANCY.md). --no-arbiter disables the quota (every arrival
/// admitted) for the baseline the fairness comparison needs.
int run_tenants(const harness::Args& args, Instance inst) {
  const auto tenants =
      static_cast<std::uint32_t>(args.get_int("tenants", 2));
  if (tenants == 0) throw harness::CliError("--tenants must be >= 1");
  const std::string policy_name = args.get("policy", "MoveToFront");
  const std::string metrics_out = args.get("metrics-out", "");
  const bool quiet = args.get_bool("quiet");
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

  std::vector<double> weights(tenants, 1.0);
  if (args.has("fairshare")) {
    const std::vector<std::string> parts = args.get_list("fairshare");
    if (parts.size() != tenants) {
      throw harness::CliError("--fairshare needs exactly --tenants weights");
    }
    for (std::size_t t = 0; t < parts.size(); ++t) {
      weights[t] = std::stod(parts[t]);
    }
  }

  // Label the stream (tenant-weighted), then optionally let one greedy
  // tenant inflate its reported demand.
  gen::label_tenants(inst, weights, seed ^ 0x7e4a7ebef1ull);
  if (args.has("inflate-tenant")) {
    const auto liar =
        static_cast<TenantId>(args.get_int("inflate-tenant", 0));
    const double factor = args.get_double("inflate-factor", 2.0);
    gen::inflate_tenant_demand(inst, liar, factor);
  }

  obs::MetricRegistry registry;
  std::shared_ptr<obs::TraceSink> sink;
  const std::string trace_out = args.get("trace-out", "");
  if (!trace_out.empty()) sink = std::make_shared<obs::FileSink>(trace_out);
  obs::Tracer tracer(sink);
  obs::Observer observer(&registry, &tracer);

  tenancy::ArbiterConfig aconfig;
  aconfig.num_tenants = tenants;
  aconfig.fair_shares = weights;
  aconfig.alpha = args.get_double("alpha", 0.0);
  aconfig.init_credits = args.get_double("credits", 0.0);
  aconfig.price = args.get_double("price", 1.0);
  if (!args.get_bool("no-arbiter") && args.has("capacity-units")) {
    aconfig.capacity_units = args.get_double("capacity-units", 0.0);
  }
  tenancy::Arbiter arbiter(aconfig);
  tenancy::AdmissionGate gate(arbiter, &registry, &tracer);
  tenancy::UsageAccountant accountant(tenants);
  tenancy::FairnessTracker tracker(tenants);

  const PolicyPtr policy = make_policy(
      policy_name,
      static_cast<std::uint64_t>(args.get_int("policy-seed", 0xD1CEu)));
  Dispatcher dispatcher(inst.dim(), *policy,
                        args.get_double("capacity", 1.0), &observer);
  dispatcher.set_usage_hook(&accountant);

  std::vector<double> shares(tenants, 0.0);
  for (std::uint32_t t = 0; t < tenants; ++t) {
    shares[t] = arbiter.fair_share(t);
  }
  const double settle_every = args.get_double("settle-every", 100.0);
  if (!(settle_every > 0.0)) {
    throw harness::CliError("--settle-every must be > 0");
  }

  Time last_settle = inst.empty() ? 0.0 : inst.first_arrival();
  Time next_settle = last_settle + settle_every;
  const auto settle = [&](Time at) {
    accountant.on_advance(std::max(at, accountant.last_event()),
                          dispatcher.open_bins());
    const std::vector<double> usage = accountant.cut_epoch();
    tracker.on_epoch(at - last_settle, usage, shares);
    gate.settle(at, usage);
    last_settle = at;
  };

  const std::vector<Event> events = build_event_stream(inst);
  std::vector<JobId> job_of_item(inst.size(), kNoItem);
  std::uint64_t denied = 0;
  for (const Event& ev : events) {
    while (ev.time >= next_settle) {
      settle(next_settle);
      next_settle += settle_every;
    }
    const Item& item = inst[ev.item];
    if (ev.kind == EventKind::kArrival) {
      if (!gate.admit(ev.time, item.tenant, item.size, item.id)) {
        ++denied;  // pushed back; this run drops rather than retries
        continue;
      }
      job_of_item[ev.item] =
          dispatcher.arrive(ev.time, item.size, item.departure, item.tenant)
              .job;
    } else {
      if (job_of_item[ev.item] == kNoItem) continue;  // never admitted
      dispatcher.depart(ev.time, job_of_item[ev.item]);
      gate.release(item.tenant, item.size);
    }
  }
  const Time end = events.empty() ? last_settle : events.back().time;
  if (end > last_settle) settle(end);
  tracer.flush();

  if (!metrics_out.empty()) {
    std::ofstream out(metrics_out);
    if (!out) {
      throw std::runtime_error("cannot open metrics-out '" + metrics_out +
                               "'");
    }
    out << registry.to_json() << '\n';
  }

  const tenancy::FairnessReport report =
      tenancy::build_report(accountant, arbiter, gate, tracker);
  std::cout << tenancy::render_report(report);
  if (!quiet) {
    const Packing packing = dispatcher.packing();
    harness::Table summary({"policy", "tenants", "items", "denied", "cost",
                            "bins"});
    summary.add_row({policy_name, std::to_string(tenants),
                     std::to_string(inst.size()), std::to_string(denied),
                     harness::Table::num(packing.cost(), 1),
                     std::to_string(dispatcher.bins_opened())});
    std::cout << summary.to_aligned_text();
    if (!metrics_out.empty()) std::cout << "metrics: " << metrics_out << '\n';
  }
  return 0;
}

/// `harness serve`: the binary-RPC placement server over a fresh sharded
/// service. Blocks until drained (Drain RPC, SIGTERM, or SIGINT), then
/// reports the final packing.
int run_serve(const harness::Args& args) {
  static const std::set<std::string> kKnown{
      "port",        "host",       "shards",          "policy",
      "policy-seed", "d",          "capacity",        "router",
      "event-loops", "max-inflight", "queue-capacity", "metrics-out",
      "journal-dir", "fsync",      "fsync-interval",  "checkpoint-every",
      "quiet",       "help"};
  for (const std::string& key : args.keys()) {
    if (!kKnown.count(key)) {
      throw harness::CliError("serve: unknown flag '--" + key +
                              "' (see --help)");
    }
  }
  harness::require_writable_file("metrics-out", args.get("metrics-out", ""));
  harness::require_writable_dir("journal-dir", args.get("journal-dir", ""));

  const auto dim = static_cast<std::size_t>(args.get_int("d", 2));
  const std::string policy = args.get("policy", "MoveToFront");
  const auto policy_seed =
      static_cast<std::uint64_t>(args.get_int("policy-seed", 0xD1CEu));
  const bool quiet = args.get_bool("quiet");

  obs::MetricRegistry registry;
  cloud::ShardedOptions sopts;
  sopts.shards = static_cast<std::size_t>(args.get_int("shards", 1));
  sopts.router = cloud::parse_router(args.get("router", "round-robin"));
  sopts.bin_capacity = args.get_double("capacity", 1.0);
  sopts.queue_capacity =
      static_cast<std::size_t>(args.get_int("queue-capacity", 4096));
  sopts.metrics = &registry;
  sopts.journal_dir = args.get("journal-dir", "");
  sopts.fsync = persist::parse_fsync_policy(args.get("fsync", "interval"));
  sopts.fsync_interval_ops =
      static_cast<std::size_t>(args.get_int("fsync-interval", 256));
  sopts.checkpoint_every =
      static_cast<std::size_t>(args.get_int("checkpoint-every", 0));
  cloud::ShardedDispatcher service(
      dim, [&](std::size_t) { return make_policy(policy, policy_seed); },
      sopts);

  net::ServerOptions nopts;
  nopts.host = args.get("host", "127.0.0.1");
  nopts.port = static_cast<std::uint16_t>(args.get_int("port", 7070));
  nopts.event_loops =
      static_cast<std::size_t>(args.get_int("event-loops", 1));
  nopts.max_inflight_per_conn =
      static_cast<std::size_t>(args.get_int("max-inflight", 1024));
  nopts.metrics = &registry;
  net::PlacementServer server(service, nopts);
  server.install_signal_drain(SIGTERM);
  server.install_signal_drain(SIGINT);

  // Flushed immediately so wrappers can read the (possibly ephemeral)
  // port before any client connects.
  std::cout << "listening on " << nopts.host << ":" << server.port()
            << std::endl;
  server.wait();

  const std::string metrics_out = args.get("metrics-out", "");
  if (!metrics_out.empty()) {
    std::ofstream out(metrics_out);
    if (!out) {
      throw std::runtime_error("cannot open metrics-out '" + metrics_out +
                               "'");
    }
    out << registry.to_json() << '\n';
  }
  if (!quiet) {
    // Drained and quiescent: this hash is what the Drain RPC reported.
    const Packing packing = service.snapshot();
    harness::Table summary(
        {"policy", "shards", "jobs", "bins", "cost", "packing_hash"});
    summary.add_row({policy, std::to_string(service.shards()),
                     std::to_string(service.jobs_admitted()),
                     std::to_string(packing.num_bins()),
                     harness::Table::num(packing.cost(), 1),
                     std::to_string(packing_hash(packing))});
    std::cout << summary.to_aligned_text();
    if (!metrics_out.empty()) std::cout << "metrics: " << metrics_out << '\n';
  }
  return 0;
}

/// `harness loadgen`: drive a running placement server and report
/// throughput + latency order statistics.
int run_loadgen_cmd(const harness::Args& args) {
  static const std::set<std::string> kKnown{
      "host",   "port",     "connections", "requests", "window",
      "dim",    "depart-fraction", "seed", "rate",     "duration",
      "drain",  "quiet",    "trace",       "help"};
  for (const std::string& key : args.keys()) {
    if (!kKnown.count(key)) {
      throw harness::CliError("loadgen: unknown flag '--" + key +
                              "' (see --help)");
    }
  }
  net::LoadgenOptions opts;
  opts.host = args.get("host", "127.0.0.1");
  opts.port = static_cast<std::uint16_t>(args.get_int("port", 7070));
  opts.connections =
      static_cast<std::size_t>(args.get_int("connections", 4));
  opts.dim = static_cast<std::size_t>(args.get_int("dim", 2));
  opts.depart_fraction = args.get_double("depart-fraction", 0.45);
  opts.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  opts.window = static_cast<std::size_t>(args.get_int("window", 64));
  opts.requests_per_connection =
      static_cast<std::uint64_t>(args.get_int("requests", 10000));
  opts.open_loop_rate = args.get_double("rate", 0.0);
  opts.duration_s = args.get_double("duration", 1.0);
  opts.trace_path = args.get("trace", "");

  const net::LoadgenResult r = net::run_loadgen(opts);
  const char* mode = !opts.trace_path.empty()
                         ? "trace"
                         : (opts.open_loop_rate > 0.0 ? "open" : "closed");
  harness::Table summary({"mode", "conns", "sent", "ok", "retry_later",
                          "throughput_rps", "p50_us", "p99_us", "p999_us"});
  summary.add_row({mode,
                   std::to_string(opts.connections),
                   std::to_string(r.requests_sent), std::to_string(r.ok),
                   std::to_string(r.retry_later),
                   harness::Table::num(r.throughput_rps, 0),
                   harness::Table::num(r.p50_ns / 1e3, 1),
                   harness::Table::num(r.p99_ns / 1e3, 1),
                   harness::Table::num(r.p999_ns / 1e3, 1)});
  std::cout << summary.to_aligned_text();

  if (args.get_bool("drain")) {
    net::Client client(opts.host, opts.port);
    const net::Response resp = client.drain();
    if (resp.status != net::Status::kOk) {
      std::cerr << "loadgen: drain failed: "
                << net::status_name(resp.status) << '\n';
      return 1;
    }
    std::cout << "drained: packing_hash=" << resp.packing_hash
              << " bins=" << resp.num_bins
              << " cost=" << harness::Table::num(resp.cost, 1) << '\n';
  }
  return 0;
}

void reject_unknown_subflags(const std::string& sub,
                             const std::set<std::string>& known,
                             const harness::Args& args) {
  for (const std::string& key : args.keys()) {
    if (!known.count(key)) {
      throw harness::CliError("trace " + sub + ": unknown flag '--" + key +
                              "' (see --help)");
    }
  }
}

std::string require_flag(const harness::Args& args, const std::string& sub,
                         const std::string& flag) {
  const std::string v = args.get(flag, "");
  if (v.empty()) {
    throw harness::CliError("trace " + sub + ": --" + flag + " is required");
  }
  return v;
}

/// `harness trace <convert|info|reduce|run>`: the binary trace data plane
/// (docs/TRACES.md).
int run_trace_cmd(const harness::Args& args) {
  if (args.positional().size() < 2) {
    throw harness::CliError(
        "trace: need a subcommand (convert|info|reduce|run; see --help)");
  }
  const std::string& sub = args.positional()[1];
  const bool quiet = args.get_bool("quiet");

  if (sub == "convert") {
    reject_unknown_subflags(
        sub, {"csv", "out", "tenants", "strict", "quiet", "help"}, args);
    const std::string csv = require_flag(args, sub, "csv");
    const std::string out = require_flag(args, sub, "out");
    harness::require_writable_file("out", out);
    trace::ConvertOptions copts;
    copts.tenants = args.get_bool("tenants");
    copts.strict = args.get_bool("strict");
    const trace::ConvertStats stats = trace::convert_csv_file(csv, out, copts);
    if (!quiet) {
      harness::Table t({"rows_read", "items_written", "rows_skipped", "d",
                        "tenants", "out"});
      t.add_row({std::to_string(stats.rows_read),
                 std::to_string(stats.items_written),
                 std::to_string(stats.rows_skipped),
                 std::to_string(stats.dim), std::to_string(stats.tenants),
                 out});
      std::cout << t.to_aligned_text();
    }
    return 0;
  }

  if (sub == "info") {
    reject_unknown_subflags(sub, {"in", "bounds", "quiet", "help"}, args);
    const trace::TraceReader reader(require_flag(args, sub, "in"));
    harness::Table t({"items", "events", "d", "tenants", "bytes",
                      "first_arrival", "last_departure"});
    t.add_row({std::to_string(reader.size()),
               std::to_string(2 * reader.size()),
               std::to_string(reader.dim()),
               reader.has_tenants() ? "yes" : "no",
               std::to_string(reader.file_bytes()),
               harness::Table::num(reader.first_arrival(), 3),
               harness::Table::num(reader.last_departure(), 3)});
    std::cout << t.to_aligned_text();
    if (args.get_bool("bounds")) {
      const trace::StreamBounds b = trace::streaming_lower_bounds(reader);
      harness::Table lb({"lb_height", "lb_utilization", "lb_span",
                         "lb_best"});
      lb.add_row({harness::Table::num(b.height, 3),
                  harness::Table::num(b.utilization, 3),
                  harness::Table::num(b.span, 3),
                  harness::Table::num(b.best(), 3)});
      std::cout << lb.to_aligned_text();
    }
    return 0;
  }

  if (sub == "reduce") {
    reject_unknown_subflags(sub,
                            {"in", "out", "size-grid", "time-cells",
                             "no-opt", "node-limit", "quiet", "help"},
                            args);
    const std::string in_path = require_flag(args, sub, "in");
    const std::string out = require_flag(args, sub, "out");
    harness::require_writable_file("out", out);
    const trace::TraceReader reader(in_path);
    trace::ReduceOptions ropts;
    ropts.size_grid =
        static_cast<std::uint32_t>(args.get_int("size-grid", 16));
    ropts.time_cells =
        static_cast<std::uint32_t>(args.get_int("time-cells", 64));
    const trace::ReduceResult r = trace::reduce_trace(reader, out, ropts);
    if (!quiet) {
      harness::Table t({"items_in", "items_out", "groups", "size_grid",
                        "time_cells", "out"});
      t.add_row({std::to_string(r.original_items),
                 std::to_string(r.reduced_items), std::to_string(r.groups),
                 std::to_string(r.size_grid), std::to_string(r.time_cells),
                 out});
      std::cout << t.to_aligned_text();
    }
    // The reported interval brackets OPT(in): the lower end is Lemma 1 on
    // the ORIGINAL trace; the upper end is offline_opt on the reduced
    // (dominating) instance -- an upper bound even when the VBP search
    // aborts on its node limit (offline_opt reports cost >= OPT then).
    if (!args.get_bool("no-opt")) {
      VbpOptions vopts;
      vopts.node_limit = static_cast<std::uint64_t>(
          args.get_int("node-limit", 20'000'000));
      const Instance reduced = trace::TraceReader(out).materialize();
      const OfflineOptResult opt = offline_opt(reduced, vopts);
      harness::Table t({"opt_lower", "opt_upper", "upper_exact",
                        "segments", "max_active"});
      t.add_row({harness::Table::num(r.original_bounds.best(), 3),
                 harness::Table::num(opt.cost, 3),
                 opt.exact ? "yes" : "no (node limit)",
                 std::to_string(opt.segments),
                 std::to_string(opt.max_active)});
      std::cout << t.to_aligned_text();
    } else if (!quiet) {
      harness::Table t({"opt_lower"});
      t.add_row({harness::Table::num(r.original_bounds.best(), 3)});
      std::cout << t.to_aligned_text();
    }
    return 0;
  }

  if (sub == "run") {
    reject_unknown_subflags(sub,
                            {"in", "policy", "policy-seed", "capacity",
                             "bounds", "metrics-out", "quiet", "help"},
                            args);
    const std::string metrics_out = args.get("metrics-out", "");
    harness::require_writable_file("metrics-out", metrics_out);
    const trace::TraceReader reader(require_flag(args, sub, "in"));
    const std::string policy_name = args.get("policy", "MoveToFront");
    const PolicyPtr policy = make_policy(
        policy_name,
        static_cast<std::uint64_t>(args.get_int("policy-seed", 0xD1CEu)));

    obs::MetricRegistry registry;
    trace::ReplayOptions opts;
    opts.bin_capacity = args.get_double("capacity", 1.0);
    opts.metrics = &registry;
    const auto start = std::chrono::steady_clock::now();
    const trace::ReplayResult r = trace::replay_trace(reader, *policy, opts);
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - start;

    if (!metrics_out.empty()) {
      std::ofstream out(metrics_out);
      if (!out) {
        throw std::runtime_error("cannot open metrics-out '" + metrics_out +
                                 "'");
      }
      out << registry.to_json() << '\n';
    }
    if (!quiet) {
      const double eps = wall.count() > 0.0
                             ? static_cast<double>(r.events) / wall.count()
                             : 0.0;
      harness::Table t({"policy", "items", "events", "cost", "bins",
                        "peak_open", "wall_ms", "events_per_s"});
      t.add_row({policy_name, std::to_string(r.items),
                 std::to_string(r.events), harness::Table::num(r.cost, 1),
                 std::to_string(r.bins_opened),
                 std::to_string(r.max_open_bins),
                 harness::Table::num(wall.count() * 1e3, 2),
                 harness::Table::num(eps, 0)});
      std::cout << t.to_aligned_text();
      if (args.get_bool("bounds")) {
        const trace::StreamBounds b = trace::streaming_lower_bounds(reader);
        const double lb = b.best();
        harness::Table vs({"opt_lower", "cost_vs_opt_lower"});
        vs.add_row({harness::Table::num(lb, 3),
                    lb > 0.0 ? harness::Table::num(r.cost / lb, 4) : "-"});
        std::cout << vs.to_aligned_text();
      }
      if (!metrics_out.empty()) {
        std::cout << "metrics: " << metrics_out << '\n';
      }
    }
    return 0;
  }

  throw harness::CliError("trace: unknown subcommand '" + sub +
                          "' (convert|info|reduce|run)");
}

bool same_packing(const Packing& a, const Packing& b) {
  if (a.assignment() != b.assignment()) return false;
  if (a.num_bins() != b.num_bins()) return false;
  for (std::size_t i = 0; i < a.num_bins(); ++i) {
    const BinRecord& x = a.bins()[i];
    const BinRecord& y = b.bins()[i];
    if (x.id != y.id || x.opened != y.opened || x.closed != y.closed ||
        x.items != y.items) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const harness::Args args(argc, argv);
  if (args.get_bool("help")) return usage();
  try {
    if (!args.positional().empty()) {
      const std::string& cmd = args.positional().front();
      if (cmd == "serve") return run_serve(args);
      if (cmd == "loadgen") return run_loadgen_cmd(args);
      if (cmd == "trace") return run_trace_cmd(args);
      throw harness::CliError("unknown subcommand '" + cmd +
                              "' (see --help)");
    }
    reject_unknown_flags(args);
    const BatchMode mode = pick_batch_mode(args);
    reject_unread_flags(args, mode);
    validate_output_paths(args);
    const Instance inst = load_instance(args);
    switch (mode) {
      case BatchMode::kTenants: return run_tenants(args, inst);
      case BatchMode::kSharded: return run_sharded(args, inst);
      case BatchMode::kDurable: return run_durable(args, inst);
      case BatchMode::kMigration: return run_migration(args, inst);
      case BatchMode::kSerial: break;
    }
    const std::string policy = args.get("policy", "MoveToFront");
    const std::string metrics_out = args.get("metrics-out", "");
    const std::string trace_out = args.get("trace-out", "");
    const bool quiet = args.get_bool("quiet");

    obs::MetricRegistry registry;
    std::shared_ptr<obs::TraceSink> sink;
    if (!trace_out.empty()) {
      sink = std::make_shared<obs::FileSink>(trace_out);
    }
    obs::Tracer tracer(sink);
    obs::Observer observer(&registry, &tracer);

    SimOptions opts;
    opts.bin_capacity = args.get_double("capacity", 1.0);
    opts.observer = &observer;
    const SimResult result = simulate(
        inst, policy, opts,
        static_cast<std::uint64_t>(args.get_int("policy-seed", 0xD1CEu)));

    if (!metrics_out.empty()) {
      std::ofstream out(metrics_out);
      if (!out) {
        throw std::runtime_error("cannot open metrics-out '" + metrics_out +
                                 "'");
      }
      out << registry.to_json() << '\n';
    }

    if (!quiet) {
      harness::Table summary({"policy", "items", "cost", "bins", "peak_open",
                              "fit_failures", "decision_p50_ns"});
      summary.add_row(
          {policy, std::to_string(inst.size()),
           harness::Table::num(result.cost, 1),
           std::to_string(result.bins_opened),
           std::to_string(result.max_open_bins),
           std::to_string(
               registry.counter("dvbp.alloc.fit_failures_total").value()),
           harness::Table::num(
               registry.histogram("dvbp.alloc.decision_latency_ns")
                   .quantile(0.5),
               0)});
      std::cout << summary.to_aligned_text();
      if (!trace_out.empty()) {
        std::cout << "trace:   " << trace_out << " ("
                  << tracer.records_emitted() << " records)\n";
      }
      if (!metrics_out.empty()) std::cout << "metrics: " << metrics_out
                                          << '\n';
    }

    if (args.get_bool("check-roundtrip")) {
      if (trace_out.empty()) {
        throw std::runtime_error("--check-roundtrip requires --trace-out");
      }
      const Packing replayed = obs::replay_packing_file(trace_out);
      if (!same_packing(result.packing, replayed)) {
        std::cerr << "harness: trace round-trip MISMATCH\n";
        return 2;
      }
      if (!quiet) std::cout << "trace round-trip: ok\n";
    }
    return 0;
  } catch (const harness::CliError& e) {
    std::cerr << "harness: " << e.what() << '\n';
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "harness: " << e.what() << '\n';
    return 1;
  }
}
