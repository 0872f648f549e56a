// Crash-recovery fuzz: for every registered policy, kill the durable
// dispatcher at every byte offset of the journal's tail frame (truncation
// AND single-byte corruption) and at every registered fault point, then
// recover and require the recovered state to be bit-identical to an
// uninterrupted run over the surviving prefix (dispatcher_state_hash from
// packing_hash.hpp hashes raw load bits, so "equal" means equal futures).
// A sharded K=4 service killed mid-drain by an injected commit fault is
// recovered the same way, shard by shard. A journal whose tail carries
// tenant-credit (kTenantCredits) frames gets the same every-byte-offset
// treatment: the surviving prefix must reproduce the dispatcher, the
// usage ledgers, AND the last surviving credit snapshot bit for bit.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "cloud/router.hpp"
#include "cloud/sharded_dispatcher.hpp"
#include "core/dispatcher.hpp"
#include "core/event.hpp"
#include "core/invariants.hpp"
#include "core/packing_hash.hpp"
#include "core/policies/registry.hpp"
#include "core/rebalancer.hpp"
#include "core/simulator.hpp"
#include "gen/tenants.hpp"
#include "gen/uniform.hpp"
#include "persist/durable.hpp"
#include "persist/fault.hpp"
#include "persist/journal.hpp"
#include "tenancy/accountant.hpp"
#include "tenancy/arbiter.hpp"

namespace dvbp {
namespace {

namespace fs = std::filesystem;
using persist::FsyncPolicy;

constexpr std::uint64_t kPolicySeed = 0xD1CEu;

const char* const kPolicies[] = {
    "MoveToFront", "FirstFit",        "BestFit",     "NextFit",
    "LastFit",     "RandomFit",       "WorstFit",    "MinExtensionFit",
    "HarmonicFit", "DurationClassFit"};

struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag) {
    static int counter = 0;
    path = fs::temp_directory_path() /
           ("dvbp_recovery_" + tag + "_" + std::to_string(++counter) +
            "_" + std::to_string(static_cast<unsigned>(::getpid())));
    fs::remove_all(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

Instance fuzz_instance() {
  gen::UniformParams params;
  params.d = 2;
  params.n = 120;
  params.mu = 12;
  params.span = 60;
  params.bin_size = 9;
  return gen::uniform_instance(params, 0xC4A54);
}

/// Expected recovered state: a plain serial Dispatcher fed the first
/// `ops` events (one journaled op per event).
std::uint64_t prefix_hash(const char* policy_name, const Instance& inst,
                          const std::vector<Event>& events,
                          std::size_t ops) {
  PolicyPtr policy = make_policy(policy_name, kPolicySeed);
  Dispatcher reference(inst.dim(), *policy);
  for (std::size_t i = 0; i < ops; ++i) {
    const Event& ev = events[i];
    const Item& item = inst[ev.item];
    if (ev.kind == EventKind::kArrival) {
      reference.arrive(item.arrival, item.size, item.departure);
    } else {
      reference.depart(ev.time, item.id);
    }
  }
  return dispatcher_state_hash(reference);
}

/// Runs the full workload durably (no checkpoints, fsync off: one segment
/// with one frame per event) and returns the journal directory.
void run_full_durable(const char* policy_name, const Instance& inst,
                      const std::vector<Event>& events,
                      const std::string& dir) {
  PolicyPtr policy = make_policy(policy_name, kPolicySeed);
  persist::DurableOptions opts;
  opts.dir = dir;
  opts.fsync = FsyncPolicy::kNone;
  persist::DurableDispatcher durable(inst.dim(), *policy, opts);
  for (const Event& ev : events) {
    const Item& item = inst[ev.item];
    if (ev.kind == EventKind::kArrival) {
      durable.arrive(item.arrival, item.size, item.departure);
    } else {
      durable.depart(ev.time, item.id);
    }
  }
}

/// Recovers from `dir` and checks the recovered state (and recovery
/// report) against an uninterrupted prefix run of `expect_ops` events.
void expect_prefix_recovery(const char* policy_name, const Instance& inst,
                            const std::vector<Event>& events,
                            const std::string& dir, std::size_t expect_ops,
                            bool expect_torn, const std::string& what) {
  PolicyPtr policy = make_policy(policy_name, kPolicySeed);
  persist::DurableOptions opts;
  opts.dir = dir;
  opts.fsync = FsyncPolicy::kNone;
  persist::DurableDispatcher recovered(inst.dim(), *policy, opts);
  EXPECT_EQ(recovered.recovery().last_seq, expect_ops) << what;
  EXPECT_EQ(recovered.recovery().torn_tail, expect_torn) << what;
  EXPECT_EQ(dispatcher_state_hash(recovered.dispatcher()),
            prefix_hash(policy_name, inst, events, expect_ops))
      << what << ": recovered state != uninterrupted prefix run";
}

// Byte-offset fuzz: chop (or flip a byte inside) the journal's last frame
// at EVERY offset. Truncation inside the frame and any single corrupted
// byte must both cost exactly that one frame -- never a crash, never a
// wrong packing.
TEST(CrashFuzz, EveryTailFrameByteOffsetTruncateAndCorrupt) {
  const Instance inst = fuzz_instance();
  const std::vector<Event> events = build_event_stream(inst);
  for (const char* policy_name : kPolicies) {
    SCOPED_TRACE(policy_name);
    TempDir base(std::string("base_") + policy_name);
    run_full_durable(policy_name, inst, events, base.str());

    const auto segments = persist::journal_segments(base.str());
    ASSERT_EQ(segments.size(), 1u);
    std::ifstream in(segments[0], std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    // Find where the last frame starts by walking the valid frames.
    const persist::JournalScan scan = persist::scan_journal(base.str());
    ASSERT_FALSE(scan.torn_tail);
    ASSERT_EQ(scan.records.size(), events.size());
    std::vector<std::uint8_t> tail_frame;
    persist::encode_frame(scan.records.back(), tail_frame);
    const std::size_t tail_start = bytes.size() - tail_frame.size();

    const std::string seg_name = fs::path(segments[0]).filename().string();
    for (std::size_t off = tail_start; off < bytes.size(); ++off) {
      // Truncate at `off`: a partial tail frame (or, at off == tail_start,
      // a clean frame boundary -- no tear at all).
      {
        TempDir trial("trunc");
        fs::create_directories(trial.str());
        std::ofstream out(trial.path / seg_name, std::ios::binary);
        out.write(bytes.data(), static_cast<std::streamsize>(off));
        out.close();
        expect_prefix_recovery(
            policy_name, inst, events, trial.str(), events.size() - 1,
            /*expect_torn=*/off != tail_start,
            "truncate@" + std::to_string(off));
      }
      // Flip one byte at `off`: CRC (or frame sanity) must reject the
      // frame, costing exactly the one frame.
      {
        TempDir trial("flip");
        fs::create_directories(trial.str());
        std::vector<char> mutated = bytes;
        mutated[off] = static_cast<char>(mutated[off] ^ 0x5A);
        std::ofstream out(trial.path / seg_name, std::ios::binary);
        out.write(mutated.data(),
                  static_cast<std::streamsize>(mutated.size()));
        out.close();
        expect_prefix_recovery(policy_name, inst, events, trial.str(),
                               events.size() - 1, /*expect_torn=*/true,
                               "flip@" + std::to_string(off));
      }
    }
  }
}

// Fault-point fuzz: kill the writer at every registered durability fault
// point (mid-commit, mid-checkpoint) while running with checkpoints on,
// recover, and require prefix parity. The op count folded into the
// recovered state is read from the recovery report and cross-checked
// against what the fault semantics allow.
TEST(CrashFuzz, EveryFaultPointRecoversToAPrefix) {
  const Instance inst = fuzz_instance();
  const std::vector<Event> events = build_event_stream(inst);
  // `nth`: which occurrence of the point to crash at. Commit points fire
  // once per op (~240 per run); checkpoint points once per checkpoint
  // (every 32 ops), so their countdowns are smaller.
  const struct {
    const char* point;
    bool op_survives;  ///< frame durable despite the fault?
    int nth;
  } kFaults[] = {
      {"journal.commit.begin", false, 70},
      {"journal.commit.torn", false, 70},
      {"journal.commit.written", true, 70},
      {"journal.commit.synced", true, 70},
      {"checkpoint.tmp_written", true, 3},
      {"checkpoint.renamed", true, 3},
      {"checkpoint.truncated", true, 3},
  };
  for (const char* policy_name : {"MoveToFront", "RandomFit", "NextFit"}) {
    SCOPED_TRACE(policy_name);
    for (const auto& fault : kFaults) {
      SCOPED_TRACE(fault.point);
      TempDir dir(std::string("fault"));
      // Arm the hook to fire on the Nth occurrence of the point, landing
      // mid-run (after the first checkpoint for the checkpoint points).
      int countdown = fault.nth;
      persist::set_fault_hook([&](std::string_view point) {
        if (point == fault.point && --countdown == 0) {
          throw persist::FaultInjected(point);
        }
      });
      std::size_t ops_issued = 0;
      bool crashed = false;
      {
        PolicyPtr policy = make_policy(policy_name, kPolicySeed);
        persist::DurableOptions opts;
        opts.dir = dir.str();
        opts.fsync = FsyncPolicy::kNone;
        opts.checkpoint_every = 32;
        persist::DurableDispatcher durable(inst.dim(), *policy, opts);
        try {
          for (const Event& ev : events) {
            const Item& item = inst[ev.item];
            if (ev.kind == EventKind::kArrival) {
              durable.arrive(item.arrival, item.size, item.departure);
            } else {
              durable.depart(ev.time, item.id);
            }
            ++ops_issued;
          }
        } catch (const persist::FaultInjected&) {
          crashed = true;  // abandon the object, like a process death
        }
      }
      persist::clear_fault_hook();
      ASSERT_TRUE(crashed) << "fault never fired";

      // The op being journaled when the fault hit survives only past the
      // write; checkpoint-path faults fire after their op committed.
      const std::size_t expect_ops =
          fault.op_survives ? ops_issued + 1 : ops_issued;
      PolicyPtr policy = make_policy(policy_name, kPolicySeed);
      persist::DurableOptions opts;
      opts.dir = dir.str();
      opts.fsync = FsyncPolicy::kNone;
      persist::DurableDispatcher recovered(inst.dim(), *policy, opts);
      EXPECT_EQ(recovered.recovery().last_seq, expect_ops) << fault.point;
      EXPECT_EQ(
          dispatcher_state_hash(recovered.dispatcher()),
          prefix_hash(policy_name, inst, events, expect_ops))
          << fault.point << ": recovered state != prefix run";
    }
  }
}

// Migration-era tail fuzz: stop a durable run right after its FIRST
// migration, so the journal's tail is the dangerous sequence
// [kDepart, kEvict, kReplace, ...]. Truncating or corrupting at EVERY
// byte offset inside that tail must recover to exactly the surviving
// frame prefix -- including prefixes that end between an eviction and
// its replace, where the recovered engine legitimately holds a job in
// limbo. The reference is a plain Dispatcher replaying the surviving
// JournalRecords directly, and the recovered state must additionally
// satisfy the packing invariant checker.
TEST(CrashFuzz, MigrationTailEveryByteOffsetTruncateAndCorrupt) {
  const Instance inst = fuzz_instance();
  const std::vector<Event> events = build_event_stream(inst);
  TempDir base("migration_base");
  std::uint64_t live_hash = 0;
  std::size_t ops_issued = 0;
  {
    PolicyPtr policy = make_policy("FirstFit", kPolicySeed);
    persist::DurableOptions opts;
    opts.dir = base.str();
    opts.fsync = FsyncPolicy::kNone;
    persist::DurableDispatcher durable(inst.dim(), *policy, opts);
    MigrationConfig config;
    config.migrations_per_event = MigrationConfig::kUnlimited;
    Rebalancer rebalancer(durable.dispatcher(), config,
                          durable.migration_exec());
    for (const Event& ev : events) {
      const Item& item = inst[ev.item];
      if (ev.kind == EventKind::kArrival) {
        durable.arrive(item.arrival, item.size, item.departure);
        ++ops_issued;
      } else {
        durable.depart(ev.time, item.id);
        ++ops_issued;
        const std::size_t moved = rebalancer.on_departure(ev.time);
        ops_issued += 2 * moved;  // one kEvict + one kReplace per item
        if (moved > 0) break;
      }
    }
    ASSERT_GT(rebalancer.stats().migrations, 0u)
        << "workload never triggered a migration";
    live_hash = dispatcher_state_hash(durable.dispatcher());
  }

  const auto segments = persist::journal_segments(base.str());
  ASSERT_EQ(segments.size(), 1u);
  std::ifstream in(segments[0], std::ios::binary);
  const std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
  const persist::JournalScan scan = persist::scan_journal(base.str());
  ASSERT_FALSE(scan.torn_tail);
  ASSERT_EQ(scan.records.size(), ops_issued);

  // Byte offset where each frame starts; frame_start.back() == EOF.
  std::vector<std::size_t> frame_start;
  {
    std::vector<std::uint8_t> buf;
    for (const persist::JournalRecord& rec : scan.records) {
      frame_start.push_back(buf.size());
      persist::encode_frame(rec, buf);
    }
    frame_start.push_back(buf.size());
    ASSERT_EQ(buf.size(), bytes.size());
  }

  // The fuzz region: from the depart frame that triggered the migration.
  std::size_t depart_idx = scan.records.size();
  std::size_t evicts = 0;
  std::size_t replaces = 0;
  while (depart_idx > 0 &&
         scan.records[depart_idx - 1].kind != persist::OpKind::kDepart) {
    --depart_idx;
    if (scan.records[depart_idx].kind == persist::OpKind::kEvict) ++evicts;
    if (scan.records[depart_idx].kind == persist::OpKind::kReplace) {
      ++replaces;
    }
  }
  ASSERT_GT(depart_idx, 0u);
  --depart_idx;
  ASSERT_GT(evicts, 0u) << "tail holds no kEvict frame";
  ASSERT_EQ(evicts, replaces) << "unpaired evict/replace in the tail";
  const std::size_t tail_begin = frame_start[depart_idx];

  // Reference: a plain Dispatcher replaying the first `k` records.
  const auto record_prefix_hash = [&](std::size_t k) {
    PolicyPtr policy = make_policy("FirstFit", kPolicySeed);
    Dispatcher reference(inst.dim(), *policy);
    for (std::size_t i = 0; i < k; ++i) {
      const persist::JournalRecord& rec = scan.records[i];
      switch (rec.kind) {
        case persist::OpKind::kArrive:
          reference.arrive(rec.time, rec.size, rec.expected_departure);
          break;
        case persist::OpKind::kDepart:
          reference.depart(rec.time, rec.job);
          break;
        case persist::OpKind::kAdvance:
          break;  // never issued by this run
        case persist::OpKind::kEvict:
          reference.evict(rec.time, rec.job);
          break;
        case persist::OpKind::kReplace:
          reference.replace(rec.time, rec.job,
                            rec.new_bin ? kNoBin : rec.bin);
          break;
      }
    }
    return dispatcher_state_hash(reference);
  };

  const std::string seg_name = fs::path(segments[0]).filename().string();
  const auto check_recovery = [&](const fs::path& dir, std::size_t k,
                                  bool torn, const std::string& what) {
    PolicyPtr policy = make_policy("FirstFit", kPolicySeed);
    persist::DurableOptions opts;
    opts.dir = dir.string();
    opts.fsync = FsyncPolicy::kNone;
    persist::DurableDispatcher recovered(inst.dim(), *policy, opts);
    EXPECT_EQ(recovered.recovery().last_seq, k) << what;
    EXPECT_EQ(recovered.recovery().torn_tail, torn) << what;
    EXPECT_EQ(dispatcher_state_hash(recovered.dispatcher()),
              record_prefix_hash(k))
        << what << ": recovered state != journal-record prefix replay";
    PackingInvariantChecker checker;
    const auto err = checker.check(recovered.dispatcher());
    EXPECT_FALSE(err.has_value()) << what << ": " << *err;
  };

  // Untampered recovery first: bit-exact with the live run.
  {
    TempDir trial("mig_full");
    fs::create_directories(trial.str());
    std::ofstream out(trial.path / seg_name, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close();
    PolicyPtr policy = make_policy("FirstFit", kPolicySeed);
    persist::DurableOptions opts;
    opts.dir = trial.str();
    opts.fsync = FsyncPolicy::kNone;
    persist::DurableDispatcher recovered(inst.dim(), *policy, opts);
    ASSERT_EQ(recovered.recovery().last_seq, ops_issued);
    ASSERT_EQ(dispatcher_state_hash(recovered.dispatcher()), live_hash)
        << "clean recovery diverged from the uninterrupted run";
  }

  for (std::size_t off = tail_begin; off < bytes.size(); ++off) {
    // Which frame contains `off`, and how many complete frames precede it.
    std::size_t containing = 0;
    while (frame_start[containing + 1] <= off) ++containing;
    {
      TempDir trial("mig_trunc");
      fs::create_directories(trial.str());
      std::ofstream out(trial.path / seg_name, std::ios::binary);
      out.write(bytes.data(), static_cast<std::streamsize>(off));
      out.close();
      check_recovery(trial.path, containing,
                     /*torn=*/off != frame_start[containing],
                     "truncate@" + std::to_string(off));
    }
    {
      TempDir trial("mig_flip");
      fs::create_directories(trial.str());
      std::vector<char> mutated = bytes;
      mutated[off] = static_cast<char>(mutated[off] ^ 0x5A);
      std::ofstream out(trial.path / seg_name, std::ios::binary);
      out.write(mutated.data(),
                static_cast<std::streamsize>(mutated.size()));
      out.close();
      check_recovery(trial.path, containing, /*torn=*/true,
                     "flip@" + std::to_string(off));
    }
  }
}

// Tenant-credit tail fuzz: a durable, tenant-labeled run settles credits
// every 40 ops through settle_credits(), so the journal interleaves
// kTenantCredits frames with labeled kArrive frames and ENDS on one.
// Truncate and flip-corrupt EVERY byte offset of the tail region spanning
// the final settlement cycle (labeled ops + the last credit frame):
// recovery must rebuild the dispatcher AND the per-tenant usage ledgers
// from the surviving op prefix, and recovery().tenant_credits must be
// byte-identical to the newest credit blob that survived that prefix --
// restorable into a fresh Arbiter that serializes right back to it.
TEST(CrashFuzz, TenantCreditTailEveryByteOffsetTruncateAndCorrupt) {
  constexpr std::uint32_t kTenants = 4;
  constexpr std::size_t kSettleEvery = 40;
  Instance inst = fuzz_instance();
  gen::label_tenants_uniform(inst, kTenants, /*seed=*/0xFEEDu);
  const std::vector<Event> events = build_event_stream(inst);

  tenancy::ArbiterConfig aconfig;
  aconfig.num_tenants = kTenants;
  aconfig.init_credits = 2.0;
  aconfig.alpha = 0.25;
  // capacity_units stays infinite: the gate is fuzzed elsewhere; what is
  // under test here is the durability of the settled credit state.

  TempDir base("credits_base");
  std::vector<std::vector<std::uint8_t>> blobs;  // journaled, in order
  std::uint64_t live_hash = 0;
  {
    PolicyPtr policy = make_policy("BestFit", kPolicySeed);
    tenancy::UsageAccountant accountant(kTenants);
    tenancy::Arbiter arbiter(aconfig);
    persist::DurableOptions opts;
    opts.dir = base.str();
    opts.fsync = FsyncPolicy::kNone;
    opts.usage_hook = &accountant;
    persist::DurableDispatcher durable(inst.dim(), *policy, opts);
    std::size_t ops = 0;
    for (const Event& ev : events) {
      const Item& item = inst[ev.item];
      if (ev.kind == EventKind::kArrival) {
        durable.arrive(item.arrival, item.size, item.departure,
                       item.tenant);
      } else {
        durable.depart(ev.time, item.id);
      }
      if (++ops % kSettleEvery == 0 && ops < events.size()) {
        arbiter.settle(ev.time, accountant.cut_epoch());
        durable.settle_credits(ev.time, arbiter.state_bytes());
        blobs.push_back(arbiter.state_bytes());
      }
    }
    // End the journal ON a settlement, so the tail frame is kTenantCredits.
    arbiter.settle(events.back().time, accountant.cut_epoch());
    durable.settle_credits(events.back().time, arbiter.state_bytes());
    blobs.push_back(arbiter.state_bytes());
    live_hash = dispatcher_state_hash(durable.dispatcher());
  }
  ASSERT_GE(blobs.size(), 3u);

  const auto segments = persist::journal_segments(base.str());
  ASSERT_EQ(segments.size(), 1u);
  std::ifstream in(segments[0], std::ios::binary);
  const std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
  const persist::JournalScan scan = persist::scan_journal(base.str());
  ASSERT_FALSE(scan.torn_tail);
  ASSERT_EQ(scan.records.size(), events.size() + blobs.size());

  // Byte offset where each frame starts; frame_start.back() == EOF.
  std::vector<std::size_t> frame_start;
  {
    std::vector<std::uint8_t> buf;
    for (const persist::JournalRecord& rec : scan.records) {
      frame_start.push_back(buf.size());
      persist::encode_frame(rec, buf);
    }
    frame_start.push_back(buf.size());
    ASSERT_EQ(buf.size(), bytes.size());
  }

  // Locate the credit frames; the journaled blobs must round out on disk
  // exactly as settled, and the journal must end on one.
  std::vector<std::size_t> credit_idx;
  for (std::size_t i = 0; i < scan.records.size(); ++i) {
    if (scan.records[i].kind == persist::OpKind::kTenantCredits) {
      credit_idx.push_back(i);
    }
  }
  ASSERT_EQ(credit_idx.size(), blobs.size());
  for (std::size_t k = 0; k < blobs.size(); ++k) {
    ASSERT_EQ(scan.records[credit_idx[k]].blob, blobs[k]) << "frame " << k;
  }
  ASSERT_EQ(credit_idx.back(), scan.records.size() - 1);

  // Recovery check against a reference replay of the first `k` records:
  // dispatcher hash, recovered usage ledgers (a fresh accountant installed
  // before replay re-accrues them), and the newest surviving credit blob.
  const auto check = [&](const fs::path& dir, std::size_t k, bool torn,
                         const std::string& what) {
    PolicyPtr policy = make_policy("BestFit", kPolicySeed);
    tenancy::UsageAccountant recovered_acc(kTenants);
    persist::DurableOptions opts;
    opts.dir = dir.string();
    opts.fsync = FsyncPolicy::kNone;
    opts.usage_hook = &recovered_acc;
    persist::DurableDispatcher recovered(inst.dim(), *policy, opts);
    EXPECT_EQ(recovered.recovery().last_seq, k) << what;
    EXPECT_EQ(recovered.recovery().torn_tail, torn) << what;

    PolicyPtr ref_policy = make_policy("BestFit", kPolicySeed);
    Dispatcher reference(inst.dim(), *ref_policy);
    tenancy::UsageAccountant ref_acc(kTenants);
    reference.set_usage_hook(&ref_acc);
    std::vector<std::uint8_t> expect_blob;
    for (std::size_t i = 0; i < k; ++i) {
      const persist::JournalRecord& rec = scan.records[i];
      switch (rec.kind) {
        case persist::OpKind::kArrive:
          reference.arrive(rec.time, rec.size, rec.expected_departure,
                           rec.tenant);
          break;
        case persist::OpKind::kDepart:
          reference.depart(rec.time, rec.job);
          break;
        case persist::OpKind::kTenantCredits:
          expect_blob = rec.blob;
          break;
        default:
          break;
      }
    }
    EXPECT_EQ(dispatcher_state_hash(recovered.dispatcher()),
              dispatcher_state_hash(reference))
        << what << ": recovered state != journal-record prefix replay";
    EXPECT_EQ(recovered.recovery().tenant_credits, expect_blob)
        << what << ": wrong surviving credit blob";
    for (std::uint32_t t = 0; t < kTenants; ++t) {
      // Same hook code replaying the same op sequence: bit-exact.
      EXPECT_EQ(recovered_acc.demand_integral(t), ref_acc.demand_integral(t))
          << what << " tenant " << t;
      EXPECT_EQ(recovered_acc.active_demand(t), ref_acc.active_demand(t))
          << what << " tenant " << t;
    }
    if (!expect_blob.empty()) {
      tenancy::Arbiter restored(aconfig);
      serial::Reader blob_in(expect_blob);
      restored.restore_state(blob_in);
      EXPECT_EQ(restored.state_bytes(), expect_blob)
          << what << ": credit blob does not round-trip through Arbiter";
    }
  };

  const std::string seg_name = fs::path(segments[0]).filename().string();
  const auto write_prefix = [&](const fs::path& dir,
                                const std::vector<char>& data,
                                std::size_t len) {
    fs::create_directories(dir);
    std::ofstream out(dir / seg_name, std::ios::binary);
    out.write(data.data(), static_cast<std::streamsize>(len));
  };

  // Untampered recovery first: bit-exact with the live run, newest blob.
  {
    TempDir trial("cred_full");
    write_prefix(trial.path, bytes, bytes.size());
    PolicyPtr policy = make_policy("BestFit", kPolicySeed);
    persist::DurableOptions opts;
    opts.dir = trial.str();
    opts.fsync = FsyncPolicy::kNone;
    persist::DurableDispatcher recovered(inst.dim(), *policy, opts);
    ASSERT_EQ(recovered.recovery().last_seq, scan.records.size());
    ASSERT_EQ(dispatcher_state_hash(recovered.dispatcher()), live_hash);
    ASSERT_EQ(recovered.recovery().tenant_credits, blobs.back());
  }
  // Chopping off every credit frame leaves tenant_credits empty.
  {
    TempDir trial("cred_none");
    write_prefix(trial.path, bytes, frame_start[credit_idx.front()]);
    check(trial.path, credit_idx.front(), /*torn=*/false, "pre-credit cut");
  }

  // The fuzz region: a few labeled op frames before the last credit frame,
  // plus every byte of the credit frame itself. Prefixes inside the region
  // surface the SECOND-newest blob; only full survival surfaces the last.
  const std::size_t tail_begin = frame_start[credit_idx.back() - 4];
  for (std::size_t off = tail_begin; off < bytes.size(); ++off) {
    std::size_t containing = 0;
    while (frame_start[containing + 1] <= off) ++containing;
    {
      TempDir trial("cred_trunc");
      write_prefix(trial.path, bytes, off);
      check(trial.path, containing,
            /*torn=*/off != frame_start[containing],
            "truncate@" + std::to_string(off));
    }
    {
      TempDir trial("cred_flip");
      std::vector<char> mutated = bytes;
      mutated[off] = static_cast<char>(mutated[off] ^ 0x5A);
      write_prefix(trial.path, mutated, mutated.size());
      check(trial.path, containing, /*torn=*/true,
            "flip@" + std::to_string(off));
    }
  }
}

// Interval mode runs a background flusher thread alongside the committing
// thread; drive it hard (fsync every 4 ops, so the flusher is almost
// always in flight), abandon the writer mid-class like a crash, and make
// sure recovery still sees every committed frame. This is the TSan
// coverage for the commit()/flusher/sync() interplay.
TEST(CrashFuzz, BackgroundFlusherKeepsEveryCommittedFrame) {
  const Instance inst = fuzz_instance();
  const std::vector<Event> events = build_event_stream(inst);
  TempDir dir("flusher");
  {
    PolicyPtr policy = make_policy("MoveToFront", kPolicySeed);
    persist::DurableOptions opts;
    opts.dir = dir.str();
    opts.fsync = FsyncPolicy::kInterval;
    opts.fsync_interval_ops = 4;
    opts.checkpoint_every = 64;  // checkpoint path exercises sync() drains
    persist::DurableDispatcher durable(inst.dim(), *policy, opts);
    for (const Event& ev : events) {
      const Item& item = inst[ev.item];
      if (ev.kind == EventKind::kArrival) {
        durable.arrive(item.arrival, item.size, item.departure);
      } else {
        durable.depart(ev.time, item.id);
      }
    }
    // Abandoned without flush(): the destructor only joins the flusher.
  }
  expect_prefix_recovery("MoveToFront", inst, events, dir.str(),
                         events.size(), /*expect_torn=*/false,
                         "interval-flusher run");
}

// Sharded crash: a K=4 rendezvous-routed service is killed mid-drain by a
// commit fault on whichever shard reaches it first. Recovery rebuilds
// each shard independently; every shard must match a serial Dispatcher
// fed exactly the prefix of its substream that survived in its journal.
TEST(CrashFuzz, ShardedKilledMidDrainRecoversShardByShard) {
  constexpr std::size_t kShards = 4;
  gen::UniformParams params;
  params.d = 2;
  params.n = 600;
  params.mu = 12;
  params.span = 120;
  params.bin_size = 9;
  const Instance inst = gen::uniform_instance(params, 0x5A4D);
  const std::vector<Event> events = build_event_stream(inst);

  // The rendezvous router is a pure function of (job id, shard), and the
  // single-producer feed assigns job ids in arrival order, so the test
  // can reconstruct every shard's substream exactly.
  std::vector<JobId> job_of_item(inst.size(), kNoItem);
  {
    JobId next = 0;
    for (const Event& ev : events) {
      if (ev.kind == EventKind::kArrival) job_of_item[ev.item] = next++;
    }
  }
  auto shard_of = [&](JobId job) {
    std::size_t best = 0;
    std::uint64_t best_score = cloud::rendezvous_score(job, 0);
    for (std::size_t s = 1; s < kShards; ++s) {
      const std::uint64_t score = cloud::rendezvous_score(job, s);
      if (score > best_score) {
        best = s;
        best_score = score;
      }
    }
    return best;
  };

  TempDir dir("sharded");
  cloud::ShardedOptions options;
  options.shards = kShards;
  options.router = cloud::RouterKind::kRendezvous;
  options.journal_dir = dir.str();
  options.fsync = FsyncPolicy::kNone;
  options.checkpoint_every = 64;
  const auto factory = [](std::size_t) {
    return make_policy("MoveToFront", kPolicySeed);
  };

  // Kill one shard's journal mid-run: the 5th batch commit that gets as
  // far as writing its bytes dies before returning (torn-tail case is
  // exercised per-byte by the serial fuzz; here the batch boundary is the
  // interesting sharded behavior). Batch commits are few -- workers drain
  // their whole backlog per wakeup -- so the countdown is small.
  {
    std::mutex fault_mu;
    int countdown = 5;
    persist::set_fault_hook([&](std::string_view point) {
      if (point != "journal.commit.written") return;
      std::lock_guard<std::mutex> lock(fault_mu);
      if (--countdown == 0) throw persist::FaultInjected(point);
    });
    cloud::ShardedDispatcher service(inst.dim(), factory, options);
    for (const Event& ev : events) {
      const Item& item = inst[ev.item];
      if (ev.kind == EventKind::kArrival) {
        const JobId job =
            service.arrive(item.arrival, item.size, item.departure);
        ASSERT_EQ(job, job_of_item[ev.item]);
      } else {
        service.depart(ev.time, job_of_item[ev.item]);
      }
    }
    EXPECT_THROW(service.drain(), persist::FaultInjected);
    persist::clear_fault_hook();
  }  // destructor joins workers; the poisoned shard stops journaling

  // Recover a fresh service from the same directories.
  cloud::ShardedDispatcher recovered(inst.dim(), factory, options);
  std::uint64_t total_recovered_ops = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    SCOPED_TRACE(s);
    const persist::RecoveryReport& report = recovered.shard_recovery(s);
    total_recovered_ops += report.last_seq;

    // Rebuild shard s's substream (the order its queue received ops) and
    // feed the surviving prefix to a serial replica.
    PolicyPtr policy = make_policy("MoveToFront", kPolicySeed);
    Dispatcher replica(inst.dim(), *policy);
    std::vector<JobId> local_of_global(inst.size(), kNoItem);
    std::uint64_t applied = 0;
    for (const Event& ev : events) {
      if (applied >= report.last_seq) break;
      const JobId job = job_of_item[ev.item];
      if (shard_of(job) != s) continue;
      const Item& item = inst[ev.item];
      if (ev.kind == EventKind::kArrival) {
        local_of_global[job] =
            static_cast<JobId>(replica.jobs_admitted());
        replica.arrive(item.arrival, item.size, item.departure);
      } else {
        replica.depart(ev.time, local_of_global[job]);
      }
      ++applied;
    }
    ASSERT_EQ(applied, report.last_seq);
    EXPECT_EQ(recovered.shard_jobs_admitted(s), replica.jobs_admitted());
    EXPECT_EQ(packing_hash(recovered.shard_packing(s)),
              packing_hash([&] {
                std::vector<BinId> assignment(replica.jobs_admitted(),
                                              kNoBin);
                for (const BinRecord& rec : replica.records()) {
                  for (ItemId it : rec.items) assignment[it] = rec.id;
                }
                return Packing(std::move(assignment), replica.records());
              }()))
        << "shard " << s << " diverged from its journaled prefix";
  }
  // Exactly one shard lost its tail; the others recovered every op they
  // were fed. With the fault at commit.written, the dying batch's frames
  // are on disk, so at most the post-fault batches are missing.
  EXPECT_GT(total_recovered_ops, 0u);
  EXPECT_LT(total_recovered_ops, events.size() + 1);

  // The recovered service is live: it accepts new traffic and drains.
  const Time resume = events.back().time + 1.0;
  RVec size(inst.dim());
  for (std::size_t j = 0; j < size.dim(); ++j) size[j] = 0.3;
  const JobId job = recovered.arrive(resume, size, resume + 5.0);
  recovered.depart(resume + 2.0, job);
  recovered.drain();
}

}  // namespace
}  // namespace dvbp
