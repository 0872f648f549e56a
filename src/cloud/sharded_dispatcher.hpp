// ShardedDispatcher: a thread-safe placement service over K Dispatcher
// shards.
//
// The paper's allocator is inherently sequential: every placement decision
// depends on the full bin state. To serve heavy arrival traffic the service
// layer partitions the stream instead -- K independent Dispatcher shards,
// each owned by a dedicated worker thread and fed through a bounded MPSC
// queue. A Router (cloud/router.hpp) picks the shard at admission time, in
// the producer's thread; the job's departure is steered to the same shard,
// so each shard observes a self-consistent substream and its competitive
// behavior is exactly that of a serial Dispatcher on that substream.
//
// Equivalence contract (pinned by tests/test_sharded_parity.cpp):
//   * K = 1, any router: the service reproduces the serial Dispatcher --
//     and hence simulate() -- bin for bin on any monotone event feed.
//   * K > 1: shard s's packing equals a serial Dispatcher fed shard s's
//     substream in admission order, and the global cost is the sum of the
//     per-shard costs at every timestamp.
//
// Memory layout: each shard's Dispatcher owns its own slab allocators and
// SoA open-bin table (core/open_bin_table.hpp, core/pool.hpp), so the
// SIMD feasibility scan and the pooled usage-node recycling are per-shard
// and share no cache lines across workers. The least-usage router's
// load_snapshot is refreshed from the shard table's contiguous lanes
// (Dispatcher::total_active_load).
//
// Timestamps: each worker applies its queue in FIFO order and clamps event
// times to be monotone within the shard (an op whose timestamp lags the
// shard clock is applied at the shard clock, the way an ingestion front-end
// stamps requests). With a single producer the feed is already monotone and
// no clamping ever fires.
//
// Consistency: cost_so_far() / open_bins() / jobs_active() aggregate the
// shards under their mutexes and are safe to call at any time, but reflect
// only *applied* ops -- call drain() first for an exact figure. snapshot()
// and shard_packing() additionally require quiescence (drain() and no
// concurrent producers) and materialize real Packing objects.
//
// Observability: with a MetricRegistry attached, each shard registers
//   dvbp.shard.<i>.queue_depth            gauge, ops waiting in the queue
//   dvbp.shard.<i>.batch_size             histogram, ops per drain
//   dvbp.shard.<i>.placement_latency_ns   histogram, enqueue -> applied
//   dvbp.shard.<i>.ops_applied_total      counter, survives shutdown
// and the shard's Dispatcher feeds the shared dvbp.alloc.* instruments
// (aggregated across shards) plus an optional per-shard Tracer.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "cloud/router.hpp"
#include "core/dispatcher.hpp"
#include "core/packing.hpp"
#include "core/policies/policy.hpp"
#include "core/types.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "persist/journal.hpp"
#include "persist/recovery.hpp"
#include "tenancy/accountant.hpp"
#include "tenancy/arbiter.hpp"

namespace dvbp::obs {
class Tracer;  // obs/trace.hpp
}  // namespace dvbp::obs

namespace dvbp::cloud {

struct ShardedOptions {
  std::size_t shards = 1;
  RouterKind router = RouterKind::kRoundRobin;
  double bin_capacity = 1.0;
  /// Per-shard queue bound; producers block when a shard's queue is full.
  std::size_t queue_capacity = 4096;
  /// Max ops a worker applies per drain (one lock round-trip per batch).
  std::size_t max_batch = 256;
  /// Applied ops between refreshes of the shard load snapshot the
  /// least-usage router reads.
  std::size_t snapshot_every = 64;
  /// Borrowed, nullable; receives the per-shard queue/batch/latency
  /// instruments and the shared dvbp.alloc.* allocator metrics.
  obs::MetricRegistry* metrics = nullptr;
  /// Borrowed per-shard tracers: empty (tracing off) or size == shards.
  std::vector<obs::Tracer*> shard_tracers;

  // --- Durability (src/persist/, docs/DURABILITY.md) -------------------

  /// Root journal directory; empty disables journaling. Each shard worker
  /// owns `<journal_dir>/shard-<s>` exclusively -- journal appends never
  /// take a cross-shard lock. Construction recovers every shard from its
  /// directory (checkpoint restore + journal replay) before the workers
  /// start, rebuilding the global job table and router state.
  std::string journal_dir;
  persist::FsyncPolicy fsync = persist::FsyncPolicy::kInterval;
  std::size_t fsync_interval_ops = 256;
  /// Per-shard: checkpoint after this many journaled ops; 0 disables.
  std::size_t checkpoint_every = 0;

  // --- Multi-tenancy (src/tenancy/, docs/TENANCY.md) --------------------

  /// Number of tenants; 0 disables tenancy entirely (no accountants, no
  /// per-arrival tenant bookkeeping -- the pre-tenancy behavior, bit for
  /// bit). When > 0 every shard owns a tenancy::UsageAccountant hooked
  /// into its Dispatcher, arrivals carry their tenant label through the
  /// queue and the journal, and settle_tenants() merges the shard ledgers
  /// into an Arbiter settlement at quiescence.
  std::uint32_t tenants = 0;
};

/// Knobs for rebalance_shards() (docs/MIGRATION.md). A move is a
/// depart-on-source + arrive-on-destination under the same global job id,
/// journaled on both shards (source made durable first, so a crash in
/// between can only lose the destination arrival -- the job recovers as
/// departed -- never duplicate it).
struct ShardRebalanceConfig {
  /// Trigger: move while max shard load > skew_ratio * min shard load.
  double skew_ratio = 1.5;
  /// Stop once the absolute max-min load gap falls below this.
  double min_gap = 0.25;
  /// Migration budget: at most this many jobs moved per call.
  std::size_t max_moves = 16;
};

struct ShardRebalanceReport {
  std::size_t moves = 0;
  double moved_volume = 0.0;  ///< sum of moved jobs' L1 sizes
  double skew_before = 0.0;   ///< max/min load ratio at entry
  double skew_after = 0.0;    ///< max/min load ratio at exit
};

/// Completion hook for asynchronous submissions (the network front-end,
/// src/net/server.cpp). The owning shard worker calls op_applied() exactly
/// once per accepted try_arrive/try_depart, after the op has been applied
/// to the shard's Dispatcher (and appended to its journal when durability
/// is on), *before* the op counts as applied for drain() -- so when
/// drain() returns every accepted op's completion has already fired.
/// Called from shard worker threads with no shard lock held; it must not
/// block on anything that waits for shard progress.
class CompletionSink {
 public:
  virtual ~CompletionSink() = default;
  /// `cookie` is the value passed at submission; `job` is the service
  /// global job id of the op.
  virtual void op_applied(std::uint64_t cookie, JobId job) noexcept = 0;
};

class ShardedDispatcher {
 public:
  /// `factory(shard)` builds the policy instance shard `shard` owns; it is
  /// called once per shard at construction (policies are stateful and not
  /// thread-safe, so they are never shared). Throws std::invalid_argument
  /// on bad options.
  using PolicyFactory = std::function<PolicyPtr(std::size_t shard)>;
  ShardedDispatcher(std::size_t dim, const PolicyFactory& factory,
                    ShardedOptions options = {});

  /// Drains every queued op, then stops and joins the workers: shutdown
  /// with a non-empty queue still applies everything already enqueued.
  /// Worker-side errors are swallowed here (read them via drain() before
  /// destruction if you care).
  ~ShardedDispatcher();

  ShardedDispatcher(const ShardedDispatcher&) = delete;
  ShardedDispatcher& operator=(const ShardedDispatcher&) = delete;

  /// Admits a job: validates the size, routes it to a shard, and enqueues
  /// the placement (applied asynchronously by the shard worker, in FIFO
  /// order). Returns the service-global job id immediately. Blocks while
  /// the target shard's queue is full. Thread-safe.
  JobId arrive(Time now, RVec size,
               Time expected_departure =
                   std::numeric_limits<Time>::infinity(),
               TenantId tenant = kNoTenant);

  /// Marks `job` finished: enqueues the departure on the shard that owns
  /// it. Throws std::invalid_argument for unknown or already-departed jobs
  /// (checked eagerly, so racing double-departs fail deterministically in
  /// exactly one caller). Thread-safe.
  void depart(Time now, JobId job);

  // --- Asynchronous admission (the network front-end) ------------------
  //
  // Non-blocking variants for callers that must never park a thread on a
  // full shard queue (an epoll event loop): instead of blocking, they
  // return "no" and the caller converts that into backpressure (a typed
  // RETRY_LATER response). When a sink is supplied, the shard worker calls
  // sink->op_applied(cookie, job) once the op has been applied -- the
  // completion hookup that lets a server answer a request only when the
  // placement actually happened.

  /// Like arrive(), but returns std::nullopt instead of blocking when the
  /// routed shard's queue is full (the op is NOT admitted; a burned job id
  /// is retired internally). Validation errors still throw. Thread-safe.
  std::optional<JobId> try_arrive(
      Time now, RVec size,
      Time expected_departure = std::numeric_limits<Time>::infinity(),
      std::shared_ptr<CompletionSink> sink = nullptr,
      std::uint64_t cookie = 0, TenantId tenant = kNoTenant);

  /// Like depart(), but returns false instead of blocking when the owning
  /// shard's queue is full (the job is NOT marked departed and the caller
  /// may retry). Unknown/double departs still throw. Thread-safe.
  bool try_depart(Time now, JobId job,
                  std::shared_ptr<CompletionSink> sink = nullptr,
                  std::uint64_t cookie = 0);

  /// Blocks until every op enqueued before the call has been applied, then
  /// rethrows the first worker-side error, if any.
  void drain();

  /// Forces an fsync on every live shard journal (no-op when durability is
  /// off). The graceful-drain path calls this after drain() so that an
  /// acknowledged-then-drained state is on disk even under
  /// FsyncPolicy::kInterval. Thread-safe. A journal that fails here is
  /// poisoned exactly as a worker-side failure would poison it; the error
  /// surfaces through the next drain().
  void sync_journals();

  // --- Global view -----------------------------------------------------

  std::size_t dim() const noexcept { return dim_; }
  std::size_t shards() const noexcept { return shards_.size(); }
  RouterKind router() const noexcept { return router_->kind(); }

  /// Ops admitted (arrivals + departures enqueued so far). Summed over the
  /// shards; exact once the producers that matter have returned.
  std::uint64_t ops_enqueued() const noexcept;
  /// Ops the workers have applied so far.
  std::uint64_t ops_applied() const;

  std::size_t jobs_admitted() const;
  /// Shard `job` was routed to (fixed at arrive()).
  std::size_t shard_of(JobId job) const;

  /// Sum of the per-shard eq. (1) costs at `at` -- exact for historical
  /// timestamps, reflects applied ops only. Thread-safe.
  double cost_so_far(Time at) const;
  std::size_t open_bins() const;
  std::size_t bins_opened() const;
  std::size_t jobs_active() const;

  // --- Per-shard view --------------------------------------------------

  double shard_cost_so_far(std::size_t shard, Time at) const;
  std::size_t shard_open_bins(std::size_t shard) const;
  std::size_t shard_bins_opened(std::size_t shard) const;
  std::size_t shard_jobs_admitted(std::size_t shard) const;

  // --- Quiescent snapshots (drain() first; throw std::logic_error while
  // --- ops are in flight) ----------------------------------------------

  /// Shard `shard`'s packing in shard-local job/bin ids -- directly
  /// comparable against a serial Dispatcher fed the shard's substream.
  Packing shard_packing(std::size_t shard) const;

  /// The merged global packing: bin ids renumbered shard-major (shard 0's
  /// bins first, in opening order), items as service-global job ids.
  Packing snapshot() const;

  /// Global job id of shard-local job `local` on `shard`.
  JobId global_job(std::size_t shard, JobId local) const;

  /// The job's admission record on its shard (applied, possibly clamped,
  /// arrival time; actual departure once departed). Quiescent only.
  const Item& job_item(JobId job) const;

  /// How shard `shard` recovered at construction (all-defaults when
  /// journaling is off or the directory was empty: a cold start).
  const persist::RecoveryReport& shard_recovery(std::size_t shard) const;

  /// Shard-level rebalancing: while the shard loads skew beyond
  /// `config.skew_ratio`, moves jobs (largest first, bounded by half the
  /// load gap) from the most- to the least-loaded shard, re-routing each
  /// job's ownership so later departs land on the new shard. Requires
  /// quiescence (drain() first, no concurrent producers) -- the whole
  /// call runs with the service idle, mutating shard state under the
  /// shard mutexes and bypassing the queues. At most `config.max_moves`
  /// jobs move per call. Journaled when durability is on.
  ShardRebalanceReport rebalance_shards(
      Time now, const ShardRebalanceConfig& config = {});

  /// Read-only view of shard `shard`'s live dispatcher, for invariant
  /// checking in tests. Quiescent only.
  const Dispatcher& shard_dispatcher(std::size_t shard) const;

  // --- Multi-tenancy (ShardedOptions::tenants > 0 only) -----------------

  /// Quiescent credit settlement: closes each shard accountant's epoch at
  /// `now`, merges the per-tenant usage integrals across shards, settles
  /// `arbiter` with the merged vector, and -- when durability is on --
  /// journals the settled credit state as one kTenantCredits frame on
  /// shard 0 (recovered via shard_recovery(0).tenant_credits). Returns the
  /// merged per-tenant usage of the epoch (the fairness tracker's input).
  /// Requires quiescence, like snapshot(). Throws std::logic_error when
  /// tenancy is off, std::invalid_argument on a tenant-count mismatch.
  std::vector<double> settle_tenants(Time now, tenancy::Arbiter& arbiter);

  /// Shard `shard`'s usage ledger; null when tenancy is off. Quiescent
  /// reads only (the owning worker mutates it on every op).
  const tenancy::UsageAccountant* shard_accountant(std::size_t shard) const;

 private:
  struct Op {
    enum class Kind : std::uint8_t { kArrive, kDepart } kind = Kind::kArrive;
    Time time = 0.0;
    JobId job = kNoItem;  // global id
    RVec size;            // arrivals only
    Time expected_departure = 0.0;
    TenantId tenant = kNoTenant;  // arrivals only
    std::chrono::steady_clock::time_point enqueued{};  // metrics only
    std::shared_ptr<CompletionSink> sink;  // null for synchronous callers
    std::uint64_t cookie = 0;
  };

  /// A fired-after-apply completion, staged by apply_batch and delivered
  /// by the worker outside the shard lock.
  struct Completion {
    std::shared_ptr<CompletionSink> sink;
    std::uint64_t cookie = 0;
    JobId job = kNoItem;
  };

  struct Shard {
    // Placement state: guarded by `mu`.
    mutable std::mutex mu;
    PolicyPtr policy;
    std::unique_ptr<obs::Observer> observer;  // null when obs is off
    std::unique_ptr<Dispatcher> dispatcher;
    /// Per-shard usage ledger (null when tenancy is off); hooked into the
    /// dispatcher, so it accrues under `mu` with every applied op.
    std::unique_ptr<tenancy::UsageAccountant> accountant;
    std::vector<JobId> global_of_local;  // local JobId -> global JobId

    // Queue: guarded by `qmu`.
    std::mutex qmu;
    std::condition_variable not_full;
    std::condition_variable not_empty;
    std::deque<Op> queue;
    bool stop = false;
    /// queue.size() mirror, maintained inside qmu critical sections; lets
    /// the worker spin-poll for new work without taking the lock.
    std::atomic<std::size_t> qsize{0};
    std::atomic<bool> stopping{false};
    /// Ops enqueued to this shard. Kept per-shard (and summed on read) so
    /// concurrent producers do not serialize on one global counter line.
    std::atomic<std::uint64_t> ops_enqueued{0};

    // Router signals (written by the worker / producers, read by route()).
    std::atomic<double> load_snapshot{0.0};
    std::atomic<std::int64_t> pending_arrivals{0};

    // Cached instruments (null when metrics are off).
    obs::Gauge* queue_depth = nullptr;
    obs::Histogram* batch_size = nullptr;
    obs::Histogram* placement_latency = nullptr;
    obs::Counter* ops_applied_total = nullptr;

    // Durability (null/default when journaling is off). The journal is
    // owned by this shard's worker: appends/commits happen inside
    // apply_batch under `mu`, one commit per batch (group commit).
    std::string journal_path;  ///< <journal_dir>/shard-<s>
    std::unique_ptr<persist::JournalWriter> journal;
    persist::RecoveryReport recovery;
    std::uint64_t ops_since_checkpoint = 0;
    bool journal_dead = false;  ///< sticky after a persistence failure

    std::thread worker;
  };

  /// Per-job admission record. Lives in chunked, pointer-stable storage so
  /// the arrive/depart hot paths never share a lock: ids come from an
  /// atomic counter, `shard`/`departed` are per-record atomics, and
  /// `local` is written by the owning shard's worker only (readers must be
  /// quiescent; the happens-before edge is the ops_applied_ release/
  /// acquire pair in drain()).
  struct JobRec {
    std::atomic<std::uint32_t> shard{0};
    std::atomic<bool> departed{false};  // set eagerly in depart()
    JobId local = kNoItem;              // written by the worker when applied
  };

  /// Job records are allocated in chunks of 2^kJobChunkBits; the chunk
  /// directory is a fixed array of atomic pointers, so readers index it
  /// without locks. Caps the service at kMaxChunks << kJobChunkBits
  /// (~67M) jobs -- far beyond any single run, and checked in arrive().
  static constexpr std::size_t kJobChunkBits = 13;
  static constexpr std::size_t kJobChunkSize = 1u << kJobChunkBits;
  static constexpr std::size_t kMaxChunks = 1u << 13;

  JobRec& job_rec(JobId job) const {
    return job_chunks_[job >> kJobChunkBits].load(
        std::memory_order_acquire)[job & (kJobChunkSize - 1)];
  }

  /// Validation, routing, job-id allocation, and record setup shared by
  /// arrive() and try_arrive(); returns the ready-to-enqueue op and the
  /// routed shard via `target_out`.
  Op prepare_arrive(Time now, RVec size, Time expected_departure,
                    std::shared_ptr<CompletionSink> sink,
                    std::uint64_t cookie, TenantId tenant,
                    std::size_t& target_out);
  void enqueue(std::size_t shard_idx, Op op);
  /// Non-blocking enqueue: returns false (leaving `op` untouched) when the
  /// shard queue is at capacity or shutdown has started.
  bool try_enqueue(std::size_t shard_idx, Op& op);
  void worker_loop(std::size_t shard_idx);
  void apply_batch(Shard& shard, std::vector<Op>& batch,
                   std::vector<Completion>& completions);
  void require_quiescent() const;
  JobRec& checked_job_rec(JobId job, const char* caller) const;

  std::string shard_journal_dir(std::size_t shard_idx) const;
  void recover_shard(std::size_t shard_idx);
  void rebuild_job_table();
  void checkpoint_shard(Shard& shard);
  void record_worker_error();

  std::size_t dim_;
  ShardedOptions options_;
  std::unique_ptr<Router> router_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<std::uint64_t> next_job_{0};
  std::array<std::atomic<JobRec*>, kMaxChunks> job_chunks_{};
  std::mutex chunk_mu_;  // serializes chunk allocation only

  std::atomic<std::uint64_t> ops_applied_{0};
  std::atomic<int> drain_waiters_{0};
  mutable std::mutex drain_mu_;
  mutable std::condition_variable drain_cv_;
  mutable std::mutex error_mu_;
  std::exception_ptr worker_error_;        // guarded by error_mu_
};

}  // namespace dvbp::cloud
