// Dispatcher: the placement engine (Algorithm 1 of the paper).
//
// Dispatcher wraps a Policy behind an incremental interface: call arrive()
// when a job shows up (placement is returned immediately and is
// irrevocable, per the paper's model), depart() when it finishes; a bin
// that empties closes permanently. Departure times need not be known at
// arrival; clairvoyant policies may be fed an expected departure. The
// dispatcher owns all feasibility enforcement -- a policy returning a bin
// that is not open or cannot hold the job raises PolicyViolation.
//
// simulate() (core/simulator.hpp) is a loop over a Dispatcher that replays
// a complete Instance; live services (sharded, durable, wire) drive one
// directly over wall-clock time.
//
// Each fact about an open bin (paper Sec. 2.1) is stored once: its load
// and latest departure in the OpenBinTable its policy reads, its opening
// time and every item it ever held in its BinRecord, and its active items
// in a UsagePool::List indexed by BinId. open_bin/pack_into/remove_job
// update all of them together.
#pragma once

#include <limits>
#include <vector>

#include "core/open_bin_table.hpp"
#include "core/packing.hpp"
#include "core/policies/policy.hpp"
#include "core/pool.hpp"
#include "core/types.hpp"

namespace dvbp::obs {
class Observer;  // obs/observer.hpp
}  // namespace dvbp::obs

namespace dvbp {

/// Identifier the caller uses to refer to a live job.
using JobId = ItemId;

/// Per-tenant usage accounting hook (implemented by
/// tenancy::UsageAccountant; core stays tenancy-agnostic the same way it
/// stays obs-agnostic). The dispatcher invokes the hook with the open-bin
/// count *before* the event mutates state: bin counts are piecewise
/// constant between events, so accruing [last event, now) at the old count
/// is exact, not an approximation. A null hook costs one branch per event.
class TenantUsageHook {
 public:
  virtual ~TenantUsageHook() = default;
  /// A job of `tenant` was admitted at `now` with demand `size`.
  virtual void on_arrive(TenantId tenant, Time now, const RVec& size,
                         std::size_t open_bins) = 0;
  /// A job of `tenant` departed at `now`, releasing demand `size`.
  virtual void on_depart(TenantId tenant, Time now, const RVec& size,
                         std::size_t open_bins) = 0;
  /// Clock advance with no demand change (evict/replace: the job stays
  /// active, but the open-bin count may step).
  virtual void on_advance(Time now, std::size_t open_bins) = 0;
};

class Dispatcher {
 public:
  /// `policy` is borrowed (not owned) and reset(); it must outlive the
  /// dispatcher. `bin_capacity` >= 1 enables resource augmentation.
  /// `observer` (borrowed, nullable) receives one callback per allocator
  /// event -- the live-service telemetry feed (see obs/observer.hpp).
  Dispatcher(std::size_t dim, Policy& policy, double bin_capacity = 1.0,
             obs::Observer* observer = nullptr);

  struct Admission {
    JobId job = kNoItem;
    BinId bin = kNoBin;
    bool opened_new_bin = false;
  };

  /// Admits a job of the given size at time `now` (monotonically
  /// nondecreasing across all calls). `expected_departure` is only shown
  /// to clairvoyant policies; pass the default when unknown. `tenant`
  /// labels the job for usage accounting (src/tenancy/) and is invisible
  /// to every placement policy -- packing decisions are tenant-blind.
  /// Throws std::invalid_argument on bad sizes or time regressions.
  Admission arrive(Time now, RVec size,
                   Time expected_departure =
                       std::numeric_limits<Time>::infinity(),
                   TenantId tenant = kNoTenant);

  /// Attaches (or detaches, with nullptr) the per-tenant usage accounting
  /// hook. Borrowed; must outlive the dispatcher or be detached first.
  void set_usage_hook(TenantUsageHook* hook) noexcept {
    usage_hook_ = hook;
  }

  /// Marks `job` finished at `now`. Throws std::invalid_argument for
  /// unknown/already-departed jobs or time regressions.
  void depart(Time now, JobId job);

  // --- Migration primitives (src/core/rebalancer.hpp) ------------------

  struct Eviction {
    BinId bin = kNoBin;   ///< bin the job was evicted from
    bool emptied = false; ///< true if the eviction closed that bin
  };

  /// Removes `job` from its bin without departing it: the job stays
  /// active ("in limbo") and must be re-placed with replace() before it
  /// can depart. If the bin empties it closes permanently, exactly as on
  /// a departure. Unlike depart(), the item's departure field is NOT
  /// patched (the job is still running). Throws std::invalid_argument
  /// for unknown, departed, or already-evicted jobs.
  Eviction evict(Time now, JobId job);

  /// Re-places a previously evicted `job` at `now`: into open bin
  /// `target`, or into a freshly opened bin when `target` == kNoBin.
  /// Throws std::invalid_argument if the job is not in limbo and
  /// PolicyViolation if `target` is not open or cannot hold the job.
  /// Returns the (possibly new) bin id.
  BinId replace(Time now, JobId job, BinId target = kNoBin);

  /// True while `job` has been evict()ed but not yet replace()d.
  bool is_evicted(JobId job) const {
    return job < evicted_.size() && evicted_[job] != 0;
  }

  /// Number of jobs currently in limbo (evicted, not yet re-placed).
  std::size_t jobs_evicted() const noexcept { return evicted_jobs_; }

  /// Last bin `job` was packed into (never reset by depart/evict) --
  /// the authoritative final placement for Packing assignment under
  /// migration, where records() may list a job in several bins.
  BinId last_bin_of(JobId job) const;

  /// Materializes the current placement: assignment[j] = last bin j was
  /// packed into, plus the full bin records. Under migration a job
  /// appears in the item list of every bin it ever occupied; the
  /// assignment names the final one. Jobs in limbo keep their previous
  /// bin in the assignment -- call at quiescence (no evicted jobs) for a
  /// well-defined packing.
  Packing packing() const;

  // --- Introspection ---------------------------------------------------

  std::size_t dim() const noexcept { return dim_; }
  std::size_t open_bins() const noexcept { return table_.size(); }
  std::size_t bins_opened() const noexcept { return records_.size(); }
  std::size_t jobs_admitted() const noexcept { return items_.size(); }
  std::size_t jobs_active() const noexcept { return active_jobs_; }
  Time last_event_time() const noexcept { return now_; }

  /// Bin currently hosting `job` (kNoBin after departure).
  BinId bin_of(JobId job) const;

  /// The open bins in opening order -- the table every policy decides
  /// from. Slot contents change with the next mutating call; callers that
  /// share the dispatcher across threads must hold their own lock across
  /// the call and any use of the result.
  const OpenBinTable& open_bin_table() const noexcept { return table_; }

  /// Sum over open bins and dimensions of the current load -- the
  /// "total usage" signal the least-usage router balances on. O(open bins).
  double total_active_load() const noexcept { return table_.total_load(); }

  /// Every job ever admitted, by JobId (indexable, iterable; backed by a
  /// chunked slab, so Item references stay valid across later arrivals).
  /// A job's `departure` field holds the expected departure passed to
  /// arrive() until depart() patches in the actual one; `arrival` is the
  /// (possibly clamped) admission time.
  const StableVector<Item>& items() const noexcept { return items_; }

  /// Total usage time accrued up to `at`: every bin contributes
  /// max(0, min(at, close time) - open time), where open bins have no
  /// close time yet. This is the objective of eq. (1) metered live, and
  /// it is exact for historical timestamps too: a closed bin's
  /// contribution is clamped to `at` instead of counted in full. O(1)
  /// bookkeeping keeps queries at `at` >= last_event_time() to O(open
  /// bins); earlier timestamps scan every record.
  double cost_so_far(Time at) const;

  /// Usage records of every bin ever opened (open bins report their
  /// opening time with `closed` == opened; consult open_bins()).
  const std::vector<BinRecord>& records() const noexcept { return records_; }

  /// True while bin `id` is open (it has a slot in open_bin_table()).
  bool is_open(BinId id) const noexcept {
    return id < slot_of_.size() && slot_of_[id] != kNoSlot;
  }

  /// Number of active items in bin `id`; 0 once it has closed. O(1).
  std::size_t occupancy(BinId id) const noexcept {
    return id < active_.size() ? active_[id].size : 0;
  }

  /// Active items of bin `id` in insertion order (empty once closed).
  /// Materialized from the bin's list: a cold path for audits and the
  /// rebalancer's planning pass.
  std::vector<JobId> active_items(BinId id) const;

  /// Running sum of closed bins' usage time (monotone; checker use).
  double closed_usage() const noexcept { return closed_usage_; }

  // --- Checkpointing (src/persist/checkpoint.hpp) ----------------------

  /// Serializes the complete allocation state -- items, assignments, bin
  /// records, open-bin order, and every open bin's exact load bits -- such
  /// that restore_state() on a fresh Dispatcher (same dim/capacity, same
  /// policy configuration; policy state is checkpointed separately through
  /// Policy::save_state) reproduces a dispatcher whose future decisions
  /// are bit-identical to this one's. Loads are written as raw IEEE-754
  /// bits: re-adding the active items would reorder the floating-point
  /// sums and could flip a later fits decision by one ulp. Closed bins
  /// live on only in records(). O(items + bins).
  void save_state(serial::Writer& out) const;

  /// Restores state written by save_state(). Must be called on a freshly
  /// constructed dispatcher (nothing admitted yet) with the same dim and
  /// bin_capacity; throws std::logic_error otherwise and
  /// serial::SerialError on malformed input (including an open bin whose
  /// packed count disagrees with its record). Does not invoke any Policy
  /// callback -- pair with Policy::restore_state.
  void restore_state(serial::Reader& in);

 private:
  static constexpr std::uint32_t kNoSlot =
      std::numeric_limits<std::uint32_t>::max();

  void check_time(Time now);
  /// The three placement steps every event path is built from. open_bin
  /// opens a bin at `now` holding `job`; pack_into packs `job` into open
  /// bin `target` (PolicyViolation if it is not open or cannot hold the
  /// job); remove_job takes `job` out of its bin, closing the bin if it
  /// empties. Each records the job's placement and notifies the policy
  /// and the observer's open/depart/evict/close hooks.
  BinId open_bin(Time now, JobId job);
  void pack_into(Time now, BinId target, JobId job);
  /// Adds `job` to open bin `id` at `slot`: load lane, latest departure,
  /// active list, record and assignment, in one place.
  void add_to(BinId id, std::uint32_t slot, JobId job);
  Eviction remove_job(Time now, JobId job, bool evicting);
  void close_slot(std::uint32_t slot);

  std::size_t dim_;
  Policy& policy_;
  obs::Observer* obs_;
  TenantUsageHook* usage_hook_ = nullptr;
  Time now_ = 0.0;
  bool started_ = false;

  UsagePool usage_pool_;  // nodes of every bin's active list
  StableVector<Item> items_;  // by JobId; departure patched on depart
  std::vector<BinId> assignment_;    // JobId -> bin (kNoBin once departed)
  std::vector<BinId> last_bin_;      // JobId -> last bin packed into
  std::vector<std::uint8_t> evicted_;  // JobId -> 1 while in limbo
  std::size_t evicted_jobs_ = 0;
  OpenBinTable table_;  // the open bins, in opening order
  std::vector<std::uint32_t> slot_of_;  // BinId -> slot in table_
  std::vector<UsagePool::List> active_;  // BinId -> active items
  std::vector<BinRecord> records_;
  std::size_t active_jobs_ = 0;
  double closed_usage_ = 0.0;  // running sum of closed bins' usage time
};

}  // namespace dvbp
