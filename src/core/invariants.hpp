// PackingInvariantChecker: the migration-era replacement for the
// append-only audit in Packing::validate().
//
// Migration (core/rebalancer.hpp) rewrites placement state that every
// other subsystem assumes is write-once: an item may appear in the item
// list of several bins, and assignment means "last bin packed into".
// This checker audits a live Dispatcher directly, after every event if
// the caller wishes, and is stateful across calls so it can also enforce
// the monotone invariants (closed bins never reopen or mutate, realized
// cost never decreases) that a single snapshot cannot see.
//
// Invariants checked (ISSUE 7 / docs/MIGRATION.md):
//   1. no open bin exceeds capacity in any dimension, and each bin's
//      open-bin table slot holds a load equal (up to rounding) to the sum
//      of its active items' sizes and the exact latest departure among
//      them, with its occupancy matching its active list;
//   2. every live, non-evicted job sits in exactly one open bin that
//      lists it exactly once; evicted (in-limbo) jobs sit in none;
//   3. closed bins stay closed with an immutable usage record, and
//      closed usage / cost_so_far are monotone non-decreasing;
//   4. the migration budget is never overdrawn (check_budget, fed the
//      Rebalancer's usage counters).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/types.hpp"

namespace dvbp {

class Dispatcher;

/// Budget-accounting snapshot, produced by Rebalancer::budget_usage().
/// Credits accrue per departure event; consumption must never exceed
/// them (invariant 4).
struct MigrationBudgetUsage {
  std::uint64_t migrations = 0;        ///< migrations executed so far
  double volume = 0.0;                 ///< total migrated L1 volume
  double migration_credits = 0.0;      ///< migration credits accrued
  double volume_credits = 0.0;         ///< volume credits accrued
};

class PackingInvariantChecker {
 public:
  /// Audits `d` against invariants 1-3. Returns a description of the
  /// first violation, or nullopt when consistent. Stateful: remembers
  /// closed-bin records and cost watermarks from previous calls on the
  /// same dispatcher; use one checker instance per dispatcher.
  std::optional<std::string> check(const Dispatcher& d);

  /// Invariant 4: consumption never exceeds accrued credits.
  static std::optional<std::string> check_budget(
      const MigrationBudgetUsage& usage);

 private:
  struct ClosedBin {
    Time opened = 0.0;
    Time closed = 0.0;
    std::size_t items = 0;  // record item-list length at close time
    bool seen = false;
  };
  std::vector<ClosedBin> closed_seen_;  // by bin id, once observed closed
  double last_closed_usage_ = 0.0;
  double last_cost_ = 0.0;
  bool have_watermarks_ = false;
};

}  // namespace dvbp
