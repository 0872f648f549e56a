// BinState: the mutable state of one open bin during a simulation.
//
// A bin is opened when it receives its first item, stays open while it holds
// an active item, and closes (permanently; paper Sec. 2.1) when its last
// item departs. Load is maintained incrementally; the final subtraction is
// clamped to remove floating residue.
//
// The active set is a singly linked list of usage-interval nodes threaded
// through a UsagePool shared by every bin of one Dispatcher
// (core/pool.hpp): add() splices a node from the pool's free list and
// remove() returns it -- no per-item vector growth or shrink on the hot
// path. Insertion order is preserved (the serialization format and the
// golden state hashes depend on it).
//
// latest_departure() is maintained incrementally from the departure each
// item carried when it was added: removal only rescans the bin when the
// current maximum departs. The Dispatcher processes departures in time order,
// so the departing item is almost always a non-maximum and removal is
// O(occupancy) only for the find of the item itself, not for the rescan.
#pragma once

#include <vector>

#include "core/item.hpp"
#include "core/pool.hpp"
#include "core/rvec.hpp"
#include "core/serial.hpp"
#include "core/types.hpp"

namespace dvbp {

class BinState {
 public:
  /// `pool` (borrowed, never null) backs the active-item list and must
  /// outlive the bin. Bins do not release their nodes on destruction --
  /// the owning Dispatcher drops the whole pool wholesale -- so a BinState
  /// must be drained (or abandoned with its pool) rather than copied.
  BinState(BinId id, std::size_t dim, Time opened_at, double capacity,
           UsagePool* pool)
      : id_(id),
        opened_at_(opened_at),
        capacity_(capacity),
        load_(dim),
        pool_(pool) {}

  BinState(const BinState&) = delete;
  BinState& operator=(const BinState&) = delete;

  BinId id() const noexcept { return id_; }
  Time opened_at() const noexcept { return opened_at_; }
  const RVec& load() const noexcept { return load_; }
  std::size_t num_active() const noexcept { return num_active_; }
  bool is_empty() const noexcept { return num_active_ == 0; }
  /// Currently-active items in insertion order, materialized from the
  /// node list (cold-path use: audits, the rebalancer's planning pass).
  std::vector<ItemId> active_items() const;
  /// Latest departure among currently-active items (clairvoyant policies).
  /// Reflects each item's departure as of its add() call.
  Time latest_departure() const noexcept { return latest_departure_; }

  /// Per-dimension capacity (1.0 in the paper's model; > 1 under resource
  /// augmentation).
  double capacity() const noexcept { return capacity_; }

  /// True when `size` can be added without exceeding the bin's capacity in
  /// any dimension -- the shared fits.hpp predicate, via RVec, so the
  /// decision is bit-identical to the SIMD open-bin table's.
  bool fits(const RVec& size) const {
    return load_.fits_with_capacity(size, capacity_);
  }

  /// Adds an item. Precondition: fits(item.size).
  void add(const Item& item);

  /// Removes a departing item (matched by id); returns true if the bin
  /// became empty. Throws std::logic_error when the item is not active in
  /// this bin -- the check survives NDEBUG builds, where the former
  /// assert-only guard would have erased end() and corrupted the load.
  bool remove(const Item& item);

  // --- Checkpointing (src/persist/) -----------------------------------

  /// Serializes the mutable bin state (load bits, active items, incremental
  /// bookkeeping). The identity fields (id, dim, opened_at, capacity) are
  /// NOT included -- the Dispatcher checkpoint records them -- so restore()
  /// pairs this blob with an identically constructed shell. The load vector
  /// is written as raw IEEE-754 bits: recomputing it by re-adding active
  /// items would reorder the floating-point sums and could flip a future
  /// fits() decision by one ulp. Active items are written in insertion
  /// order, byte-identical to the pre-pool vector format.
  void save_state(serial::Writer& out) const;

  /// Restores state written by save_state() into a freshly constructed
  /// BinState of the same id/dim/opened_at/capacity.
  void restore_state(serial::Reader& in);

 private:
  BinId id_;
  Time opened_at_;
  double capacity_;
  RVec load_;
  UsagePool* pool_;
  /// Singly linked active list through pool_, insertion order; tail_
  /// makes append O(1).
  std::uint32_t head_ = UsagePool::kNil;
  std::uint32_t tail_ = UsagePool::kNil;
  std::size_t num_active_ = 0;
  std::size_t total_packed_ = 0;  // items ever packed (serialized)
  Time latest_departure_ = 0.0;
};

}  // namespace dvbp
