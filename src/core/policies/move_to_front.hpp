// Move To Front: bins are kept in most-recent-usage order; the item goes to
// the first bin in that order that can hold it, which is then moved to the
// front (paper Sec. 2.2). CR: at most (2mu+1)d+1 (Thm 2), at least
// max{2mu, (mu+1)d} (Thm 8).
//
// Bookkeeping is O(1) per list operation: the MRU order lives in a pooled
// IndexList (core/pool.hpp) whose nodes are recycled through a free list
// as bins open and close -- no per-bin heap allocation -- and pos_ maps a
// BinId to its node handle (unlink/relink instead of find+erase). stamp_
// records a monotone move-to-front clock per bin, so choose() picks the
// fitting bin with the largest stamp -- identical to walking the MRU list
// front to back, but O(fitting bins) instead of O(open bins).
//
// The policy optionally records its *leader history* -- which bin is at the
// front of the list at each moment -- which the analysis of Thm 2
// decomposes usage periods with (leading vs non-leading intervals). The
// bench for E9 uses this instrumentation.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/policies/any_fit.hpp"
#include "core/pool.hpp"

namespace dvbp {

class MoveToFrontPolicy final : public AnyFitPolicy {
 public:
  explicit MoveToFrontPolicy(bool record_leader_history = false)
      : record_history_(record_leader_history) {}

  std::string_view name() const noexcept override { return "MoveToFront"; }

  void on_open(Time now, BinId bin, const Item& first) override;
  void on_pack(Time now, BinId bin, const Item& item) override;
  void on_depart(Time now, BinId bin, const Item& item, bool closed) override;
  void reset() override;
  void save_state(serial::Writer& out) const override;
  void restore_state(serial::Reader& in) override;

  /// Snapshot of the MRU order (front = leader = most recently used).
  std::vector<BinId> mru_order() const;

  /// One leader transition. `cause` is the item whose packing made the new
  /// bin the leader, or kNoItem when the previous leader closed (its last
  /// item departed) and the next MRU bin inherited leadership. This is the
  /// raw material of the Theorem 2 analysis: a bin's non-leading interval
  /// Q_{i,j} starts at a transition away from bin i with cause r_{i,j}.
  struct LeaderChange {
    Time time = 0.0;
    BinId leader = kNoBin;  ///< kNoBin: no open bin at all
    ItemId cause = kNoItem;

    friend bool operator==(const LeaderChange&, const LeaderChange&) =
        default;
  };

  /// Leader transitions, recorded when enabled. Same-instant flips are
  /// collapsed to the final leader (zero-length leading intervals carry no
  /// cost).
  const std::vector<LeaderChange>& leader_history() const noexcept {
    return history_;
  }

 protected:
  BinId choose(Time now, const Item& item,
               std::span<const std::uint32_t> fitting,
               const OpenBinTable& open_bins) override;

 private:
  void move_to_front(Time now, BinId bin, ItemId cause);
  void record(Time now, ItemId cause);

  IndexList mru_;
  /// BinId -> node handle in mru_ (valid while stamp_[bin] != 0). Node
  /// handles survive move_to_front, so entries never need rewriting on
  /// reorder.
  std::vector<std::uint32_t> pos_;
  /// BinId -> value of clock_ when the bin last reached the front; 0 for
  /// bins not (or no longer) in the list. Descending stamp == MRU order.
  std::vector<std::uint64_t> stamp_;
  std::uint64_t clock_ = 0;
  bool record_history_;
  std::vector<LeaderChange> history_;
};

}  // namespace dvbp
