#include "core/policies/move_to_front.hpp"

#include <cassert>

namespace dvbp {

std::vector<BinId> MoveToFrontPolicy::mru_order() const {
  std::vector<BinId> order;
  order.reserve(mru_.size());
  for (std::uint32_t n = mru_.head(); n != IndexList::kNil;
       n = mru_.next(n)) {
    order.push_back(mru_.value(n));
  }
  return order;
}

BinId MoveToFrontPolicy::choose(Time, const Item&,
                                std::span<const std::uint32_t> fitting,
                                const OpenBinTable& open_bins) {
  // The first fitting bin in MRU order is the fitting bin whose
  // move-to-front stamp is largest (stamps are a monotone clock bumped
  // whenever a bin reaches the front, so MRU order is descending stamp).
  BinId best = kNoBin;
  std::uint64_t best_stamp = 0;
  for (const std::uint32_t slot : fitting) {
    const BinId id = open_bins.id(slot);
    const std::uint64_t s = id < stamp_.size() ? stamp_[id] : 0;
    if (s > best_stamp) {
      best_stamp = s;
      best = id;
    }
  }
  if (best != kNoBin) return best;
  // Every open fitting bin must be tracked in the MRU list.
  assert(false && "MoveToFront: fitting bin missing from MRU list");
  return open_bins.id(fitting.front());
}

void MoveToFrontPolicy::on_open(Time now, BinId bin, const Item& first) {
  if (bin >= pos_.size()) {
    pos_.resize(bin + 1, IndexList::kNil);
    stamp_.resize(bin + 1, 0);
  }
  pos_[bin] = mru_.push_front(bin);
  stamp_[bin] = ++clock_;
  record(now, first.id);
}

void MoveToFrontPolicy::on_pack(Time now, BinId bin, const Item& item) {
  move_to_front(now, bin, item.id);
}

void MoveToFrontPolicy::on_depart(Time now, BinId bin, const Item&,
                                  bool closed) {
  if (!closed) return;
  if (bin >= stamp_.size() || stamp_[bin] == 0) return;
  const bool was_leader = !mru_.empty() && mru_.front() == bin;
  mru_.erase(pos_[bin]);
  pos_[bin] = IndexList::kNil;
  stamp_[bin] = 0;
  if (was_leader) record(now, kNoItem);
}

void MoveToFrontPolicy::reset() {
  mru_.clear();
  pos_.clear();
  stamp_.clear();
  clock_ = 0;
  history_.clear();
}

void MoveToFrontPolicy::move_to_front(Time now, BinId bin, ItemId cause) {
  if (!mru_.empty() && mru_.front() == bin) return;
  assert(bin < stamp_.size() && stamp_[bin] != 0 &&
         "MoveToFront: unknown bin");
  mru_.move_to_front(pos_[bin]);
  stamp_[bin] = ++clock_;
  record(now, cause);
}

void MoveToFrontPolicy::save_state(serial::Writer& out) const {
  out.u64(clock_);
  out.u64(stamp_.size());
  // The list front-to-back with each bin's stamp: the stamps (not just the
  // order) are serialized so choose()'s max-stamp scan sees identical
  // values after restore.
  out.u64(mru_.size());
  for (std::uint32_t n = mru_.head(); n != IndexList::kNil;
       n = mru_.next(n)) {
    const BinId bin = mru_.value(n);
    out.u32(bin);
    out.u64(stamp_[bin]);
  }
  out.u64(history_.size());
  for (const LeaderChange& h : history_) {
    out.f64(h.time);
    out.u32(h.leader);
    out.u32(h.cause);
  }
}

void MoveToFrontPolicy::restore_state(serial::Reader& in) {
  reset();
  clock_ = in.u64();
  const std::uint64_t tracked = in.u64();
  pos_.assign(tracked, IndexList::kNil);
  stamp_.assign(tracked, 0);
  const std::uint64_t n = in.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    const BinId bin = in.u32();
    const std::uint64_t stamp = in.u64();
    if (bin >= tracked) {
      throw serial::SerialError("MoveToFront::restore_state: bin id out of "
                                "range");
    }
    pos_[bin] = mru_.push_back(bin);
    stamp_[bin] = stamp;
  }
  const std::uint64_t hist = in.u64();
  history_.reserve(hist);
  for (std::uint64_t i = 0; i < hist; ++i) {
    LeaderChange h;
    h.time = in.f64();
    h.leader = in.u32();
    h.cause = in.u32();
    history_.push_back(h);
  }
}

void MoveToFrontPolicy::record(Time now, ItemId cause) {
  if (!record_history_) return;
  const BinId leader = mru_.empty() ? kNoBin : mru_.front();
  if (!history_.empty() && history_.back().leader == leader) return;
  if (!history_.empty() && history_.back().time == now) {
    history_.back().leader = leader;
    history_.back().cause = cause;
    // Collapse if the overwrite made it a no-op transition.
    if (history_.size() >= 2 &&
        history_[history_.size() - 2].leader == leader) {
      history_.pop_back();
    }
    return;
  }
  history_.push_back({now, leader, cause});
}

}  // namespace dvbp
