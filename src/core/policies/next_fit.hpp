// Next Fit: keeps a single designated *current* bin; when an arriving item
// does not fit the current bin, the current bin is released (it stays open
// until its items depart but never receives another item) and a fresh bin
// becomes current (paper Sec. 2.2). CR: at least 2*mu*d (Thm 6), at most
// 2*mu*d + 1 (Thm 4).
//
// Implements Policy directly (not AnyFitPolicy): its list L contains only
// the current bin, so it may open a new bin even when a released bin fits.
#pragma once

#include <vector>

#include "core/policies/policy.hpp"

namespace dvbp {

class NextFitPolicy final : public Policy {
 public:
  std::string_view name() const noexcept override { return "NextFit"; }

  BinId select_bin(Time now, const Item& item,
                   const OpenBinTable& open_bins) override;
  void on_open(Time now, BinId bin, const Item& first) override;
  void on_depart(Time now, BinId bin, const Item& item, bool closed) override;
  void reset() override;
  void save_state(serial::Writer& out) const override;
  void restore_state(serial::Reader& in) override;

  BinId current_bin() const noexcept { return current_; }

  /// One release: the current bin stopped receiving items at `time`
  /// because arriving item `trigger` did not fit. This is the raw material
  /// of the Theorem 4 analysis (P_i = current period, Q_i = released
  /// period, with ||s(R'_i) + s(r_i)||_inf > 1 at the release).
  struct Release {
    BinId bin = kNoBin;
    Time time = 0.0;
    ItemId trigger = kNoItem;

    friend bool operator==(const Release&, const Release&) = default;
  };

  /// Chronological releases. Bins whose items all departed while they were
  /// still current (closed, never released) are absent.
  const std::vector<Release>& release_log() const noexcept {
    return releases_;
  }

 private:
  BinId current_ = kNoBin;
  std::vector<Release> releases_;
};

}  // namespace dvbp
