// Last Fit: place the item in the most recently *opened* bin that can hold
// it (paper Sec. 7). Contrast with Move To Front, which uses the most
// recently *used* bin.
#pragma once

#include "core/policies/policy.hpp"

namespace dvbp {

class LastFitPolicy final : public Policy {
 public:
  std::string_view name() const noexcept override { return "LastFit"; }

  /// Whole decision in one vectorized scan: latest fitting slot.
  BinId select_bin(Time, const Item& item,
                   const OpenBinTable& open_bins) override {
    const std::size_t slot = open_bins.find_last_fit(item.size.data());
    return slot == OpenBinTable::npos ? kNoBin : open_bins.id(slot);
  }
};

}  // namespace dvbp
