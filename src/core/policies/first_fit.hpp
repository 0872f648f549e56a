// First Fit: place the item in the earliest-opened bin that can hold it
// (paper Sec. 2.2). CR bounds: lower (mu+1)d (Thm 5), upper (mu+2)d+1
// (Thm 3).
#pragma once

#include "core/policies/policy.hpp"

namespace dvbp {

class FirstFitPolicy final : public Policy {
 public:
  std::string_view name() const noexcept override { return "FirstFit"; }

  /// Whole decision in one vectorized scan: earliest fitting slot.
  BinId select_bin(Time, const Item& item,
                   const OpenBinTable& open_bins) override {
    const std::size_t slot = open_bins.find_first_fit(item.size.data());
    return slot == OpenBinTable::npos ? kNoBin : open_bins.id(slot);
  }
};

}  // namespace dvbp
