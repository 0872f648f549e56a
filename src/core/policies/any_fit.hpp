// AnyFitPolicy: base class enforcing the Any Fit property (paper Sec. 2.2):
// a new bin is opened only when the arriving item fits in none of the open
// bins. select_bin() collects the fitting slots with the table's
// vectorized scan, and concrete subclasses implement choose() over that
// non-empty set.
//
// First/Last/Best/Worst Fit are Any Fit too, but each reduces to a single
// table kernel, so they implement Policy directly. Next Fit is not Any
// Fit: it restricts its list L to a single current bin (it may open a new
// bin even though some released bin could hold the item).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/policies/policy.hpp"

namespace dvbp {

class AnyFitPolicy : public Policy {
 public:
  BinId select_bin(Time now, const Item& item,
                   const OpenBinTable& open_bins) final;

 protected:
  /// Pick a bin among the slots `fitting` of `open_bins` (non-empty,
  /// ascending = opening order).
  virtual BinId choose(Time now, const Item& item,
                       std::span<const std::uint32_t> fitting,
                       const OpenBinTable& open_bins) = 0;

 private:
  std::vector<std::uint32_t> fitting_;  // scratch, reused across arrivals
};

}  // namespace dvbp
