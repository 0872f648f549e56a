#include "core/policies/any_fit.hpp"

namespace dvbp {

BinId AnyFitPolicy::select_bin(Time now, const Item& item,
                               const OpenBinTable& open_bins) {
  fitting_.clear();
  open_bins.collect_fitting(item.size.data(), fitting_);
  if (fitting_.empty()) return kNoBin;
  return choose(now, item, fitting_, open_bins);
}

}  // namespace dvbp
