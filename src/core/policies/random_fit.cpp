#include "core/policies/random_fit.hpp"

namespace dvbp {

BinId RandomFitPolicy::choose(Time, const Item&,
                              std::span<const std::uint32_t> fitting,
                              const OpenBinTable& open_bins) {
  const auto idx = static_cast<std::size_t>(rng_.uniform_int(
      0, static_cast<std::int64_t>(fitting.size()) - 1));
  return open_bins.id(fitting[idx]);
}

}  // namespace dvbp
