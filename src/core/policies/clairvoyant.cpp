#include "core/policies/clairvoyant.hpp"

#include <cmath>
#include <sstream>

namespace dvbp {

BinId MinExtensionFitPolicy::choose(Time, const Item& item,
                                    std::span<const std::uint32_t> fitting,
                                    const OpenBinTable& open_bins) {
  const Time depart = perceived_departure(item);
  const int measure = static_cast<int>(tie_measure_);
  std::uint32_t best = fitting.front();
  double best_ext =
      std::max(0.0, depart - open_bins.latest_departure(best));
  double best_load = open_bins.load_measure(best, measure);
  for (const std::uint32_t slot : fitting.subspan(1)) {
    const double ext =
        std::max(0.0, depart - open_bins.latest_departure(slot));
    const double load = open_bins.load_measure(slot, measure);
    if (ext < best_ext - kTimeEps ||
        (ext <= best_ext + kTimeEps && load > best_load)) {
      best_ext = std::min(best_ext, ext);
      best_load = load;
      best = slot;
    }
  }
  return open_bins.id(best);
}

Time MinExtensionFitPolicy::perceived_departure(const Item& item) {
  return item.departure;
}

NoisyMinExtensionFitPolicy::NoisyMinExtensionFitPolicy(double sigma,
                                                       std::uint64_t seed)
    : sigma_(sigma), seed_(seed), rng_(seed) {
  std::ostringstream os;
  os << "NoisyMinExtensionFit[sigma=" << sigma_ << "]";
  name_ = os.str();
}

void NoisyMinExtensionFitPolicy::reset() {
  MinExtensionFitPolicy::reset();
  rng_ = Xoshiro256pp(seed_);
}

Time NoisyMinExtensionFitPolicy::perceived_departure(const Item& item) {
  const double factor = std::exp(sigma_ * rng_.normal());
  return item.arrival + item.duration() * factor;
}

}  // namespace dvbp
