#include "core/policies/class_fit.hpp"

#include <cmath>
#include <stdexcept>

namespace dvbp {

BinId ClassRestrictedFitPolicy::select_bin(Time, const Item& item,
                                           const OpenBinTable& open_bins) {
  const std::int64_t cls = item_class(item);
  // Slot order is opening order, so this is First Fit within the class.
  for (std::size_t slot = 0; slot < open_bins.size(); ++slot) {
    const auto it = bin_class_.find(open_bins.id(slot));
    if (it != bin_class_.end() && it->second == cls &&
        open_bins.fits(slot, item.size.data())) {
      return it->first;
    }
  }
  return kNoBin;
}

void ClassRestrictedFitPolicy::on_open(Time, BinId bin, const Item& first) {
  bin_class_[bin] = item_class(first);
}

void ClassRestrictedFitPolicy::on_depart(Time, BinId bin, const Item&,
                                         bool closed) {
  if (closed) bin_class_.erase(bin);
}

void ClassRestrictedFitPolicy::reset() { bin_class_.clear(); }

void ClassRestrictedFitPolicy::save_state(serial::Writer& out) const {
  out.u64(bin_class_.size());
  for (const auto& [bin, cls] : bin_class_) {
    out.u32(bin);
    out.u64(static_cast<std::uint64_t>(cls));
  }
}

void ClassRestrictedFitPolicy::restore_state(serial::Reader& in) {
  reset();
  const std::uint64_t n = in.u64();
  bin_class_.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    const BinId bin = in.u32();
    bin_class_[bin] = static_cast<std::int64_t>(in.u64());
  }
}

HarmonicFitPolicy::HarmonicFitPolicy(std::int64_t max_class)
    : max_class_(max_class) {
  if (max_class_ < 1) {
    throw std::invalid_argument("HarmonicFit: max_class >= 1");
  }
  name_ = "HarmonicFit[" + std::to_string(max_class_) + "]";
}

std::int64_t HarmonicFitPolicy::item_class(const Item& item) const {
  const double s = item.size.linf();
  if (s <= 1.0 / static_cast<double>(max_class_)) return max_class_;
  // Class c satisfies 1/(c+1) < s <= 1/c; floor(1/s) computes it, with the
  // boundary nudged so s = 1/c lands in class c, not c+1.
  const auto cls = static_cast<std::int64_t>(std::floor(1.0 / s + 1e-9));
  return cls < 1 ? 1 : cls;
}

std::int64_t DurationClassFitPolicy::item_class(const Item& item) const {
  // Geometric duration classes: [2^k, 2^{k+1}) share a class.
  return static_cast<std::int64_t>(
      std::floor(std::log2(std::max(item.duration(), 1e-12))));
}

}  // namespace dvbp
