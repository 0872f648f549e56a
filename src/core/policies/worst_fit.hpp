// Worst Fit: place the item in the *least* loaded fitting bin (paper
// Sec. 7). Spreads items thin; included as the experimental strawman.
#pragma once

#include <string>

#include "core/policies/best_fit.hpp"

namespace dvbp {

class WorstFitPolicy final : public Policy {
 public:
  explicit WorstFitPolicy(LoadMeasure measure = LoadMeasure::kLinf)
      : measure_(measure),
        name_(std::string("WorstFit[") +
              std::string(load_measure_name(measure)) + "]") {}

  std::string_view name() const noexcept override { return name_; }
  LoadMeasure measure() const noexcept { return measure_; }

  /// Least-loaded fitting bin, ties broken toward the earliest opened
  /// (one table scan, as in BestFitPolicy).
  BinId select_bin(Time, const Item& item,
                   const OpenBinTable& open_bins) override {
    const std::size_t slot = open_bins.find_worst_fit(
        item.size.data(), static_cast<int>(measure_));
    return slot == OpenBinTable::npos ? kNoBin : open_bins.id(slot);
  }

 private:
  LoadMeasure measure_;
  std::string name_;
};

}  // namespace dvbp
