// Random Fit: place the item in a fitting bin chosen uniformly at random
// (paper Sec. 7). Deterministic under a fixed seed.
#pragma once

#include "core/policies/any_fit.hpp"
#include "stats/rng.hpp"

namespace dvbp {

class RandomFitPolicy final : public AnyFitPolicy {
 public:
  explicit RandomFitPolicy(std::uint64_t seed = 0xD1CEu)
      : seed_(seed), rng_(seed) {}

  std::string_view name() const noexcept override { return "RandomFit"; }

  /// reset() re-seeds so repeated runs of the same instance are identical.
  void reset() override { rng_ = Xoshiro256pp(seed_); }

  /// Checkpoint the RNG stream position: recovery must continue the random
  /// sequence exactly where the crashed process left off.
  void save_state(serial::Writer& out) const override {
    for (std::uint64_t w : rng_.state()) out.u64(w);
    out.f64(rng_.spare_normal());
    out.u8(rng_.has_spare_normal() ? 1 : 0);
  }

  void restore_state(serial::Reader& in) override {
    std::array<std::uint64_t, 4> s;
    for (std::uint64_t& w : s) w = in.u64();
    const double spare = in.f64();
    const bool has_spare = in.u8() != 0;
    rng_.set_state(s, spare, has_spare);
  }

 protected:
  BinId choose(Time now, const Item& item,
               std::span<const std::uint32_t> fitting,
               const OpenBinTable& open_bins) override;

 private:
  std::uint64_t seed_;
  Xoshiro256pp rng_;
};

}  // namespace dvbp
