// OpenBinTable: structure-of-arrays mirror of the open bins' load vectors.
//
// BinState keeps each bin's load as one RVec (array-of-structures): good
// for serialization and single-bin updates, but the per-arrival scan
// touches every open bin and pays a pointer chase through BinView::load
// plus a cache line per bin. This table stores the SAME doubles
// transposed: dimension j of all open bins is one contiguous lane,
// padded to the SIMD width. The Any Fit feasibility scan
// `load + s(r) <= cap + eps` then tests 4 bins per AVX2 instruction
// (2 with SSE2), and Best/Worst Fit measures are computed from the lanes
// with exactly the same scalar operation order as measure_load() on an
// RVec.
//
// Bit-exactness contract (pinned by tests/golden_packings.inc and the
// -DDVBP_DISABLE_SIMD CI job): every lane entry holds bit-identical
// values to the owning BinState's load_ -- both are updated with the
// same IEEE-754 additions and subtractions in the same order -- and
// every kernel (AVX2, SSE2, scalar) evaluates the fits.hpp predicate
// `load[j] + add[j] <= threshold` with one add and one ordered,
// non-signaling <= per dimension against the same precomputed threshold.
// The only latitude a kernel has is how many bins it tests per
// instruction; the per-bin decision is identical, so SIMD and scalar
// builds produce the same packing, bit for bit. Padding slots are
// poisoned with +inf so vector tests can run over them without admitting
// a phantom bin (+inf + x compares false under <=).
//
// Slots are in opening order and match the Dispatcher's views_ array
// position for position; erase_slot compacts exactly like the
// Dispatcher's close_slot.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/fits.hpp"
#include "core/types.hpp"

namespace dvbp {

class OpenBinTable {
 public:
  /// Slots per widest SIMD register; lanes are padded to a multiple.
  static constexpr std::size_t kSimdWidth = 4;  // AVX2: 4 doubles

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  explicit OpenBinTable(std::size_t dim, double capacity = 1.0)
      : dim_(dim),
        capacity_(capacity),
        threshold_(fits_threshold(capacity)) {}

  std::size_t dim() const noexcept { return dim_; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  double capacity() const noexcept { return capacity_; }
  /// The exact double every feasibility comparison tests against
  /// (fits_threshold(capacity)).
  double threshold() const noexcept { return threshold_; }

  /// Appends a zero-load slot (a freshly opened bin).
  void push_back_zero();

  /// Appends a slot with the given load bits (checkpoint restore). Copies
  /// raw values -- no arithmetic -- so restored lanes match load_ exactly.
  void push_back_raw(const double* load);

  /// load[slot] += add, with the same per-dimension IEEE adds (in
  /// dimension order) as RVec::operator+= on the owning bin.
  void add(std::size_t slot, const double* add);

  /// load[slot] -= sub, then clamp each dimension to >= 0 -- mirrors the
  /// departure path RVec::operator-= followed by clamp_nonnegative().
  void sub_clamped(std::size_t slot, const double* sub);

  /// Removes `slot`, shifting later slots down one (opening order is
  /// preserved, matching close_slot). One memmove per lane.
  void erase_slot(std::size_t slot);

  /// Drops every slot.
  void clear() noexcept;

  /// Scalar reference predicate for one slot.
  bool fits(std::size_t slot, const double* add) const;

  /// Earliest slot (opening order) where `add` fits, or npos -- First
  /// Fit's whole decision in one call.
  std::size_t find_first_fit(const double* add) const;

  /// Latest fitting slot, or npos (Last Fit).
  std::size_t find_last_fit(const double* add) const;

  /// Appends every fitting slot to `out_slots` in opening order (generic
  /// Any Fit path; `out_slots` is NOT cleared).
  void collect_fitting(const double* add,
                       std::vector<std::uint32_t>& out_slots) const;

  /// Best Fit: among fitting slots, the one with the maximal load
  /// measure, ties toward the earliest slot; npos when none fit.
  /// `measure` matches LoadMeasure's underlying values (0 = Linf,
  /// 1 = L1, 2 = L2) and is computed exactly as measure_load() computes
  /// it from the bin's RVec.
  std::size_t find_best_fit(const double* add, int measure) const;

  /// Worst Fit: minimal measure among fitting slots, ties toward the
  /// earliest slot; npos when none fit.
  std::size_t find_worst_fit(const double* add, int measure) const;

  /// Sum of every slot's L1 load -- the "total usage" signal the sharded
  /// service's least-usage router balances on. Summed per slot, inner
  /// loop over dimensions, reproducing `for bin: total += load.l1()` on
  /// the AoS state bit for bit (loads are nonnegative, so l1's abs is the
  /// identity); routing decisions are unchanged by the SoA rewrite.
  double total_load() const noexcept;

  /// Lane pointer for dimension j: entry [slot] equals the owning bin's
  /// load()[j], bit for bit. Valid for size() slots.
  const double* lane(std::size_t j) const noexcept {
    return lanes_.data() + j * stride_;
  }

  /// Name of the kernel the runtime dispatch selected ("avx2", "sse2",
  /// or "scalar") -- diagnostics and the no-SIMD CI assertion.
  static const char* active_kernel() noexcept;

 private:
  void ensure_capacity(std::size_t want_slots);
  double measure_slot(std::size_t slot, int measure) const;
  double* mutable_lane(std::size_t j) noexcept {
    return lanes_.data() + j * stride_;
  }

  std::size_t dim_;
  double capacity_;
  double threshold_;
  std::size_t size_ = 0;       // open bins (slots)
  std::size_t stride_ = 0;     // padded slots per lane, multiple of width
  std::vector<double> lanes_;  // dim_ lanes of stride_ doubles each
};

}  // namespace dvbp
