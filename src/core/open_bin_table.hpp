// OpenBinTable: the open bins, in opening order, as one structure of
// arrays -- the only view of them that placement policies read.
//
// Each slot carries the bin's id, the latest departure among its active
// items, and its load vector -- the only copy of the load and latest
// departure the library keeps. The per-arrival scan touches every open
// bin, so the loads are stored transposed: dimension j of all open bins
// is one contiguous lane, padded to the SIMD width. The Any Fit
// feasibility scan `load + s(r) <= cap + eps` then tests 4 bins per AVX2
// instruction (2 with SSE2), and Best/Worst Fit measures are computed
// from the lanes with exactly the same scalar operation order as
// measure_load() on an RVec.
//
// Bit-exactness contract (pinned by tests/golden_packings.inc and the
// -DDVBP_DISABLE_SIMD CI job): every lane entry is the bin's load as the
// sequence of IEEE-754 additions and clamped subtractions of its items'
// sizes, in event order, that RVec arithmetic would produce -- and
// every kernel (AVX2, SSE2, scalar) evaluates the fits.hpp predicate
// `load[j] + add[j] <= threshold` with one add and one ordered,
// non-signaling <= per dimension against the same precomputed threshold.
// The only latitude a kernel has is how many bins it tests per
// instruction; the per-bin decision is identical, so SIMD and scalar
// builds produce the same packing, bit for bit. Padding slots are
// poisoned with +inf so vector tests can run over them without admitting
// a phantom bin (+inf + x compares false under <=).
//
// The Dispatcher owns the table: it appends a slot when a bin opens,
// applies every load and latest-departure change, and erase_slot()
// compacts every column when the bin closes, so slot order stays
// opening order. Every per-slot accessor throws std::out_of_range for a
// slot >= size(): policies receive the table, and a bad slot must not
// read or memmove past the columns.
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

  /// Appends a zero-load slot for bin `id` (a freshly opened bin).
  void push_back_zero(BinId id);

  /// Appends a slot for bin `id` with the given load bits and latest
  /// departure (checkpoint restore). Copies raw values -- no arithmetic
  /// -- so restored lanes match the saved ones exactly.
  void push_back_raw(BinId id, const double* load, Time latest_departure);

  /// load[slot] += add, with the same per-dimension IEEE adds (in
  /// dimension order) as RVec::operator+=.
  void add(std::size_t slot, const double* add);

  /// load[slot] -= sub, then clamp each dimension to >= 0 (RVec's
  /// operator-= followed by clamp_nonnegative()).
  void sub_clamped(std::size_t slot, const double* sub);

  /// Records the bin's latest departure after an add or a removal.
  void set_latest_departure(std::size_t slot, Time t) noexcept {
    latest_departure_[slot] = t;
  }

  /// Removes `slot`, shifting later slots down one in every column
  /// (opening order is preserved). One memmove per lane.
  void erase_slot(std::size_t slot);

  /// Id of the bin in `slot`.
  BinId id(std::size_t slot) const {
    check_slot(slot);
    return ids_[slot];
  }

  /// Latest departure among the active items of the bin in `slot`, each
  /// item counted with the departure it was added with (clairvoyant
  /// policies); 0 for a freshly pushed empty slot.
  Time latest_departure(std::size_t slot) const {
    check_slot(slot);
    return latest_departure_[slot];
  }

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

  /// The load measure of `slot` (`measure` as in find_best_fit),
  /// bit-identical to measure_load() on an RVec of the same load.
  double load_measure(std::size_t slot, int measure) const;

  /// Lane pointer for dimension j: entry [slot] is the load of the bin in
  /// `slot` in dimension j. Valid for size() slots.
  const double* lane(std::size_t j) const noexcept {
    return lanes_.data() + j * stride_;
  }

  /// Name of the kernel the runtime dispatch selected ("avx2", "sse2",
  /// or "scalar") -- diagnostics and the no-SIMD CI assertion.
  static const char* active_kernel() noexcept;

 private:
  void check_slot(std::size_t slot) const {
    if (slot >= size_) throw_bad_slot(slot);
  }
  [[noreturn]] void throw_bad_slot(std::size_t slot) const;
  void ensure_capacity(std::size_t want_slots);
  double* mutable_lane(std::size_t j) noexcept {
    return lanes_.data() + j * stride_;
  }

  std::size_t dim_;
  double capacity_;
  double threshold_;
  std::size_t size_ = 0;       // open bins (slots)
  std::size_t stride_ = 0;     // padded slots per lane, multiple of width
  std::vector<double> lanes_;  // dim_ lanes of stride_ doubles each
  std::vector<BinId> ids_;               // by slot
  std::vector<Time> latest_departure_;   // by slot
};

}  // namespace dvbp
