#include "core/open_bin_table.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

#if !defined(DVBP_DISABLE_SIMD) && defined(__x86_64__)
#define DVBP_SIMD_X86 1
#include <immintrin.h>
#endif

namespace dvbp {

namespace {

constexpr double kPoison = std::numeric_limits<double>::infinity();

/// Slots examined per kernel call: one 64-bit fit mask. The scans below
/// early-exit at this granularity, so a First Fit that lands in the first
/// chunk never pays for the rest of the table.
constexpr std::size_t kChunkSlots = 64;

/// All kernels compute the identical predicate: bit s of the result is
/// set iff lanes[j*stride + base + s] + add[j] <= thr for every j < dim.
/// `count` is a multiple of the SIMD width; slots past size() hold
/// +inf and therefore never set their bit.
using FitMaskFn = std::uint64_t (*)(const double* lanes, std::size_t dim,
                                    std::size_t stride, std::size_t base,
                                    std::size_t count, const double* add,
                                    double thr);

// [[maybe_unused]]: in SIMD builds the dispatch below never names this
// function (SSE2 is the x86-64 floor), but it IS the semantics reference
// and the only kernel under -DDVBP_DISABLE_SIMD.
[[maybe_unused]] std::uint64_t fit_mask_scalar(
    const double* lanes, std::size_t dim, std::size_t stride,
    std::size_t base, std::size_t count, const double* add, double thr) {
  std::uint64_t mask = 0;
  for (std::size_t s = 0; s < count; ++s) {
    bool ok = true;
    for (std::size_t j = 0; j < dim; ++j) {
      if (!fits_under_threshold(lanes[j * stride + base + s] + add[j], thr)) {
        ok = false;
        break;
      }
    }
    if (ok) mask |= std::uint64_t{1} << s;
  }
  return mask;
}

#if DVBP_SIMD_X86

// SSE2 is part of the x86-64 baseline; no target attribute needed.
// _mm_cmple_pd is ordered and quiet: NaN/inf lanes compare false,
// matching the scalar `sum <= thr`.
std::uint64_t fit_mask_sse2(const double* lanes, std::size_t dim,
                            std::size_t stride, std::size_t base,
                            std::size_t count, const double* add,
                            double thr) {
  std::uint64_t mask = 0;
  const __m128d thrv = _mm_set1_pd(thr);
  for (std::size_t s = 0; s < count; s += 2) {
    __m128d ok = _mm_castsi128_pd(_mm_set1_epi64x(-1));
    int bits = 0x3;
    for (std::size_t j = 0; j < dim; ++j) {
      const __m128d load = _mm_loadu_pd(lanes + j * stride + base + s);
      const __m128d sum = _mm_add_pd(load, _mm_set1_pd(add[j]));
      ok = _mm_and_pd(ok, _mm_cmple_pd(sum, thrv));
      // Group-level early exit, mirroring the scalar kernel's per-slot
      // dimension break: once no slot in the group can fit, the
      // remaining dimensions cannot set a bit, so skip them. Crucial
      // when one hot dimension rejects almost every bin.
      bits = _mm_movemask_pd(ok);
      if (bits == 0) break;
    }
    mask |= static_cast<std::uint64_t>(bits) << s;
  }
  return mask;
}

// Compiled for AVX2 via the function target attribute so the rest of the
// translation unit keeps the portable baseline; selected at runtime only
// when the CPU reports the feature. _CMP_LE_OQ is the ordered quiet <=,
// the exact vector counterpart of the scalar predicate.
__attribute__((target("avx2"))) std::uint64_t fit_mask_avx2(
    const double* lanes, std::size_t dim, std::size_t stride,
    std::size_t base, std::size_t count, const double* add, double thr) {
  std::uint64_t mask = 0;
  const __m256d thrv = _mm256_set1_pd(thr);
  for (std::size_t s = 0; s < count; s += 4) {
    __m256d ok = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
    int bits = 0xF;
    for (std::size_t j = 0; j < dim; ++j) {
      const __m256d load = _mm256_loadu_pd(lanes + j * stride + base + s);
      const __m256d sum = _mm256_add_pd(load, _mm256_set1_pd(add[j]));
      ok = _mm256_and_pd(ok, _mm256_cmp_pd(sum, thrv, _CMP_LE_OQ));
      // Group-level early exit (see fit_mask_sse2): a dead group cannot
      // come back, so stop testing its remaining dimensions.
      bits = _mm256_movemask_pd(ok);
      if (bits == 0) break;
    }
    mask |= static_cast<std::uint64_t>(bits) << s;
  }
  return mask;
}

#endif  // DVBP_SIMD_X86

struct KernelDispatch {
  FitMaskFn fn;
  const char* name;
};

const KernelDispatch& kernel() {
  static const KernelDispatch d = [] {
#if DVBP_SIMD_X86
    if (__builtin_cpu_supports("avx2")) {
      return KernelDispatch{fit_mask_avx2, "avx2"};
    }
    return KernelDispatch{fit_mask_sse2, "sse2"};
#else
    return KernelDispatch{fit_mask_scalar, "scalar"};
#endif
  }();
  return d;
}

}  // namespace

const char* OpenBinTable::active_kernel() noexcept { return kernel().name; }

void OpenBinTable::throw_bad_slot(std::size_t slot) const {
  throw std::out_of_range("OpenBinTable: slot " + std::to_string(slot) +
                          " >= size " + std::to_string(size_));
}

void OpenBinTable::ensure_capacity(std::size_t want_slots) {
  if (want_slots <= stride_) return;
  std::size_t new_stride = std::max<std::size_t>(stride_ * 2, kChunkSlots);
  while (new_stride < want_slots) new_stride *= 2;
  std::vector<double> grown(dim_ * new_stride, kPoison);
  if (size_ > 0) {  // on the first growth lanes_ is empty and lane(j) null
    for (std::size_t j = 0; j < dim_; ++j) {
      std::memcpy(grown.data() + j * new_stride, lane(j),
                  size_ * sizeof(double));
    }
  }
  lanes_.swap(grown);
  stride_ = new_stride;
}

void OpenBinTable::push_back_zero(BinId id) {
  ensure_capacity(size_ + 1);
  for (std::size_t j = 0; j < dim_; ++j) mutable_lane(j)[size_] = 0.0;
  ids_.push_back(id);
  latest_departure_.push_back(0.0);
  ++size_;
}

void OpenBinTable::push_back_raw(BinId id, const double* load,
                                 Time latest_departure) {
  ensure_capacity(size_ + 1);
  for (std::size_t j = 0; j < dim_; ++j) mutable_lane(j)[size_] = load[j];
  ids_.push_back(id);
  latest_departure_.push_back(latest_departure);
  ++size_;
}

void OpenBinTable::add(std::size_t slot, const double* add) {
  for (std::size_t j = 0; j < dim_; ++j) mutable_lane(j)[slot] += add[j];
}

void OpenBinTable::sub_clamped(std::size_t slot, const double* sub) {
  for (std::size_t j = 0; j < dim_; ++j) {
    double* entry = mutable_lane(j) + slot;
    *entry -= sub[j];
    *entry = std::max(*entry, 0.0);
  }
}

void OpenBinTable::erase_slot(std::size_t slot) {
  check_slot(slot);
  for (std::size_t j = 0; j < dim_; ++j) {
    double* l = mutable_lane(j);
    std::memmove(l + slot, l + slot + 1,
                 (size_ - slot - 1) * sizeof(double));
    l[size_ - 1] = kPoison;
  }
  ids_.erase(ids_.begin() + static_cast<std::ptrdiff_t>(slot));
  latest_departure_.erase(latest_departure_.begin() +
                          static_cast<std::ptrdiff_t>(slot));
  --size_;
}

bool OpenBinTable::fits(std::size_t slot, const double* add) const {
  check_slot(slot);
  for (std::size_t j = 0; j < dim_; ++j) {
    if (!fits_under_threshold(lane(j)[slot] + add[j], threshold_)) {
      return false;
    }
  }
  return true;
}

namespace {
/// Rounds a chunk's slot count up to the SIMD width; the extra slots are
/// poisoned padding (the stride is a multiple of the width), so they can
/// be tested but never fit.
constexpr std::size_t padded_count(std::size_t want) {
  return (want + OpenBinTable::kSimdWidth - 1) &
         ~(OpenBinTable::kSimdWidth - 1);
}
}  // namespace

std::size_t OpenBinTable::find_first_fit(const double* add) const {
  const KernelDispatch& k = kernel();
  for (std::size_t base = 0; base < size_; base += kChunkSlots) {
    const std::size_t want = std::min(kChunkSlots, size_ - base);
    const std::uint64_t m = k.fn(lanes_.data(), dim_, stride_, base,
                                 padded_count(want), add, threshold_);
    if (m != 0) return base + static_cast<std::size_t>(std::countr_zero(m));
  }
  return npos;
}

std::size_t OpenBinTable::find_last_fit(const double* add) const {
  if (size_ == 0) return npos;
  const KernelDispatch& k = kernel();
  std::size_t base = ((size_ - 1) / kChunkSlots) * kChunkSlots;
  for (;;) {
    const std::size_t want = std::min(kChunkSlots, size_ - base);
    const std::uint64_t m = k.fn(lanes_.data(), dim_, stride_, base,
                                 padded_count(want), add, threshold_);
    if (m != 0) {
      return base + (63 - static_cast<std::size_t>(std::countl_zero(m)));
    }
    if (base == 0) return npos;
    base -= kChunkSlots;
  }
}

void OpenBinTable::collect_fitting(
    const double* add, std::vector<std::uint32_t>& out_slots) const {
  const KernelDispatch& k = kernel();
  for (std::size_t base = 0; base < size_; base += kChunkSlots) {
    const std::size_t want = std::min(kChunkSlots, size_ - base);
    std::uint64_t m = k.fn(lanes_.data(), dim_, stride_, base,
                           padded_count(want), add, threshold_);
    while (m != 0) {
      const std::size_t s = static_cast<std::size_t>(std::countr_zero(m));
      out_slots.push_back(static_cast<std::uint32_t>(base + s));
      m &= m - 1;
    }
  }
}

double OpenBinTable::total_load() const noexcept {
  // Slot-outer, dimension-inner: the same two-level summation (per-bin
  // partial sum folded into the running total) as the AoS
  // `total += bin.load().l1()` loop, so the router signal keeps its
  // exact pre-SoA value.
  double total = 0.0;
  for (std::size_t slot = 0; slot < size_; ++slot) {
    double b = 0.0;
    for (std::size_t j = 0; j < dim_; ++j) b += lane(j)[slot];
    total += b;
  }
  return total;
}

double OpenBinTable::load_measure(std::size_t slot, int measure) const {
  // Mirrors measure_load() on an RVec operation for operation: same
  // accumulation order over dimensions, same std::pow calls for L2, so
  // the scalarized load is bit-identical to measure_load()'s and
  // Best/Worst Fit comparisons cannot diverge.
  switch (measure) {
    case 0: {  // LoadMeasure::kLinf -- RVec::linf()
      double m = 0.0;
      for (std::size_t j = 0; j < dim_; ++j) m = std::max(m, lane(j)[slot]);
      return m;
    }
    case 1: {  // LoadMeasure::kL1 -- RVec::l1()
      double s = 0.0;
      for (std::size_t j = 0; j < dim_; ++j) s += lane(j)[slot];
      return s;
    }
    default: {  // LoadMeasure::kL2 -- RVec::lp(2.0)
      double s = 0.0;
      for (std::size_t j = 0; j < dim_; ++j) {
        s += std::pow(lane(j)[slot], 2.0);
      }
      return std::pow(s, 1.0 / 2.0);
    }
  }
}

std::size_t OpenBinTable::find_best_fit(const double* add,
                                        int measure) const {
  const KernelDispatch& k = kernel();
  std::size_t best = npos;
  double best_w = 0.0;
  for (std::size_t base = 0; base < size_; base += kChunkSlots) {
    const std::size_t want = std::min(kChunkSlots, size_ - base);
    std::uint64_t m = k.fn(lanes_.data(), dim_, stride_, base,
                           padded_count(want), add, threshold_);
    while (m != 0) {
      const std::size_t slot =
          base + static_cast<std::size_t>(std::countr_zero(m));
      const double w = load_measure(slot, measure);
      // Strict > over ascending slots: the earliest-opened bin wins ties.
      if (best == npos || w > best_w) {
        best = slot;
        best_w = w;
      }
      m &= m - 1;
    }
  }
  return best;
}

std::size_t OpenBinTable::find_worst_fit(const double* add,
                                         int measure) const {
  const KernelDispatch& k = kernel();
  std::size_t best = npos;
  double best_w = 0.0;
  for (std::size_t base = 0; base < size_; base += kChunkSlots) {
    const std::size_t want = std::min(kChunkSlots, size_ - base);
    std::uint64_t m = k.fn(lanes_.data(), dim_, stride_, base,
                           padded_count(want), add, threshold_);
    while (m != 0) {
      const std::size_t slot =
          base + static_cast<std::size_t>(std::countr_zero(m));
      const double w = load_measure(slot, measure);
      if (best == npos || w < best_w) {
        best = slot;
        best_w = w;
      }
      m &= m - 1;
    }
  }
  return best;
}

}  // namespace dvbp
