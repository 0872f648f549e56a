#include "core/invariants.hpp"

#include <cmath>
#include <sstream>
#include <unordered_map>

#include "core/bin_state.hpp"
#include "core/dispatcher.hpp"
#include "core/fits.hpp"

namespace dvbp {

namespace {

// Incremental load bookkeeping accumulates rounding error relative to a
// fresh sum; tolerate a little more than kCapacityEps per dimension.
constexpr double kLoadEps = 1e-7;

std::string bin_str(BinId bin) { return "bin " + std::to_string(bin); }

}  // namespace

std::optional<std::string> PackingInvariantChecker::check(
    const Dispatcher& d) {
  // --- Invariant 1: open-bin loads --------------------------------------
  std::unordered_map<JobId, BinId> placed;  // job -> hosting open bin
  std::size_t active_in_bins = 0;
  const OpenBinTable& table = d.open_bin_table();
  for (std::size_t slot = 0; slot < table.size(); ++slot) {
    const BinId id = table.id(slot);
    const BinState* bin = d.open_bin_state(id);
    if (bin == nullptr) {
      return bin_str(id) + " has a table slot but no open state";
    }
    RVec sum(d.dim());
    for (ItemId job : bin->active_items()) {
      if (job >= d.jobs_admitted()) {
        return bin_str(id) + " lists unknown job " +
               std::to_string(job);
      }
      const RVec& size = d.items()[job].size;
      for (std::size_t k = 0; k < d.dim(); ++k) sum[k] += size[k];
      auto [it, fresh] = placed.emplace(job, id);
      if (!fresh) {
        return "job " + std::to_string(job) + " active in " +
               bin_str(it->second) + " and " + bin_str(id);
      }
      ++active_in_bins;
    }
    for (std::size_t k = 0; k < d.dim(); ++k) {
      if (std::abs(sum[k] - bin->load()[k]) > kLoadEps) {
        std::ostringstream os;
        os << bin_str(id) << " load drift in dim " << k << ": stored "
           << bin->load()[k] << " vs recomputed " << sum[k];
        return os.str();
      }
      // The audit's capacity verdict uses the same fits.hpp threshold and
      // predicate as the placement paths (scalar and SIMD), so a load the
      // engine admitted can never be rejected here by one ulp.
      if (!fits_under_threshold(sum[k], fits_threshold(bin->capacity()))) {
        std::ostringstream os;
        os << bin_str(id) << " over capacity in dim " << k << ": "
           << sum[k] << " > " << bin->capacity();
        return os.str();
      }
      // Policies decide from the table lanes: they must equal the load.
      if (table.lane(k)[slot] != bin->load()[k]) {
        return bin_str(id) + " table lane out of sync in dim " +
               std::to_string(k);
      }
    }
    if (table.latest_departure(slot) != bin->latest_departure()) {
      return bin_str(id) + " table latest departure out of sync";
    }
  }

  // --- Invariant 2: every live job placed exactly once ------------------
  if (d.jobs_active() < d.jobs_evicted()) {
    return "more evicted jobs than active jobs";
  }
  if (active_in_bins != d.jobs_active() - d.jobs_evicted()) {
    return "active job count mismatch: bins hold " +
           std::to_string(active_in_bins) + ", dispatcher reports " +
           std::to_string(d.jobs_active() - d.jobs_evicted());
  }
  for (JobId job = 0; job < d.jobs_admitted(); ++job) {
    const BinId bin = d.bin_of(job);
    const auto it = placed.find(job);
    if (bin == kNoBin) {
      if (it != placed.end()) {
        return "job " + std::to_string(job) +
               " is departed/evicted but still active in " +
               bin_str(it->second);
      }
      continue;
    }
    if (it == placed.end() || it->second != bin) {
      return "job " + std::to_string(job) + " assigned to " +
             bin_str(bin) + " but not active there";
    }
    if (d.last_bin_of(job) != bin) {
      return "job " + std::to_string(job) + " last_bin_of disagrees with "
             "its live assignment";
    }
  }

  // --- Invariant 3: closed bins immutable, cost monotone ----------------
  if (closed_seen_.size() < d.bins_opened()) {
    closed_seen_.resize(d.bins_opened());
  }
  for (const BinRecord& rec : d.records()) {
    const bool open = d.open_bin_state(rec.id) != nullptr;
    ClosedBin& seen = closed_seen_[rec.id];
    if (seen.seen) {
      if (open) return bin_str(rec.id) + " reopened after closing";
      if (rec.opened != seen.opened || rec.closed != seen.closed ||
          rec.items.size() != seen.items) {
        return bin_str(rec.id) + " closed record mutated";
      }
      continue;
    }
    if (open) continue;
    if (rec.closed < rec.opened - kTimeEps) {
      return bin_str(rec.id) + " closed before it opened";
    }
    seen = ClosedBin{rec.opened, rec.closed, rec.items.size(), true};
  }
  const double closed_usage = d.closed_usage();
  const double cost = d.cost_so_far(d.last_event_time());
  if (have_watermarks_) {
    if (closed_usage < last_closed_usage_ - kTimeEps) {
      return "closed usage decreased";
    }
    if (cost < last_cost_ - kTimeEps) {
      return "cost_so_far decreased at the event horizon";
    }
  }
  last_closed_usage_ = closed_usage;
  last_cost_ = cost;
  have_watermarks_ = true;
  return std::nullopt;
}

std::optional<std::string> PackingInvariantChecker::check_budget(
    const MigrationBudgetUsage& usage) {
  if (static_cast<double>(usage.migrations) >
      usage.migration_credits + 1e-9) {
    std::ostringstream os;
    os << "migration budget overdrawn: " << usage.migrations
       << " migrations vs " << usage.migration_credits << " credits";
    return os.str();
  }
  if (usage.volume > usage.volume_credits + 1e-9) {
    std::ostringstream os;
    os << "volume budget overdrawn: " << usage.volume << " vs "
       << usage.volume_credits << " credits";
    return os.str();
  }
  return std::nullopt;
}

}  // namespace dvbp
