#include "core/dispatcher.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/simulator.hpp"  // PolicyViolation
#include "obs/observer.hpp"

namespace dvbp {

Dispatcher::Dispatcher(std::size_t dim, Policy& policy, double bin_capacity,
                       obs::Observer* observer)
    : dim_(dim), policy_(policy), obs_(observer), table_(dim, bin_capacity) {
  if (dim_ == 0) {
    throw std::invalid_argument("Dispatcher: dim must be >= 1");
  }
  if (bin_capacity < 1.0) {
    throw std::invalid_argument("Dispatcher: bin_capacity must be >= 1");
  }
  policy_.reset();
}

void Dispatcher::check_time(Time now) {
  if (started_ && now < now_ - kTimeEps) {
    throw std::invalid_argument("Dispatcher: time went backwards");
  }
  started_ = true;
  now_ = std::max(now_, now);
}

Dispatcher::Admission Dispatcher::arrive(Time now, RVec size,
                                         Time expected_departure,
                                         TenantId tenant) {
  check_time(now);
  if (size.dim() != dim_) {
    throw std::invalid_argument("Dispatcher::arrive: dimension mismatch");
  }
  if (!size.is_nonnegative() || !size.fits_in_capacity(1.0)) {
    throw std::invalid_argument(
        "Dispatcher::arrive: size outside [0,1]^d");
  }
  if (!(expected_departure > now)) {
    throw std::invalid_argument(
        "Dispatcher::arrive: expected departure must exceed arrival");
  }

  const JobId job = static_cast<JobId>(items_.size());
  items_.emplace_back(job, now, expected_departure, std::move(size), tenant);
  assignment_.push_back(kNoBin);
  last_bin_.push_back(kNoBin);
  evicted_.push_back(0);
  const Item& item = items_.back();
  ++active_jobs_;
  if (usage_hook_ != nullptr) {
    usage_hook_->on_arrive(tenant, now, item.size, table_.size());
  }

  if (obs_ != nullptr) {
    obs_->on_arrival(now, job,
                     std::span<const double>(item.size.begin(),
                                             item.size.dim()),
                     table_.size());
  }
  BinId chosen;
  {
    obs::ScopedTimer timer(obs_ != nullptr ? obs_->decision_latency()
                                           : nullptr);
    chosen = policy_.select_bin(now, item, table_);
  }
  std::size_t rejections = 0;
  if (obs_ != nullptr && obs_->wants_rejections()) {
    for (std::size_t slot = 0; slot < table_.size(); ++slot) {
      if (!table_.fits(slot, item.size.data())) {
        ++rejections;
        obs_->on_reject(now, job, table_.id(slot));
      }
    }
  }

  const bool opened = chosen == kNoBin;
  if (opened) {
    chosen = open_bin(now, job);
  } else {
    pack_into(now, chosen, job);
  }
  if (obs_ != nullptr) obs_->on_place(now, job, chosen, opened, rejections);
  return Admission{job, chosen, opened};
}

void Dispatcher::depart(Time now, JobId job) {
  check_time(now);
  if (job >= items_.size()) {
    throw std::invalid_argument("Dispatcher::depart: unknown job");
  }
  if (assignment_[job] == kNoBin) {
    throw std::invalid_argument(
        evicted_[job] != 0
            ? "Dispatcher::depart: job is evicted; replace() it first"
            : "Dispatcher::depart: job already departed");
  }
  // Patch the actual departure so latest-departure bookkeeping is honest.
  items_[job].departure = now;
  if (usage_hook_ != nullptr) {
    usage_hook_->on_depart(items_[job].tenant, now, items_[job].size,
                           table_.size());
  }
  remove_job(now, job, /*evicting=*/false);
  --active_jobs_;
}

Dispatcher::Eviction Dispatcher::evict(Time now, JobId job) {
  check_time(now);
  if (job >= items_.size()) {
    throw std::invalid_argument("Dispatcher::evict: unknown job");
  }
  if (assignment_[job] == kNoBin) {
    throw std::invalid_argument(
        evicted_[job] != 0 ? "Dispatcher::evict: job already evicted"
                           : "Dispatcher::evict: job already departed");
  }
  // The job stays active (no demand change), but the bin count may step.
  if (usage_hook_ != nullptr) {
    usage_hook_->on_advance(now, table_.size());
  }
  // The item's departure field is left alone: the job is still running.
  const Eviction eviction = remove_job(now, job, /*evicting=*/true);
  evicted_[job] = 1;
  ++evicted_jobs_;
  return eviction;
}

BinId Dispatcher::replace(Time now, JobId job, BinId target) {
  check_time(now);
  if (job >= items_.size() || evicted_[job] == 0) {
    throw std::invalid_argument(
        "Dispatcher::replace: job is not in the evicted state");
  }
  if (usage_hook_ != nullptr) {
    usage_hook_->on_advance(now, table_.size());
  }
  const bool opened = target == kNoBin;
  if (opened) {
    target = open_bin(now, job);
  } else {
    pack_into(now, target, job);
  }
  evicted_[job] = 0;
  --evicted_jobs_;
  if (obs_ != nullptr) obs_->on_replace(now, job, target, opened);
  return target;
}

BinId Dispatcher::open_bin(Time now, JobId job) {
  const BinId id = static_cast<BinId>(records_.size());
  records_.push_back(BinRecord{id, now, now, {}});
  active_.emplace_back();
  const std::uint32_t slot = static_cast<std::uint32_t>(table_.size());
  slot_of_.push_back(slot);
  table_.push_back_zero(id);
  if (obs_ != nullptr) obs_->on_open(now, id);
  add_to(id, slot, job);
  policy_.on_open(now, id, items_[job]);
  return id;
}

void Dispatcher::pack_into(Time now, BinId target, JobId job) {
  if (!is_open(target)) {
    throw PolicyViolation("Dispatcher: bin " + std::to_string(target) +
                          " is not open");
  }
  const std::uint32_t slot = slot_of_[target];
  if (!table_.fits(slot, items_[job].size.data())) {
    throw PolicyViolation("Dispatcher: bin " + std::to_string(target) +
                          " cannot hold job " + std::to_string(job));
  }
  add_to(target, slot, job);
  policy_.on_pack(now, target, items_[job]);
}

void Dispatcher::add_to(BinId id, std::uint32_t slot, JobId job) {
  const Item& item = items_[job];
  table_.add(slot, item.size.data());
  table_.set_latest_departure(
      slot, std::max(table_.latest_departure(slot), item.departure));
  usage_pool_.append(active_[id], job, item.departure);
  records_[id].items.push_back(job);
  assignment_[job] = id;
  last_bin_[job] = id;
}

Dispatcher::Eviction Dispatcher::remove_job(Time now, JobId job,
                                            bool evicting) {
  const BinId bin_id = assignment_[job];
  const std::uint32_t slot = slot_of_[bin_id];
  if (slot == kNoSlot) {
    throw std::logic_error("Dispatcher: job's bin is not open");
  }
  const Item& item = items_[job];
  UsagePool::List& active = active_[bin_id];
  const Time gone = usage_pool_.erase(active, job);
  assignment_[job] = kNoBin;
  const bool emptied = active.size == 0;
  if (emptied) {
    records_[bin_id].closed = now;
    closed_usage_ += records_[bin_id].usage_time();
    close_slot(slot);
  } else {
    table_.sub_clamped(slot, item.size.data());
    // Only a departing maximum forces a rescan; departures come in time
    // order, so this fires mostly on ties with the maximum.
    if (gone >= table_.latest_departure(slot)) {
      Time latest = 0.0;
      usage_pool_.for_each(active, [&latest](const UsageNode& n) {
        latest = std::max(latest, n.departure);
      });
      table_.set_latest_departure(slot, latest);
    }
  }
  if (obs_ != nullptr) {
    if (evicting) {
      obs_->on_evict(now, job, bin_id, emptied);
    } else {
      obs_->on_depart(now, job, bin_id, emptied);
    }
    if (emptied) obs_->on_close(now, bin_id, records_[bin_id].opened);
  }
  policy_.on_depart(now, bin_id, item, emptied);
  return Eviction{bin_id, emptied};
}

BinId Dispatcher::last_bin_of(JobId job) const {
  if (job >= last_bin_.size()) {
    throw std::invalid_argument("Dispatcher::last_bin_of: unknown job");
  }
  return last_bin_[job];
}

Packing Dispatcher::packing() const {
  return Packing(last_bin_, records_);
}

/// Removes the bin at `slot` from the table, preserving opening order
/// (First Fit scans it in that order) and reindexing the shifted suffix.
void Dispatcher::close_slot(std::uint32_t slot) {
  slot_of_[table_.id(slot)] = kNoSlot;
  table_.erase_slot(slot);
  for (std::size_t k = slot; k < table_.size(); ++k) {
    slot_of_[table_.id(k)] = static_cast<std::uint32_t>(k);
  }
}

std::vector<JobId> Dispatcher::active_items(BinId id) const {
  std::vector<JobId> jobs;
  if (id >= active_.size()) return jobs;
  jobs.reserve(active_[id].size);
  usage_pool_.for_each(active_[id],
                       [&jobs](const UsageNode& n) { jobs.push_back(n.item); });
  return jobs;
}

BinId Dispatcher::bin_of(JobId job) const {
  if (job >= assignment_.size()) {
    throw std::invalid_argument("Dispatcher::bin_of: unknown job");
  }
  return assignment_[job];
}

namespace {
// In-band version marker for the dispatcher state stream. Streams written
// before tenancy start directly with the u64 dim (a small integer), so a
// leading sentinel no plausible dim can collide with makes the stream
// self-describing: v3 adds the per-item tenant id, older streams load with
// every item anonymous. Bump the low bits on the next layout change.
constexpr std::uint64_t kStateV3Magic = 0xFFFFFFFF00000003ull;
}  // namespace

void Dispatcher::save_state(serial::Writer& out) const {
  out.u64(kStateV3Magic);
  out.u64(dim_);
  out.f64(table_.capacity());
  out.f64(now_);
  out.u8(started_ ? 1 : 0);
  out.u64(active_jobs_);
  out.f64(closed_usage_);

  out.u64(items_.size());
  for (const Item& item : items_) {
    out.f64(item.arrival);
    out.f64(item.departure);
    out.u32(item.tenant);
    for (double c : item.size) out.f64(c);
  }
  for (BinId bin : assignment_) out.u32(bin);
  for (JobId job = 0; job < items_.size(); ++job) {
    out.u32(last_bin_[job]);
    out.u8(evicted_[job]);
  }

  out.u64(records_.size());
  for (const BinRecord& rec : records_) {
    out.f64(rec.opened);
    out.f64(rec.closed);
    out.u64(rec.items.size());
    for (ItemId r : rec.items) out.u32(r);
  }

  // Per open bin, in slot order: id, load bits, active list, packed
  // count, latest departure -- the layout every earlier checkpoint used.
  out.u64(table_.size());
  for (std::size_t slot = 0; slot < table_.size(); ++slot) {
    const BinId id = table_.id(slot);
    out.u64(id);
    out.u64(dim_);
    for (std::size_t j = 0; j < dim_; ++j) out.f64(table_.lane(j)[slot]);
    out.u64(active_[id].size);
    usage_pool_.for_each(active_[id], [&out](const UsageNode& n) {
      out.u32(n.item);
      out.f64(n.departure);
    });
    out.u64(records_[id].items.size());
    out.f64(table_.latest_departure(slot));
  }
}

void Dispatcher::restore_state(serial::Reader& in) {
  if (!items_.empty() || !records_.empty() || started_) {
    throw std::logic_error(
        "Dispatcher::restore_state: dispatcher already has state");
  }
  std::uint64_t first = in.u64();
  const bool has_tenants = first == kStateV3Magic;
  if (has_tenants) first = in.u64();  // v3: the dim follows the marker
  if (first != dim_) {
    throw serial::SerialError(
        "Dispatcher::restore_state: dimension mismatch");
  }
  if (in.f64() != table_.capacity()) {
    throw serial::SerialError(
        "Dispatcher::restore_state: bin_capacity mismatch");
  }
  now_ = in.f64();
  started_ = in.u8() != 0;
  active_jobs_ = in.u64();
  closed_usage_ = in.f64();

  const std::uint64_t num_items = in.u64();
  for (std::uint64_t i = 0; i < num_items; ++i) {
    const Time arrival = in.f64();
    const Time departure = in.f64();
    const TenantId tenant = has_tenants ? in.u32() : kNoTenant;
    RVec size(dim_);
    for (std::size_t j = 0; j < dim_; ++j) size[j] = in.f64();
    items_.emplace_back(static_cast<ItemId>(i), arrival, departure,
                        std::move(size), tenant);
  }
  assignment_.reserve(num_items);
  for (std::uint64_t i = 0; i < num_items; ++i) {
    assignment_.push_back(in.u32());
  }
  last_bin_.reserve(num_items);
  evicted_.reserve(num_items);
  for (std::uint64_t i = 0; i < num_items; ++i) {
    last_bin_.push_back(in.u32());
    evicted_.push_back(in.u8());
    if (evicted_.back() != 0) ++evicted_jobs_;
  }

  const std::uint64_t num_bins = in.u64();
  records_.reserve(num_bins);
  for (std::uint64_t b = 0; b < num_bins; ++b) {
    BinRecord rec;
    rec.id = static_cast<BinId>(b);
    rec.opened = in.f64();
    rec.closed = in.f64();
    const std::uint64_t n = in.u64();
    rec.items.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) rec.items.push_back(in.u32());
    records_.push_back(std::move(rec));
  }
  slot_of_.assign(num_bins, kNoSlot);
  active_.assign(num_bins, UsagePool::List{});

  const std::uint64_t num_open = in.u64();
  if (num_open > num_bins) {
    throw serial::SerialError(
        "Dispatcher::restore_state: more open bins than bins");
  }
  for (std::uint64_t k = 0; k < num_open; ++k) {
    const std::uint64_t idx = in.u64();
    if (idx >= num_bins) {
      throw serial::SerialError(
          "Dispatcher::restore_state: open-bin index out of range");
    }
    if (slot_of_[idx] != kNoSlot) {
      throw serial::SerialError(
          "Dispatcher::restore_state: bin listed open twice");
    }
    if (in.u64() != dim_) {
      throw serial::SerialError(
          "Dispatcher::restore_state: open-bin dimension mismatch");
    }
    RVec load(dim_);
    for (std::size_t j = 0; j < dim_; ++j) load[j] = in.f64();
    const std::uint64_t n = in.u64();
    for (std::uint64_t i = 0; i < n; ++i) {
      const JobId job = in.u32();
      usage_pool_.append(active_[idx], job, in.f64());
    }
    if (in.u64() != records_[idx].items.size()) {
      throw serial::SerialError(
          "Dispatcher::restore_state: packed count disagrees with record");
    }
    slot_of_[idx] = static_cast<std::uint32_t>(k);
    // Raw-bit copy into the table lane: the restored slot is
    // bit-identical to the saved load.
    table_.push_back_raw(static_cast<BinId>(idx), load.data(), in.f64());
  }
}

double Dispatcher::cost_so_far(Time at) const {
  if (at >= now_) {
    // Every closed bin closed at or before now_ <= at, so its clamped
    // contribution is its full usage time: use the running sum and only
    // walk the open bins.
    double total = closed_usage_;
    for (std::size_t slot = 0; slot < table_.size(); ++slot) {
      total += std::max(0.0, at - records_[table_.id(slot)].opened);
    }
    return total;
  }
  // Historical query: clamp closed bins to [opened, min(at, closed)).
  double total = 0.0;
  for (const BinRecord& rec : records_) {
    const bool open = slot_of_[rec.id] != kNoSlot;
    const Time end = open ? at : std::min(at, rec.closed);
    total += std::max(0.0, end - rec.opened);
  }
  return total;
}

}  // namespace dvbp
