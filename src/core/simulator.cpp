#include "core/simulator.hpp"

#include <algorithm>

#include "core/dispatcher.hpp"
#include "core/policies/registry.hpp"
#include "obs/observer.hpp"

namespace dvbp {

namespace {

void check_options(const Instance& inst, const SimOptions& opts) {
  if (auto err = inst.validate()) {
    throw std::invalid_argument("simulate: invalid instance: " + *err);
  }
  if (opts.bin_capacity < 1.0) {
    throw std::invalid_argument("simulate: bin_capacity must be >= 1");
  }
  if (opts.audit && opts.bin_capacity != 1.0) {
    throw std::invalid_argument(
        "simulate: audit assumes unit bins; disable it under augmentation");
  }
}

/// Feeds `events` through a Dispatcher. JobIds are handed out in arrival
/// order, so the stream must present arrivals in ItemId order for the
/// dispatcher's packing to be the instance's packing.
SimResult run(const Instance& inst, std::span<const Event> events,
              Policy& policy, const SimOptions& opts) {
  check_options(inst, opts);
  // An instance with no items may have no dimension yet; nothing is
  // placed, so any dim >= 1 serves.
  Dispatcher dispatcher(std::max<std::size_t>(inst.dim(), 1), policy,
                        opts.bin_capacity, opts.observer);
  SimResult result;
  for (const Event& ev : events) {
    if (ev.item >= inst.size()) {
      throw std::invalid_argument(
          "simulate: event references item " + std::to_string(ev.item) +
          " outside the instance");
    }
    if (ev.kind == EventKind::kDeparture) {
      if (ev.item >= dispatcher.jobs_admitted()) {
        throw std::logic_error(
            "simulate: departure of item " + std::to_string(ev.item) +
            " before its arrival (inconsistent event stream)");
      }
      dispatcher.depart(ev.time, ev.item);
    } else {
      if (ev.item != dispatcher.jobs_admitted()) {
        throw std::invalid_argument(
            "simulate: arrival of item " + std::to_string(ev.item) +
            " where item " + std::to_string(dispatcher.jobs_admitted()) +
            " was next; item ids must follow arrival order "
            "(Instance::sort_by_arrival)");
      }
      const Item& item = inst[ev.item];
      dispatcher.arrive(ev.time, item.size, item.departure, item.tenant);
      result.max_open_bins =
          std::max(result.max_open_bins, dispatcher.open_bins());
    }
    if (opts.record_timeline) {
      auto& timeline = result.timeline;
      if (!timeline.empty() && timeline.back().first == ev.time) {
        timeline.back().second = dispatcher.open_bins();
      } else {
        timeline.emplace_back(ev.time, dispatcher.open_bins());
      }
    }
  }
  if (dispatcher.open_bins() != 0) {
    // An assert here would vanish under NDEBUG and yield a packing whose
    // open bins never receive a close time (understated cost).
    throw std::logic_error(
        "simulate: " + std::to_string(dispatcher.open_bins()) +
        " bin(s) still open after the event stream drained; the stream "
        "is truncated or missing departures");
  }
  if (opts.observer != nullptr && opts.observer->tracer() != nullptr) {
    opts.observer->tracer()->flush();
  }
  result.bins_opened = dispatcher.bins_opened();
  result.packing = dispatcher.packing();
  result.cost = result.packing.cost();
  if (opts.audit) {
    if (auto err = result.packing.validate(inst)) {
      throw std::logic_error("simulate: packing audit failed: " + *err);
    }
  }
  return result;
}

}  // namespace

SimResult simulate(const Instance& inst, Policy& policy, SimOptions opts) {
  return run(inst, build_event_stream(inst), policy, opts);
}

SimResult simulate_events(const Instance& inst, std::span<const Event> events,
                          Policy& policy, SimOptions opts) {
  return run(inst, events, policy, opts);
}

SimResult simulate(const Instance& inst, std::string_view policy_name,
                   SimOptions opts, std::uint64_t policy_seed) {
  PolicyPtr policy = make_policy(policy_name, policy_seed);
  return simulate(inst, *policy, opts);
}

}  // namespace dvbp
