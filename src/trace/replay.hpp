// Streaming trace replay: feed a trace's event stream straight into a
// Dispatcher without ever materializing an Instance or an event vector.
//
// The cursor emits events in exactly build_event_stream() order and
// simulate() is itself a loop over a Dispatcher, so a replayed trace
// produces bit-identical cost/bins to materializing the trace and running
// simulate() -- pinned for all ten registered policies in
// tests/test_trace.cpp. Memory stays O(active items), which is
// what lets the harness pack multi-million-event traces.
#pragma once

#include <cstdint>

#include "core/packing.hpp"
#include "core/policies/policy.hpp"
#include "core/types.hpp"
#include "trace/reader.hpp"

namespace dvbp::obs {
class Observer;        // obs/observer.hpp
class MetricRegistry;  // obs/metrics.hpp
}  // namespace dvbp::obs

namespace dvbp::trace {

struct ReplayOptions {
  /// Per-dimension bin capacity (>= 1; 1.0 is the paper's model).
  double bin_capacity = 1.0;
  /// Optional per-event instrumentation (borrowed, nullable).
  obs::Observer* observer = nullptr;
  /// When set, replay registers and maintains the dvbp.trace.* metrics
  /// (events_total, arrivals_total, departures_total, open_bins,
  /// bins_opened_total, replay_cost).
  obs::MetricRegistry* metrics = nullptr;
  /// When set, receives the final placement (for audits/hashing; costs
  /// O(items) memory, so leave null for huge traces).
  Packing* packing_out = nullptr;
};

struct ReplayResult {
  std::uint64_t events = 0;         ///< events replayed (2 * items)
  std::uint64_t items = 0;          ///< items admitted
  std::size_t bins_opened = 0;      ///< total bins ever opened
  std::size_t max_open_bins = 0;    ///< peak simultaneously-open bins
  double cost = 0.0;                ///< eq. (1) usage time; == simulate()
};

/// Replays `reader`'s events through `policy` (after policy.reset()).
/// Departure times are shown to clairvoyant policies at arrival, matching
/// simulate(). Throws PolicyViolation on illegal policy decisions.
ReplayResult replay_trace(const TraceReader& reader, Policy& policy,
                          const ReplayOptions& options = {});

}  // namespace dvbp::trace
