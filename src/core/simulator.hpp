// simulate(): the online algorithm run over a complete Instance.
//
// simulate() feeds the event stream of an Instance through a Dispatcher
// (core/dispatcher.hpp, Algorithm 1 of the paper): on each arrival the
// policy picks an open bin (or asks for a new one); on each departure the
// item is removed and empty bins close permanently. The Dispatcher owns all
// feasibility enforcement -- a policy returning a non-fitting bin is a
// programming error and raises PolicyViolation.
#pragma once

#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/event.hpp"
#include "core/instance.hpp"
#include "core/packing.hpp"
#include "core/policies/policy.hpp"
#include "core/types.hpp"

namespace dvbp::obs {
class Observer;  // obs/observer.hpp
}  // namespace dvbp::obs

namespace dvbp {

/// Raised when a policy selects a bin that cannot hold the item, or names a
/// bin that is not open.
class PolicyViolation : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

struct SimOptions {
  /// Re-validate the finished packing offline (Packing::validate) and throw
  /// std::logic_error on inconsistency. O(bins * events); for tests.
  /// Incompatible with bin_capacity != 1 (the auditor checks unit bins).
  bool audit = false;
  /// Record (time, #open bins) after every event batch at a timestamp.
  bool record_timeline = false;
  /// Per-dimension capacity of the online algorithm's bins. 1.0 is the
  /// paper's model; 1 + beta implements the resource-augmentation analysis
  /// of the dynamic bin packing literature (cf. [6]): the online algorithm
  /// gets slightly larger bins than the optimum it is compared against.
  /// Must be >= 1.
  double bin_capacity = 1.0;
  /// Optional instrumentation hooks (borrowed; see obs/observer.hpp):
  /// metric updates and/or one JSONL trace record per allocator event.
  /// Null (the default) costs one branch per event.
  obs::Observer* observer = nullptr;
};

struct SimResult {
  Packing packing;
  std::size_t bins_opened = 0;    ///< total bins ever opened (m in the paper)
  std::size_t max_open_bins = 0;  ///< peak simultaneously-open bins
  double cost = 0.0;              ///< == packing.cost(); eq. (1)
  /// Piecewise-constant open-bin count: value from each timestamp until the
  /// next. Populated when SimOptions::record_timeline.
  std::vector<std::pair<Time, std::size_t>> timeline;
};

/// Runs `policy` (after policy.reset()) over `inst`. Throws
/// std::invalid_argument when the instance fails validation or its item
/// ids are not in arrival order (see Instance::sort_by_arrival), and
/// PolicyViolation on illegal policy decisions.
SimResult simulate(const Instance& inst, Policy& policy, SimOptions opts = {});

/// Replays a caller-supplied event stream instead of the instance's own
/// (replay tooling, and tests of truncated or reordered streams). The
/// stream must be consistent and complete: time never goes backwards,
/// arrivals come in ItemId order, every departure follows its arrival
/// exactly once, and every opened bin drains. Violations raise
/// std::logic_error (std::invalid_argument for an out-of-order arrival, a
/// time regression, an item outside the instance or a repeated departure)
/// -- checked unconditionally, in NDEBUG builds too.
SimResult simulate_events(const Instance& inst, std::span<const Event> events,
                          Policy& policy, SimOptions opts = {});

/// Convenience: construct the policy by registry name, run it, return the
/// result.
SimResult simulate(const Instance& inst, std::string_view policy_name,
                   SimOptions opts = {}, std::uint64_t policy_seed = 0xD1CEu);

}  // namespace dvbp
