// Policy: the online decision rule of Algorithm 1 in the paper.
//
// The Dispatcher calls select_bin() on every arrival with the open-bin
// table (core/open_bin_table.hpp) and packs the item into the returned
// bin, or a fresh bin when the policy returns kNoBin. Lifecycle callbacks
// let stateful policies (Move To Front's MRU list, Next Fit's current
// bin) track the system.
//
// Non-clairvoyance: the Item handed to select_bin carries its departure time
// (the simulator needs it), but non-clairvoyant policies must not read it.
// Policies declare themselves via is_clairvoyant(); the test suite verifies
// that non-clairvoyant policies are invariant to departure-time perturbation
// of future items.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "core/item.hpp"
#include "core/open_bin_table.hpp"
#include "core/serial.hpp"
#include "core/types.hpp"

namespace dvbp {

class Policy {
 public:
  virtual ~Policy() = default;

  /// Stable identifier, e.g. "FirstFit".
  virtual std::string_view name() const noexcept = 0;

  /// Whether the policy reads departure times of arriving items.
  virtual bool is_clairvoyant() const noexcept { return false; }

  /// Decide where to pack `item` arriving at `now`. `open_bins` holds
  /// every open bin in opening order (slot 0 is the oldest): its id, load
  /// lanes and latest departure. Return an open bin's id, or kNoBin to
  /// open a new bin. The Dispatcher verifies the returned bin fits.
  virtual BinId select_bin(Time now, const Item& item,
                           const OpenBinTable& open_bins) = 0;

  /// A new bin `bin` was opened at `now` for `first` (after select_bin
  /// returned kNoBin).
  virtual void on_open(Time now, BinId bin, const Item& first);

  /// `item` was packed into existing bin `bin` (after select_bin chose it).
  virtual void on_pack(Time now, BinId bin, const Item& item);

  /// `item` departed from `bin`; `closed` is true when the bin emptied and
  /// closed permanently.
  virtual void on_depart(Time now, BinId bin, const Item& item, bool closed);

  /// Reset all internal state; called before each simulation run.
  virtual void reset();

  // --- Checkpointing (src/persist/) -----------------------------------
  //
  // save_state() serializes every bit of internal decision state that a
  // future select_bin() can depend on; restore_state() rebuilds it into a
  // freshly reset() instance of the same policy (and configuration).
  // Contract: after save on A and restore into B, A and B must make
  // identical decisions on any identical future event stream -- this is
  // what makes checkpoint-based crash recovery bit-exact (pinned by
  // tests/test_persist_recovery.cpp). The default implementations carry no
  // state (correct for the policies that decide from the open-bin table
  // alone: FirstFit, BestFit, WorstFit, LastFit, MinExtensionFit).

  /// Appends the policy's internal state to `out`.
  virtual void save_state(serial::Writer& out) const;

  /// Restores state written by save_state() on an identically configured
  /// instance. Throws serial::SerialError on malformed input.
  virtual void restore_state(serial::Reader& in);
};

using PolicyPtr = std::unique_ptr<Policy>;

}  // namespace dvbp
