// Allocator-churn soup for the slab/pool memory layout (ISSUE 8): the
// UsagePool free-list, the StableVector bin/item slabs, and the SoA
// OpenBinTable all recycle storage aggressively, so this suite hammers
// arrive/depart/evict/replace interleavings and audits the dispatcher
// with PackingInvariantChecker throughout. It is part of the default
// test set and therefore runs under the ASan/UBSan `sanitizers` CI job,
// where a stale node index, a use-after-release, or an out-of-bounds
// lane write dies loudly instead of corrupting a later placement.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/bin_state.hpp"
#include "core/dispatcher.hpp"
#include "core/invariants.hpp"
#include "core/open_bin_table.hpp"
#include "core/policies/best_fit.hpp"
#include "core/policies/registry.hpp"
#include "core/pool.hpp"
#include "core/serial.hpp"
#include "stats/rng.hpp"

namespace dvbp {
namespace {

RVec random_size(Xoshiro256pp& rng, std::size_t d) {
  RVec s(d);
  for (std::size_t j = 0; j < d; ++j) s[j] = rng.uniform(0.05, 0.6);
  return s;
}

// Long arrive/depart soup: jobs churn through bins far more times than
// the pool's initial slab holds, so the free-list recycles nodes across
// many generations of bins.
TEST(PoolChurn, ArriveDepartSoupKeepsInvariants) {
  for (std::size_t d : {2u, 9u}) {  // straddles RVec::kInlineDim = 8
    PolicyPtr policy = make_policy("BestFit", 99);
    Dispatcher dispatcher(d, *policy);
    PackingInvariantChecker checker;
    Xoshiro256pp rng(0xC0FFEE + d);

    std::vector<JobId> live;
    Time now = 0.0;
    for (int step = 0; step < 4000; ++step) {
      now += rng.uniform(0.0, 0.1);
      const bool do_depart =
          !live.empty() && (live.size() > 64 || rng.uniform() < 0.45);
      if (do_depart) {
        const std::size_t pick =
            static_cast<std::size_t>(rng.uniform_int(0, live.size() - 1));
        dispatcher.depart(now, live[pick]);
        live[pick] = live.back();
        live.pop_back();
      } else {
        live.push_back(dispatcher.arrive(now, random_size(rng, d)).job);
      }
      if (step % 250 == 0) {
        const auto violation = checker.check(dispatcher);
        ASSERT_FALSE(violation.has_value()) << *violation << " at step "
                                            << step << " d=" << d;
      }
    }
    while (!live.empty()) {
      now += 0.01;
      dispatcher.depart(now, live.back());
      live.pop_back();
    }
    EXPECT_EQ(dispatcher.open_bins(), 0u);
    const auto violation = checker.check(dispatcher);
    EXPECT_FALSE(violation.has_value()) << *violation;
  }
}

// Evict/replace mixed in: eviction releases a pool node without ending
// the job; replace() re-allocates one (possibly the same recycled slot)
// in a different bin. Interleaved with departures this is the worst-case
// free-list churn pattern.
TEST(PoolChurn, EvictReplaceRecyclesNodesSafely) {
  const std::size_t d = 5;
  PolicyPtr policy = make_policy("FirstFit", 7);
  Dispatcher dispatcher(d, *policy);
  PackingInvariantChecker checker;
  Xoshiro256pp rng(0xBADF00D);

  std::vector<JobId> placed;   // live, not in limbo
  std::vector<JobId> limbo;    // evicted, awaiting replace
  Time now = 0.0;
  for (int step = 0; step < 3000; ++step) {
    now += rng.uniform(0.0, 0.05);
    const double roll = rng.uniform();
    if (!limbo.empty() && (limbo.size() > 16 || roll < 0.3)) {
      dispatcher.replace(now, limbo.back());
      placed.push_back(limbo.back());
      limbo.pop_back();
    } else if (!placed.empty() && roll < 0.5) {
      const std::size_t pick =
          static_cast<std::size_t>(rng.uniform_int(0, placed.size() - 1));
      dispatcher.evict(now, placed[pick]);
      limbo.push_back(placed[pick]);
      placed[pick] = placed.back();
      placed.pop_back();
    } else if (!placed.empty() && (placed.size() > 48 || roll < 0.75)) {
      const std::size_t pick =
          static_cast<std::size_t>(rng.uniform_int(0, placed.size() - 1));
      dispatcher.depart(now, placed[pick]);
      placed[pick] = placed.back();
      placed.pop_back();
    } else {
      placed.push_back(dispatcher.arrive(now, random_size(rng, d)).job);
    }
    if (step % 200 == 0) {
      const auto violation = checker.check(dispatcher);
      ASSERT_FALSE(violation.has_value()) << *violation << " at step "
                                          << step;
    }
  }
  // Drain limbo first (jobs must be placed to depart), then everything.
  for (JobId job : limbo) {
    now += 0.01;
    dispatcher.replace(now, job);
    placed.push_back(job);
  }
  for (JobId job : placed) {
    now += 0.01;
    dispatcher.depart(now, job);
  }
  EXPECT_EQ(dispatcher.open_bins(), 0u);
  EXPECT_EQ(dispatcher.jobs_active(), 0u);
  const auto violation = checker.check(dispatcher);
  EXPECT_FALSE(violation.has_value()) << *violation;
}

// StableVector's contract: references handed out survive arbitrarily many
// later emplace_backs (no reallocation-and-copy, unlike std::vector).
TEST(PoolChurn, StableVectorReferencesSurviveGrowth) {
  StableVector<Item> items;
  const Item& first = items.emplace_back(0, 0.0, 1.0, RVec{0.5});
  const Item* first_addr = &first;
  // Grow well past several chunk boundaries.
  for (ItemId id = 1; id < 1000; ++id) {
    items.emplace_back(id, 0.0, 1.0, RVec{0.25});
  }
  EXPECT_EQ(&items[0], first_addr);
  EXPECT_EQ(first.id, 0u);
  EXPECT_EQ(items.size(), 1000u);
  // Iteration visits every element in insertion order.
  ItemId expect = 0;
  for (const Item& item : items) EXPECT_EQ(item.id, expect++);
}

// The dispatcher's items() slab specifically: an Item reference taken at
// admission must stay valid (same address, same bits) after thousands of
// further arrivals force many new chunks.
TEST(PoolChurn, DispatcherItemReferencesAreStable) {
  PolicyPtr policy = make_policy("NextFit", 1);
  Dispatcher dispatcher(2, *policy);
  const auto first = dispatcher.arrive(0.0, RVec{0.3, 0.2});
  const Item* addr = &dispatcher.items()[first.job];
  for (int i = 1; i < 2000; ++i) {
    dispatcher.arrive(0.001 * i, RVec{0.01, 0.01});
  }
  EXPECT_EQ(&dispatcher.items()[first.job], addr);
  EXPECT_DOUBLE_EQ(addr->size[0], 0.3);
}

// UsagePool free-list unit semantics: release makes the slot available
// for the next alloc (LIFO), and the slab only grows when the free list
// is empty.
TEST(PoolChurn, UsagePoolRecyclesReleasedNodes) {
  UsagePool pool;
  const std::uint32_t a = pool.alloc(1, 10.0);
  const std::uint32_t b = pool.alloc(2, 20.0);
  EXPECT_NE(a, b);
  EXPECT_EQ(pool[a].item, 1u);
  EXPECT_DOUBLE_EQ(pool[b].departure, 20.0);
  const std::size_t slab = pool.slab_size();
  pool.release(a);
  const std::uint32_t c = pool.alloc(3, 30.0);
  EXPECT_EQ(c, a);  // LIFO reuse of the freed slot
  EXPECT_EQ(pool.slab_size(), slab);
  EXPECT_EQ(pool[c].item, 3u);
}

// erase_slot compacts the id and latest-departure columns together with
// the load lanes. Bin b's slot holds id 100+b, latest departure 10+b and
// load 0.01*b + 0.001*j in dimension j, so after erasing the first, a
// middle and the last slot every survivor must still carry its own
// bin's values in all three. 70 slots straddle the 64-slot scan chunk.
TEST(PoolChurn, EraseSlotKeepsIdDepartureAndLanesAligned) {
  constexpr std::size_t kDim = 3;
  const auto load_of = [](BinId b, std::size_t j) {
    return 0.01 * b + 0.001 * static_cast<double>(j);
  };
  OpenBinTable table(kDim);
  std::vector<BinId> bins;  // expected bin of each slot
  for (BinId b = 0; b < 70; ++b) {
    const double load[kDim] = {load_of(b, 0), load_of(b, 1), load_of(b, 2)};
    table.push_back_raw(100 + b, load, 10.0 + b);
    bins.push_back(b);
  }
  const auto expect_aligned = [&] {
    ASSERT_EQ(table.size(), bins.size());
    for (std::size_t slot = 0; slot < bins.size(); ++slot) {
      const BinId b = bins[slot];
      EXPECT_EQ(table.id(slot), 100 + b) << "slot " << slot;
      EXPECT_EQ(table.latest_departure(slot), 10.0 + b) << "slot " << slot;
      RVec load(kDim);
      for (std::size_t j = 0; j < kDim; ++j) {
        EXPECT_EQ(table.lane(j)[slot], load_of(b, j)) << "slot " << slot;
        load[j] = load_of(b, j);
      }
      // load_measure is measure_load() computed from the lanes.
      for (const LoadMeasure m :
           {LoadMeasure::kLinf, LoadMeasure::kL1, LoadMeasure::kL2}) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(
                      table.load_measure(slot, static_cast<int>(m))),
                  std::bit_cast<std::uint64_t>(measure_load(load, m)))
            << "slot " << slot << " " << load_measure_name(m);
      }
    }
  };
  expect_aligned();
  for (const std::string where : {"first", "middle", "last"}) {
    SCOPED_TRACE("erase the " + where + " slot");
    const std::size_t slot = where == "first"    ? 0
                             : where == "middle" ? bins.size() / 2
                                                 : bins.size() - 1;
    table.erase_slot(slot);
    bins.erase(bins.begin() + static_cast<std::ptrdiff_t>(slot));
    expect_aligned();
  }
  // The vacated tail is poisoned: nothing past size() can fit.
  const double nothing[kDim] = {0.0, 0.0, 0.0};
  EXPECT_EQ(table.find_last_fit(nothing), table.size() - 1);

  // A freshly opened bin starts at zero load and departure 0 until the
  // owner records its first item.
  table.push_back_zero(7);
  const std::size_t fresh = table.size() - 1;
  EXPECT_EQ(table.id(fresh), 7u);
  EXPECT_EQ(table.latest_departure(fresh), 0.0);
  for (std::size_t j = 0; j < kDim; ++j) EXPECT_EQ(table.lane(j)[fresh], 0.0);
}

// Checkpoint restore rebuilds the table with push_back_raw: after a
// churned run, the restored dispatcher's table matches the original slot
// for slot in id, latest departure and exact load bits.
TEST(PoolChurn, RestoredTableMatchesSlotForSlot) {
  constexpr std::size_t kDim = 4;
  PolicyPtr policy = make_policy("MinExtensionFit", 3);
  Dispatcher a(kDim, *policy);
  Xoshiro256pp rng(0x5EED);
  std::vector<JobId> live;
  Time now = 0.0;
  for (int step = 0; step < 1500; ++step) {
    now += rng.uniform(0.0, 0.1);
    if (!live.empty() && (live.size() > 40 || rng.uniform() < 0.45)) {
      const std::size_t pick =
          static_cast<std::size_t>(rng.uniform_int(0, live.size() - 1));
      a.depart(now, live[pick]);
      live[pick] = live.back();
      live.pop_back();
    } else {
      live.push_back(
          a.arrive(now, random_size(rng, kDim), now + rng.uniform(1, 5)).job);
    }
  }
  ASSERT_GT(a.open_bins(), 2u);

  serial::Writer out;
  a.save_state(out);
  PolicyPtr other = make_policy("MinExtensionFit", 3);
  Dispatcher b(kDim, *other);
  serial::Reader in(out.bytes());
  b.restore_state(in);

  const OpenBinTable& ta = a.open_bin_table();
  const OpenBinTable& tb = b.open_bin_table();
  ASSERT_EQ(tb.size(), ta.size());
  for (std::size_t slot = 0; slot < ta.size(); ++slot) {
    EXPECT_EQ(tb.id(slot), ta.id(slot));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(tb.latest_departure(slot)),
              std::bit_cast<std::uint64_t>(ta.latest_departure(slot)));
    for (std::size_t j = 0; j < kDim; ++j) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(tb.lane(j)[slot]),
                std::bit_cast<std::uint64_t>(ta.lane(j)[slot]));
    }
  }
  for (const Dispatcher* d : {&a, &b}) {
    PackingInvariantChecker checker;
    const auto violation = checker.check(*d);
    EXPECT_FALSE(violation.has_value()) << *violation;
  }
}

// The fits kernel the runtime dispatch picked. The no-simd-parity CI job
// builds with -DDVBP_DISABLE_SIMD=ON; this is what proves its golden
// hashes ran on the scalar kernel rather than on a SIMD one.
TEST(PoolChurn, ActiveKernelMatchesTheBuild) {
#if defined(DVBP_DISABLE_SIMD)
  EXPECT_STREQ(OpenBinTable::active_kernel(), "scalar");
#elif defined(__x86_64__)
  EXPECT_STRNE(OpenBinTable::active_kernel(), "scalar");
#else
  GTEST_SKIP() << "no SIMD kernel on this architecture";
#endif
}

}  // namespace
}  // namespace dvbp
