// Allocator-churn soup for the slab/pool memory layout (ISSUE 8): the
// UsagePool free-list, the StableVector item slab, and the SoA
// OpenBinTable all recycle storage aggressively, so this suite hammers
// arrive/depart/evict/replace interleavings and audits the dispatcher
// with PackingInvariantChecker throughout. It is part of the default
// test set and therefore runs under the ASan/UBSan `sanitizers` CI job,
// where a stale node index, a use-after-release, or an out-of-bounds
// lane write dies loudly instead of corrupting a later placement.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

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

// UsagePool lists keep insertion order through erases at the head, the
// middle and the tail, and an append after erasing the tail links to the
// new tail.
TEST(PoolChurn, UsagePoolListKeepsInsertionOrder) {
  UsagePool pool;
  UsagePool::List list;
  for (ItemId item = 0; item < 5; ++item) {
    pool.append(list, item, 10.0 + item);
  }
  const auto items = [&] {
    std::vector<ItemId> out;
    pool.for_each(list, [&out](const UsageNode& n) { out.push_back(n.item); });
    return out;
  };
  EXPECT_DOUBLE_EQ(pool.erase(list, 0), 10.0);  // head
  EXPECT_DOUBLE_EQ(pool.erase(list, 2), 12.0);  // middle
  EXPECT_DOUBLE_EQ(pool.erase(list, 4), 14.0);  // tail
  EXPECT_EQ(items(), (std::vector<ItemId>{1, 3}));
  pool.append(list, 5, 15.0);
  EXPECT_EQ(items(), (std::vector<ItemId>{1, 3, 5}));
  EXPECT_EQ(list.size, 3u);
  pool.erase(list, 1);
  pool.erase(list, 3);
  pool.erase(list, 5);
  EXPECT_EQ(list.size, 0u);
  EXPECT_EQ(list.head, UsagePool::kNil);
  EXPECT_EQ(list.tail, UsagePool::kNil);
}

// A table whose slot k holds bin bins[k]: id 100+b, latest departure
// 10+b and load 0.01*b + 0.001*j in dimension j.
constexpr std::size_t kTableDim = 3;

double load_of(BinId b, std::size_t j) {
  return 0.01 * b + 0.001 * static_cast<double>(j);
}

OpenBinTable make_table(std::size_t slots, std::vector<BinId>& bins) {
  OpenBinTable table(kTableDim);
  for (BinId b = 0; b < slots; ++b) {
    const double load[kTableDim] = {load_of(b, 0), load_of(b, 1),
                                    load_of(b, 2)};
    table.push_back_raw(100 + b, load, 10.0 + b);
    bins.push_back(b);
  }
  return table;
}

// Every slot of `table` still carries its own bin's id, latest departure,
// load bits and load measures.
void expect_aligned(const OpenBinTable& table,
                    const std::vector<BinId>& bins) {
  ASSERT_EQ(table.size(), bins.size());
  for (std::size_t slot = 0; slot < bins.size(); ++slot) {
    const BinId b = bins[slot];
    EXPECT_EQ(table.id(slot), 100 + b) << "slot " << slot;
    EXPECT_EQ(table.latest_departure(slot), 10.0 + b) << "slot " << slot;
    RVec load(kTableDim);
    for (std::size_t j = 0; j < kTableDim; ++j) {
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
}

// erase_slot compacts the id and latest-departure columns together with
// the load lanes: after erasing the first, a middle and the last slot
// every survivor must still carry its own bin's values in all three. 70
// slots straddle the 64-slot scan chunk.
TEST(PoolChurn, EraseSlotKeepsIdDepartureAndLanesAligned) {
  std::vector<BinId> bins;  // expected bin of each slot
  OpenBinTable table = make_table(70, bins);
  expect_aligned(table, bins);
  for (const std::string where : {"first", "middle", "last"}) {
    SCOPED_TRACE("erase the " + where + " slot");
    const std::size_t slot = where == "first"    ? 0
                             : where == "middle" ? bins.size() / 2
                                                 : bins.size() - 1;
    table.erase_slot(slot);
    bins.erase(bins.begin() + static_cast<std::ptrdiff_t>(slot));
    expect_aligned(table, bins);
  }
  // The vacated tail is poisoned: nothing past size() can fit.
  const double nothing[kTableDim] = {0.0, 0.0, 0.0};
  EXPECT_EQ(table.find_last_fit(nothing), table.size() - 1);

  // A freshly opened bin starts at zero load and departure 0 until the
  // owner records its first item.
  table.push_back_zero(7);
  const std::size_t fresh = table.size() - 1;
  EXPECT_EQ(table.id(fresh), 7u);
  EXPECT_EQ(table.latest_departure(fresh), 0.0);
  for (std::size_t j = 0; j < kTableDim; ++j) {
    EXPECT_EQ(table.lane(j)[fresh], 0.0);
  }
}

// Every per-slot accessor rejects slot >= size() -- policies receive the
// table, and an unchecked erase_slot(size()) would memmove a negative
// length -- and a rejected erase leaves every column as it was.
TEST(PoolChurn, OutOfRangeSlotThrowsAndLeavesColumnsIntact) {
  std::vector<BinId> bins;
  OpenBinTable table = make_table(68, bins);
  const std::size_t past = table.size();
  const double nothing[kTableDim] = {0.0, 0.0, 0.0};
  EXPECT_THROW(table.erase_slot(past), std::out_of_range);
  EXPECT_THROW(table.id(past), std::out_of_range);
  EXPECT_THROW(table.latest_departure(past), std::out_of_range);
  EXPECT_THROW(table.fits(past, nothing), std::out_of_range);
  expect_aligned(table, bins);
  EXPECT_EQ(table.find_last_fit(nothing), table.size() - 1);
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

// Drives `d` through a seeded arrive/depart/evict/replace soup and stops
// mid-run, with bins open and jobs in limbo, so every field of the
// checkpoint is populated: load bits, active lists, packed counts,
// latest departures and limbo flags. Replays alternate between a fresh
// bin and the first open bin that fits.
void churn_with_migration(Dispatcher& d, std::uint64_t seed) {
  Xoshiro256pp rng(seed);
  std::vector<JobId> placed;
  std::vector<JobId> limbo;
  Time now = 0.0;
  for (int step = 0; step < 5000; ++step) {
    now += rng.uniform(0.0, 0.05);
    const double roll = rng.uniform();
    if (!limbo.empty() && (limbo.size() > 12 || roll < 0.1)) {
      const JobId job = limbo.back();
      limbo.pop_back();
      BinId target = kNoBin;
      if (roll < 0.05) {
        const OpenBinTable& table = d.open_bin_table();
        const std::size_t slot =
            table.find_first_fit(d.items()[job].size.data());
        if (slot != OpenBinTable::npos) target = table.id(slot);
      }
      d.replace(now, job, target);
      placed.push_back(job);
    } else if (!placed.empty() && roll < 0.2) {
      const std::size_t pick =
          static_cast<std::size_t>(rng.uniform_int(0, placed.size() - 1));
      d.evict(now, placed[pick]);
      limbo.push_back(placed[pick]);
      placed[pick] = placed.back();
      placed.pop_back();
    } else if (!placed.empty() && (placed.size() > 48 || roll < 0.45)) {
      const std::size_t pick =
          static_cast<std::size_t>(rng.uniform_int(0, placed.size() - 1));
      d.depart(now, placed[pick]);
      placed[pick] = placed.back();
      placed.pop_back();
    } else {
      placed.push_back(
          d.arrive(now, random_size(rng, d.dim()), now + rng.uniform(1, 5))
              .job);
    }
  }
}

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001B3ull;
  }
  return h;
}

// Pins the checkpoint format byte for byte: Dispatcher::save_state after a
// churned run with evictions and replays, hashed with FNV-1a. A change to
// the open-bin representation must leave these bytes alone, or existing
// checkpoints stop loading. Restoring the bytes and saving again must
// reproduce them exactly.
TEST(PoolChurn, CheckpointBytesMatchGoldens) {
  struct Golden {
    const char* policy;
    std::size_t dim;
    std::uint64_t hash;
  };
  const Golden goldens[] = {
      {"FirstFit", 2, 0x1A89CE9A04C59D97ull},
      {"FirstFit", 9, 0x247E8AAB658CEE29ull},
      {"MinExtensionFit", 2, 0x086ACCBAF817CA77ull},
      {"MinExtensionFit", 9, 0xB32E266B1B8AB14Dull},
  };
  const bool dump = std::getenv("DVBP_DUMP_GOLDEN") != nullptr;
  for (const Golden& g : goldens) {
    SCOPED_TRACE(std::string(g.policy) + " d=" + std::to_string(g.dim));
    PolicyPtr policy = make_policy(g.policy, 11);
    Dispatcher a(g.dim, *policy);
    churn_with_migration(a, 0xC4EC + g.dim);
    ASSERT_GT(a.open_bins(), 2u);
    ASSERT_GT(a.jobs_evicted(), 0u);
    serial::Writer out;
    a.save_state(out);
    if (dump) {
      std::printf("      {\"%s\", %zu, 0x%016llXull},\n", g.policy, g.dim,
                  static_cast<unsigned long long>(fnv1a(out.bytes())));
      continue;
    }
    EXPECT_EQ(fnv1a(out.bytes()), g.hash);

    PolicyPtr other = make_policy(g.policy, 11);
    Dispatcher b(g.dim, *other);
    serial::Reader in(out.bytes());
    b.restore_state(in);
    serial::Writer again;
    b.save_state(again);
    EXPECT_EQ(again.bytes(), out.bytes());
  }
  if (dump) GTEST_SKIP() << "golden dump mode; comparisons skipped";
}

// Restore checks each open bin's block against what the stream already
// said: a packed count that disagrees with the bin's record, or a bin
// listed open twice, is a SerialError rather than a second copy or a
// doubled active list.
TEST(PoolChurn, RestoreRejectsOpenBinBlocksThatDisagree) {
  constexpr std::size_t kDim = 2;
  PolicyPtr policy = make_policy("FirstFit", 11);
  Dispatcher a(kDim, *policy);
  churn_with_migration(a, 0xC4EC);
  const OpenBinTable& table = a.open_bin_table();
  ASSERT_GT(table.size(), 1u);
  serial::Writer out;
  a.save_state(out);
  const std::vector<std::uint8_t>& saved = out.bytes();
  // The stream ends with the last open bin's block: id, dim, load, count,
  // (item u32, departure f64) per active item, packed count, latest
  // departure -- u64/f64 little endian.
  const std::size_t last_block =
      saved.size() -
      (8 + 8 + 8 * kDim + 8 + 12 * a.occupancy(table.id(table.size() - 1)) +
       8 + 8);
  const auto expect_rejected = [&](std::vector<std::uint8_t> bytes,
                                   const std::string& why) {
    PolicyPtr other = make_policy("FirstFit", 11);
    Dispatcher b(kDim, *other);
    serial::Reader in(bytes);
    try {
      b.restore_state(in);
      ADD_FAILURE() << "restore accepted a checkpoint with " << why;
    } catch (const serial::SerialError& e) {
      EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
          << e.what();
    }
  };
  std::vector<std::uint8_t> bytes = saved;
  bytes[bytes.size() - 16] ^= 1;  // low byte of the packed count
  expect_rejected(bytes, "packed count");
  bytes = saved;
  const BinId first = table.id(0);
  for (int i = 0; i < 8; ++i) {
    bytes[last_block + i] = static_cast<std::uint8_t>(
        static_cast<std::uint64_t>(first) >> (8 * i));
  }
  expect_rejected(bytes, "listed open twice");
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
