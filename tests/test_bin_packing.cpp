// Tests for the open-bin bookkeeping a Dispatcher keeps -- table lanes,
// latest-departure column, active lists, occupancy -- and the Packing
// offline auditor.
#include <gtest/gtest.h>

#include <vector>

#include "core/dispatcher.hpp"
#include "core/packing.hpp"
#include "core/policies/registry.hpp"

namespace dvbp {
namespace {

// First Fit puts every item that fits into bin 0 (slot 0).
TEST(OpenBin, AddAccumulatesLoad) {
  PolicyPtr policy = make_policy("FirstFit");
  Dispatcher d(2, *policy);
  EXPECT_FALSE(d.is_open(0));
  EXPECT_EQ(d.occupancy(0), 0u);
  d.arrive(0.0, RVec{0.5, 0.2}, 2.0);
  d.arrive(0.0, RVec{0.4, 0.4}, 3.0);
  const OpenBinTable& table = d.open_bin_table();
  ASSERT_EQ(table.size(), 1u);
  EXPECT_TRUE(d.is_open(0));
  EXPECT_EQ(d.occupancy(0), 2u);
  EXPECT_EQ(d.active_items(0), (std::vector<JobId>{0, 1}));
  EXPECT_EQ(d.records()[0].items.size(), 2u);
  EXPECT_NEAR(table.lane(0)[0], 0.9, 1e-12);
  EXPECT_NEAR(table.lane(1)[0], 0.6, 1e-12);
  EXPECT_DOUBLE_EQ(table.latest_departure(0), 3.0);
}

TEST(OpenBin, FitsRespectsEveryDimension) {
  PolicyPtr policy = make_policy("FirstFit");
  Dispatcher d(2, *policy);
  d.arrive(0.0, RVec{0.5, 0.2}, 2.0);  // load (0.5, 0.2)
  const OpenBinTable& table = d.open_bin_table();
  const double fits[] = {0.5, 0.8};
  const double too_wide[] = {0.6, 0.1};
  const double too_tall[] = {0.1, 0.9};
  EXPECT_TRUE(table.fits(0, fits));
  EXPECT_FALSE(table.fits(0, too_wide));
  EXPECT_FALSE(table.fits(0, too_tall));
}

TEST(OpenBin, RemoveUpdatesLoadAndClosesWhenEmpty) {
  PolicyPtr policy = make_policy("FirstFit");
  Dispatcher d(2, *policy);
  d.arrive(0.0, RVec{0.5, 0.2}, 2.0);
  d.arrive(0.0, RVec{0.4, 0.4}, 3.0);
  d.depart(1.0, 1);
  const OpenBinTable& table = d.open_bin_table();
  ASSERT_EQ(table.size(), 1u);
  EXPECT_EQ(d.occupancy(0), 1u);
  EXPECT_EQ(d.active_items(0), (std::vector<JobId>{0}));
  EXPECT_NEAR(table.lane(0)[0], 0.5, 1e-12);
  EXPECT_NEAR(table.lane(1)[0], 0.2, 1e-12);
  d.depart(2.0, 0);
  EXPECT_TRUE(table.empty());
  EXPECT_FALSE(d.is_open(0));
  EXPECT_EQ(d.occupancy(0), 0u);
  EXPECT_TRUE(d.active_items(0).empty());
  EXPECT_DOUBLE_EQ(d.records()[0].closed, 2.0);
}

// When the item holding the maximum departure leaves, the column drops to
// the next-latest remaining departure; a non-maximum leaving changes
// nothing.
TEST(OpenBin, LatestDepartureDropsWhenTheMaximumDeparts) {
  PolicyPtr policy = make_policy("FirstFit");
  Dispatcher d(1, *policy);
  d.arrive(0.0, RVec{0.2}, 2.0);
  d.arrive(0.0, RVec{0.2}, 7.0);
  d.arrive(0.0, RVec{0.2}, 4.0);
  const OpenBinTable& table = d.open_bin_table();
  EXPECT_DOUBLE_EQ(table.latest_departure(0), 7.0);
  d.depart(1.0, 0);  // departure 2: not the maximum
  EXPECT_DOUBLE_EQ(table.latest_departure(0), 7.0);
  d.depart(1.5, 1);  // the maximum
  EXPECT_DOUBLE_EQ(table.latest_departure(0), 4.0);
}

// Two items share the maximum: one leaving keeps the column at that
// maximum (the other still holds it); the second leaving drops it.
TEST(OpenBin, LatestDepartureTieKeepsTheMaximum) {
  PolicyPtr policy = make_policy("FirstFit");
  Dispatcher d(1, *policy);
  d.arrive(0.0, RVec{0.2}, 5.0);
  d.arrive(0.0, RVec{0.2}, 5.0);
  d.arrive(0.0, RVec{0.2}, 3.0);
  const OpenBinTable& table = d.open_bin_table();
  d.depart(1.0, 0);
  EXPECT_DOUBLE_EQ(table.latest_departure(0), 5.0);
  d.depart(1.5, 1);
  EXPECT_DOUBLE_EQ(table.latest_departure(0), 3.0);
}

// ---- Packing auditor ----------------------------------------------------

Instance audit_instance() {
  Instance inst(1);
  inst.add(0.0, 2.0, RVec{0.6});
  inst.add(1.0, 3.0, RVec{0.6});
  return inst;
}

TEST(Packing, ValidAccepted) {
  Instance inst = audit_instance();
  // Item 0 -> bin 0, item 1 -> bin 1 (they overlap and don't fit together).
  Packing p({0, 1}, {BinRecord{0, 0.0, 2.0, {0}}, BinRecord{1, 1.0, 3.0, {1}}});
  EXPECT_FALSE(p.validate(inst).has_value());
  EXPECT_DOUBLE_EQ(p.cost(), 4.0);
  EXPECT_EQ(p.open_bins_at(1.5), 2u);
  EXPECT_EQ(p.open_bins_at(2.5), 1u);
}

TEST(Packing, DetectsOverload) {
  Instance inst = audit_instance();
  // Both items in one bin: 1.2 > 1 during [1,2).
  Packing p({0, 0}, {BinRecord{0, 0.0, 3.0, {0, 1}}});
  const auto err = p.validate(inst);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("overload"), std::string::npos);
}

TEST(Packing, DetectsWrongUsagePeriod) {
  Instance inst = audit_instance();
  Packing p({0, 1},
            {BinRecord{0, 0.0, 2.5, {0}}, BinRecord{1, 1.0, 3.0, {1}}});
  ASSERT_TRUE(p.validate(inst).has_value());
}

TEST(Packing, DetectsMissingItem) {
  Instance inst = audit_instance();
  Packing p({0, 0}, {BinRecord{0, 0.0, 2.0, {0}}});
  ASSERT_TRUE(p.validate(inst).has_value());
}

TEST(Packing, DetectsDoublePacking) {
  Instance inst = audit_instance();
  Packing p({0, 1}, {BinRecord{0, 0.0, 2.0, {0, 0}},
                     BinRecord{1, 1.0, 3.0, {1}}});
  ASSERT_TRUE(p.validate(inst).has_value());
}

TEST(Packing, DetectsAssignmentMismatch) {
  Instance inst = audit_instance();
  Packing p({1, 1}, {BinRecord{0, 0.0, 2.0, {0}}, BinRecord{1, 1.0, 3.0, {1}}});
  ASSERT_TRUE(p.validate(inst).has_value());
}

TEST(Packing, DetectsIdleGap) {
  // Items [0,1) and [2,3) in the same bin: the bin would sit idle on [1,2),
  // which the model forbids (a closed bin never reopens).
  Instance inst(1);
  inst.add(0.0, 1.0, RVec{0.5});
  inst.add(2.0, 3.0, RVec{0.5});
  Packing p({0, 0}, {BinRecord{0, 0.0, 3.0, {0, 1}}});
  const auto err = p.validate(inst);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("idle"), std::string::npos);
}

TEST(Packing, GanttCsvListsBinsAndItems) {
  Instance inst = audit_instance();
  Packing p({0, 1},
            {BinRecord{0, 0.0, 2.0, {0}}, BinRecord{1, 1.0, 3.0, {1}}});
  const std::string csv = p.to_gantt_csv(inst);
  EXPECT_NE(csv.find("kind,bin,item,start,end\n"), std::string::npos);
  EXPECT_NE(csv.find("bin,0,,0,2\n"), std::string::npos);
  EXPECT_NE(csv.find("item,0,0,0,2\n"), std::string::npos);
  EXPECT_NE(csv.find("bin,1,,1,3\n"), std::string::npos);
  EXPECT_NE(csv.find("item,1,1,1,3\n"), std::string::npos);
}

TEST(Packing, EmptyPackingOfEmptyInstance) {
  Instance inst(1);
  Packing p;
  EXPECT_FALSE(p.validate(inst).has_value());
  EXPECT_DOUBLE_EQ(p.cost(), 0.0);
  EXPECT_EQ(p.num_bins(), 0u);
}

}  // namespace
}  // namespace dvbp
