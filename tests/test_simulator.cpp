// Tests for the simulation engine: costs, bin lifecycle, audits, timeline,
// engine-enforced feasibility, and the parameterized audit sweep that runs
// every policy over randomized instances with full offline validation.
#include "core/simulator.hpp"

#include <gtest/gtest.h>

#include "core/policies/registry.hpp"
#include "gen/uniform.hpp"

namespace dvbp {
namespace {

TEST(Simulator, SingleItemCost) {
  Instance inst(1);
  inst.add(1.0, 4.0, RVec{0.5});
  const auto result = simulate(inst, "FirstFit", {.audit = true});
  EXPECT_DOUBLE_EQ(result.cost, 3.0);
  EXPECT_EQ(result.bins_opened, 1u);
  EXPECT_EQ(result.max_open_bins, 1u);
  const BinRecord& bin = result.packing.bins().front();
  EXPECT_DOUBLE_EQ(bin.opened, 1.0);
  EXPECT_DOUBLE_EQ(bin.closed, 4.0);
}

TEST(Simulator, EmptyInstance) {
  Instance inst(1);
  const auto result = simulate(inst, "FirstFit", {.audit = true});
  EXPECT_DOUBLE_EQ(result.cost, 0.0);
  EXPECT_EQ(result.bins_opened, 0u);
}

TEST(Simulator, RejectsInvalidPolicyName) {
  Instance inst(1);
  inst.add(0, 1, RVec{0.5});
  EXPECT_THROW(simulate(inst, "NopeFit"), std::invalid_argument);
}

TEST(Simulator, CostEqualsSumOfBinSpans) {
  Instance inst(2);
  inst.add(0.0, 3.0, RVec{0.7, 0.2});
  inst.add(1.0, 5.0, RVec{0.7, 0.2});  // can't share with item 0
  inst.add(2.0, 4.0, RVec{0.2, 0.2});
  const auto result = simulate(inst, "FirstFit", {.audit = true});
  double spans = 0.0;
  for (const auto& b : result.packing.bins()) spans += b.usage_time();
  EXPECT_DOUBLE_EQ(result.cost, spans);
}

TEST(Simulator, BinClosesWhenLastItemDeparts) {
  Instance inst(1);
  inst.add(0.0, 2.0, RVec{0.4});
  inst.add(1.0, 5.0, RVec{0.4});  // same bin under FirstFit
  const auto result = simulate(inst, "FirstFit", {.audit = true});
  EXPECT_EQ(result.bins_opened, 1u);
  EXPECT_DOUBLE_EQ(result.packing.bins()[0].closed, 5.0);
  EXPECT_DOUBLE_EQ(result.cost, 5.0);
}

TEST(Simulator, ClosedBinNeverReused) {
  // Item 1 arrives exactly when item 0 departs: half-open semantics say the
  // bin is already closed, so a new bin must be opened.
  Instance inst(1);
  inst.add(0.0, 1.0, RVec{0.4});
  inst.add(1.0, 2.0, RVec{0.4});
  const auto result = simulate(inst, "FirstFit", {.audit = true});
  EXPECT_EQ(result.bins_opened, 2u);
  EXPECT_EQ(result.packing.bin_of(1), 1u);
}

TEST(Simulator, BackToBackCostCountsBothBins) {
  Instance inst(1);
  inst.add(0.0, 1.0, RVec{0.4});
  inst.add(1.0, 2.0, RVec{0.4});
  const auto result = simulate(inst, "FirstFit");
  EXPECT_DOUBLE_EQ(result.cost, 2.0);
}

TEST(Simulator, TimelineRecordsOpenCounts) {
  Instance inst(1);
  inst.add(0.0, 4.0, RVec{0.9});
  inst.add(1.0, 3.0, RVec{0.9});
  const auto result =
      simulate(inst, "FirstFit", {.audit = true, .record_timeline = true});
  ASSERT_FALSE(result.timeline.empty());
  // t=0: 1 open; t=1: 2; t=3: 1; t=4: 0.
  std::vector<std::pair<Time, std::size_t>> expected{
      {0.0, 1}, {1.0, 2}, {3.0, 1}, {4.0, 0}};
  EXPECT_EQ(result.timeline, expected);
}

TEST(Simulator, MaxOpenBins) {
  Instance inst(1);
  for (int i = 0; i < 6; ++i) {
    inst.add(static_cast<Time>(i), static_cast<Time>(i) + 2.0, RVec{0.9});
  }
  const auto result = simulate(inst, "FirstFit", {.audit = true});
  EXPECT_EQ(result.max_open_bins, 2u);
  EXPECT_EQ(result.bins_opened, 6u);
}

// ---- Engine-enforced feasibility ---------------------------------------

class EvilUnknownBinPolicy final : public Policy {
 public:
  std::string_view name() const noexcept override { return "EvilUnknown"; }
  BinId select_bin(Time, const Item&, const OpenBinTable&) override {
    return 12345;  // never a valid open bin
  }
};

class EvilOverstuffPolicy final : public Policy {
 public:
  std::string_view name() const noexcept override { return "EvilOverstuff"; }
  BinId select_bin(Time, const Item&,
                   const OpenBinTable& open_bins) override {
    // Always pick the first open bin, whether or not the item fits.
    return open_bins.empty() ? kNoBin : open_bins.id(0);
  }
};

TEST(Simulator, RejectsUnknownBinSelection) {
  Instance inst(1);
  inst.add(0.0, 1.0, RVec{0.5});
  EvilUnknownBinPolicy evil;
  EXPECT_THROW(simulate(inst, evil), PolicyViolation);
}

TEST(Simulator, RejectsOverfullSelection) {
  Instance inst(1);
  inst.add(0.0, 2.0, RVec{0.7});
  inst.add(0.5, 2.0, RVec{0.7});
  EvilOverstuffPolicy evil;
  EXPECT_THROW(simulate(inst, evil), PolicyViolation);
}

// ---- Non-clairvoyance ---------------------------------------------------

TEST(Simulator, NonClairvoyantPoliciesIgnoreDepartureTimes) {
  // All arrivals happen before any departure, so a non-clairvoyant policy
  // must make identical placements regardless of the departure times.
  Instance a(2);
  Instance b(2);
  for (int i = 0; i < 30; ++i) {
    const RVec size{0.1 + 0.02 * (i % 9), 0.1 + 0.03 * (i % 7)};
    a.add(0.0, 10.0 + i, size);
    b.add(0.0, 500.0 - 7.0 * i, size);  // very different future
  }
  for (const std::string& name : standard_policy_names()) {
    const auto ra = simulate(a, name);
    const auto rb = simulate(b, name);
    EXPECT_EQ(ra.packing.assignment(), rb.packing.assignment()) << name;
  }
}

TEST(Simulator, ClairvoyantPolicyReadsDepartureTimes) {
  // Two open bins with different remaining departures; MinExtensionFit must
  // choose based on the probe's own departure time.
  Instance inst(1);
  inst.add(0.0, 10.0, RVec{0.6});  // B0 lives long
  inst.add(0.0, 3.0, RVec{0.6});   // B1 departs soon
  inst.add(1.0, 9.5, RVec{0.3});   // long probe: extends B1 a lot, B0 none
  const auto result = simulate(inst, "MinExtensionFit");
  EXPECT_EQ(result.packing.bin_of(2), 0u);

  Instance inst2(1);
  inst2.add(0.0, 10.0, RVec{0.6});
  inst2.add(0.0, 3.0, RVec{0.6});
  inst2.add(1.0, 2.5, RVec{0.3});  // short probe: extends neither; prefers
                                   // the more-loaded... loads tie, so the
                                   // zero-extension set includes both; the
                                   // tie-break keeps B0 (equal loads).
  const auto result2 = simulate(inst2, "MinExtensionFit");
  EXPECT_EQ(result2.packing.bin_of(2), 0u);
}

// ---- Audit sweep over every policy and random workloads ------------------

struct AuditCase {
  const char* policy;
  std::size_t d;
  std::uint64_t seed;
};

class PolicyAuditTest : public ::testing::TestWithParam<AuditCase> {};

TEST_P(PolicyAuditTest, RandomInstancePassesFullAudit) {
  const AuditCase& c = GetParam();
  gen::UniformParams params;
  params.d = c.d;
  params.n = 200;
  params.mu = 8;
  params.span = 60;
  params.bin_size = 20;
  const Instance inst = gen::uniform_instance(params, c.seed);
  // audit=true replays the packing offline and checks every invariant.
  const auto result = simulate(inst, c.policy, {.audit = true});
  EXPECT_GT(result.cost, 0.0);
  EXPECT_GE(result.bins_opened, result.max_open_bins);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyAuditTest,
    ::testing::Values(
        AuditCase{"MoveToFront", 1, 1}, AuditCase{"MoveToFront", 3, 2},
        AuditCase{"FirstFit", 1, 3}, AuditCase{"FirstFit", 3, 4},
        AuditCase{"BestFit", 1, 5}, AuditCase{"BestFit", 3, 6},
        AuditCase{"NextFit", 1, 7}, AuditCase{"NextFit", 3, 8},
        AuditCase{"LastFit", 1, 9}, AuditCase{"LastFit", 3, 10},
        AuditCase{"RandomFit", 1, 11}, AuditCase{"RandomFit", 3, 12},
        AuditCase{"WorstFit", 1, 13}, AuditCase{"WorstFit", 3, 14},
        AuditCase{"BestFit:L1", 2, 15}, AuditCase{"BestFit:L2", 2, 16},
        AuditCase{"WorstFit:L1", 2, 17}, AuditCase{"WorstFit:L2", 2, 18},
        AuditCase{"FirstFit", 12, 21}, AuditCase{"MoveToFront", 12, 22},
        AuditCase{"MinExtensionFit", 2, 19},
        AuditCase{"NoisyMinExtensionFit:0.3", 2, 20}),
    [](const ::testing::TestParamInfo<AuditCase>& info) {
      std::string name = info.param.policy;
      for (char& ch : name) {
        if (ch == ':' || ch == '.') ch = '_';
      }
      return name + "_d" + std::to_string(info.param.d) + "_s" +
             std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace dvbp
