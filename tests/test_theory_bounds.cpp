// Theory cross-checks: the Table 1 closed forms, and randomized validation
// of the paper's competitive-ratio *upper bounds* (Thms 2, 3, 4) against
// the exact offline optimum -- on every random instance,
//   cost(MTF) <= ((2mu+1)d + 1) OPT,
//   cost(FF)  <= ((mu+2)d + 1) OPT,
//   cost(NF)  <= (2 mu d + 1) OPT.
#include "core/bounds.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/simulator.hpp"
#include "gen/adversarial.hpp"
#include "gen/uniform.hpp"
#include "opt/offline_opt.hpp"

namespace dvbp {
namespace {

TEST(Bounds, ClosedFormsMatchPaper) {
  // Spot values: mu = 10, d = 3.
  EXPECT_DOUBLE_EQ(bounds::any_fit_lower(10, 3), 33.0);      // (mu+1)d
  EXPECT_DOUBLE_EQ(bounds::move_to_front_upper(10, 3), 64.0);  // (2mu+1)d+1
  EXPECT_DOUBLE_EQ(bounds::move_to_front_lower(10, 3), 33.0);  // max{20,33}
  EXPECT_DOUBLE_EQ(bounds::move_to_front_lower(10, 1), 20.0);  // max{20,11}
  EXPECT_DOUBLE_EQ(bounds::first_fit_upper(10, 3), 37.0);      // (mu+2)d+1
  EXPECT_DOUBLE_EQ(bounds::next_fit_upper(10, 3), 61.0);       // 2mud+1
  EXPECT_DOUBLE_EQ(bounds::next_fit_lower(10, 3), 60.0);       // 2mud
  EXPECT_TRUE(std::isinf(bounds::best_fit_upper(10, 3)));
}

TEST(Bounds, OneDimensionalSpecializations) {
  // d = 1 recovers the known 1-D results cited in the paper.
  EXPECT_DOUBLE_EQ(bounds::move_to_front_upper(5, 1), 12.0);  // 2mu+2
  EXPECT_DOUBLE_EQ(bounds::first_fit_upper(5, 1), 8.0);       // mu+3
  EXPECT_DOUBLE_EQ(bounds::next_fit_upper(5, 1), 11.0);       // 2mu+1
  EXPECT_DOUBLE_EQ(bounds::any_fit_lower(5, 1), 6.0);         // mu+1
}

TEST(Bounds, UpperAlwaysAtLeastLower) {
  for (double mu : {1.0, 2.0, 10.0, 100.0}) {
    for (double d : {1.0, 2.0, 5.0}) {
      EXPECT_GE(bounds::move_to_front_upper(mu, d),
                bounds::move_to_front_lower(mu, d));
      EXPECT_GE(bounds::first_fit_upper(mu, d),
                bounds::first_fit_lower(mu, d));
      EXPECT_GE(bounds::next_fit_upper(mu, d), bounds::next_fit_lower(mu, d));
    }
  }
}

TEST(Bounds, Table1HasFiveRows) {
  const auto rows = bounds::table1(10.0, 2.0);
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows[0].algorithm, "AnyFit");
  EXPECT_TRUE(std::isinf(rows[0].upper_dd));
  EXPECT_EQ(rows[4].algorithm, "BestFit");
  EXPECT_TRUE(std::isinf(rows[4].lower_1d));
}

// ---- Randomized upper-bound validation against exact OPT ------------------

struct UbCase {
  std::size_t d;
  std::int64_t mu;
  std::uint64_t seed;
};

class CrUpperBoundTest : public ::testing::TestWithParam<UbCase> {};

TEST_P(CrUpperBoundTest, CostWithinProvedFactorOfExactOpt) {
  const UbCase& c = GetParam();
  gen::UniformParams params;
  params.d = c.d;
  params.n = 40;       // small enough for exact OPT
  params.mu = c.mu;
  params.span = 30;
  params.bin_size = 7;
  const Instance inst = gen::uniform_instance(params, c.seed);

  const auto opt = offline_opt(inst);
  ASSERT_TRUE(opt.exact);
  ASSERT_GT(opt.cost, 0.0);

  // The realized mu of the instance may be below the generator cap.
  const double mu = inst.mu();
  const double d = static_cast<double>(c.d);

  const double mtf = simulate(inst, "MoveToFront").cost;
  EXPECT_LE(mtf, bounds::move_to_front_upper(mu, d) * opt.cost + 1e-6);

  const double ff = simulate(inst, "FirstFit").cost;
  EXPECT_LE(ff, bounds::first_fit_upper(mu, d) * opt.cost + 1e-6);

  const double nf = simulate(inst, "NextFit").cost;
  EXPECT_LE(nf, bounds::next_fit_upper(mu, d) * opt.cost + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Random, CrUpperBoundTest,
    ::testing::Values(UbCase{1, 3, 1}, UbCase{1, 3, 2}, UbCase{1, 8, 3},
                      UbCase{1, 8, 4}, UbCase{2, 3, 5}, UbCase{2, 3, 6},
                      UbCase{2, 8, 7}, UbCase{2, 8, 8}, UbCase{3, 5, 9},
                      UbCase{3, 5, 10}, UbCase{5, 4, 11}, UbCase{5, 4, 12}),
    [](const ::testing::TestParamInfo<UbCase>& info) {
      // Built with += : GCC 12 reports a -Wrestrict false positive on
      // "literal" + std::to_string(...).
      std::string name = "d";
      name += std::to_string(info.param.d);
      name += "_mu";
      name += std::to_string(info.param.mu);
      name += "_s";
      name += std::to_string(info.param.seed);
      return name;
    });

// The adversarial instances must also respect the upper bounds -- a lower
// bound construction cannot exceed what the theorems allow. The Thm 8
// instance is small enough for exact OPT.
TEST(Bounds, MtfWorstCaseStillWithinTheorem2) {
  const auto adv = gen::mtf_lower_bound(4, 6.0);
  const auto opt = offline_opt(adv.instance);
  ASSERT_TRUE(opt.exact);
  const double mtf = simulate(adv.instance, "MoveToFront").cost;
  const double mu = adv.instance.mu();
  EXPECT_LE(mtf, bounds::move_to_front_upper(mu, 1.0) * opt.cost + 1e-6);
  // And the construction must actually exceed a trivial 1x ratio by a lot.
  EXPECT_GT(mtf, 3.0 * opt.cost);
}

}  // namespace
}  // namespace dvbp
