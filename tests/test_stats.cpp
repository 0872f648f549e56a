// Tests for the statistics substrate: RNG determinism and distributional
// sanity, Welford accumulators (including parallel merge), and quantiles.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "stats/descriptive.hpp"
#include "stats/rng.hpp"

namespace dvbp {
namespace {

TEST(SplitMix64, KnownSequenceIsDeterministic) {
  SplitMix64 a(123);
  SplitMix64 b(123);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.next(), b.next());
  SplitMix64 c(124);
  EXPECT_NE(SplitMix64(123).next(), c.next());
}

TEST(Xoshiro, DeterministicUnderSeed) {
  Xoshiro256pp a(7);
  Xoshiro256pp b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro, UniformInUnitInterval) {
  Xoshiro256pp rng(11);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Xoshiro, UniformIntCoversRangeInclusively) {
  Xoshiro256pp rng(13);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all of {3..7} hit
}

TEST(Xoshiro, UniformIntDegenerateRange) {
  Xoshiro256pp rng(13);
  EXPECT_EQ(rng.uniform_int(5, 5), 5);
  EXPECT_EQ(rng.uniform_int(5, 4), 5);  // clamps to lo
}

TEST(Xoshiro, UniformIntUnbiasedMean) {
  Xoshiro256pp rng(17);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += static_cast<double>(rng.uniform_int(1, 100));
  }
  EXPECT_NEAR(sum / n, 50.5, 1.0);
}

TEST(Xoshiro, NormalMomentsLookGaussian) {
  Xoshiro256pp rng(19);
  double sum = 0.0;
  double sumsq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sumsq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sumsq / n, 1.0, 0.05);
  EXPECT_NEAR(rng.normal(10.0, 0.0), 10.0, 1e-12);
}

TEST(Xoshiro, TrialStreamsAreIndependentAndStable) {
  auto a1 = Xoshiro256pp::for_trial(42, 1);
  auto a1_again = Xoshiro256pp::for_trial(42, 1);
  auto a2 = Xoshiro256pp::for_trial(42, 2);
  EXPECT_EQ(a1(), a1_again());
  EXPECT_NE(Xoshiro256pp::for_trial(42, 1)(), a2());
}

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.sum(), 40.0, 1e-12);
}

TEST(RunningStats, EmptyAndSingle) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.stderr_mean(), 0.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  Xoshiro256pp rng(23);
  RunningStats whole;
  RunningStats left;
  RunningStats right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(5.0, 2.0);
    whole.add(x);
    (i < 400 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-10);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a;
  a.add(1.0);
  a.add(2.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.5);
}

TEST(RunningStats, ConfidenceIntervalShrinks) {
  RunningStats small;
  RunningStats large;
  Xoshiro256pp rng(29);
  for (int i = 0; i < 10; ++i) small.add(rng.normal());
  for (int i = 0; i < 1000; ++i) large.add(rng.normal());
  EXPECT_GT(small.ci_halfwidth(), large.ci_halfwidth());
}

TEST(Descriptive, MeanStddevQuantiles) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(mean(xs), 3.0);
  EXPECT_NEAR(sample_stddev(xs), std::sqrt(2.5), 1e-12);
  EXPECT_DOUBLE_EQ(median(xs), 3.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.25), 2.0);
  EXPECT_DOUBLE_EQ(quantile({1, 2}, 0.5), 1.5);  // interpolates
}

TEST(Descriptive, EdgeCases) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(sample_stddev({5.0}), 0.0);
  EXPECT_THROW(quantile({}, 0.5), std::invalid_argument);
  EXPECT_THROW(quantile({1.0}, 1.5), std::invalid_argument);
}

}  // namespace
}  // namespace dvbp
