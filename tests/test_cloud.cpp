// Tests for the cloud substrate: server specs, billing models, the cluster
// front-end, and timeline metrics.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "cloud/billing.hpp"
#include "cloud/cluster.hpp"
#include "cloud/metrics.hpp"
#include "cloud/server.hpp"
#include "core/policies/registry.hpp"

namespace dvbp::cloud {
namespace {

ServerSpec gpu_server() {
  ServerSpec spec;
  spec.name = "gpu.large";
  spec.resource_names = {"vCPU", "GiB", "GPU"};
  spec.capacity = RVec{16.0, 64.0, 4.0};
  return spec;
}

TEST(ServerSpec, ValidatesShape) {
  ServerSpec spec = gpu_server();
  EXPECT_NO_THROW(spec.validate());
  spec.capacity = RVec{};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = gpu_server();
  spec.resource_names = {"vCPU"};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = gpu_server();
  spec.capacity[1] = 0.0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(ServerSpec, NormalizesDemands) {
  const ServerSpec spec = gpu_server();
  const RVec norm = spec.normalize(RVec{8.0, 16.0, 1.0});
  EXPECT_DOUBLE_EQ(norm[0], 0.5);
  EXPECT_DOUBLE_EQ(norm[1], 0.25);
  EXPECT_DOUBLE_EQ(norm[2], 0.25);
  EXPECT_THROW(spec.normalize(RVec{32.0, 1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(spec.normalize(RVec{1.0, 1.0}), std::invalid_argument);
}

TEST(Billing, ContinuousIsLinear) {
  ContinuousBilling billing(2.0);
  EXPECT_DOUBLE_EQ(billing.charge({0.0, 3.5}), 7.0);
  EXPECT_DOUBLE_EQ(billing.charge({1.0, 1.0}), 0.0);
  EXPECT_EQ(billing.name(), "continuous");
}

TEST(Billing, QuantizedRoundsUpStartedQuanta) {
  QuantizedBilling billing(/*quantum=*/1.0, /*rate=*/3.0);
  EXPECT_DOUBLE_EQ(billing.charge({0.0, 0.2}), 3.0);   // 1 started hour
  EXPECT_DOUBLE_EQ(billing.charge({0.0, 1.0}), 3.0);   // exactly 1
  EXPECT_DOUBLE_EQ(billing.charge({0.0, 1.01}), 6.0);  // 2 started
  EXPECT_DOUBLE_EQ(billing.charge({2.0, 2.0}), 0.0);   // empty rental
}

TEST(Billing, QuantizedValidatesQuantum) {
  EXPECT_THROW(QuantizedBilling(0.0, 1.0), std::invalid_argument);
}

TEST(Cluster, DispatchesAndBills) {
  const ServerSpec spec = gpu_server();
  std::vector<Job> jobs{
      {"a", 0.0, 4.0, RVec{8.0, 32.0, 2.0}},
      {"b", 0.0, 4.0, RVec{8.0, 32.0, 2.0}},   // shares a server with a
      {"c", 1.0, 3.0, RVec{16.0, 16.0, 1.0}},  // needs its own server
  };
  PolicyPtr policy = make_policy("FirstFit");
  ContinuousBilling billing(1.0);
  const ClusterReport report =
      run_cluster(spec, jobs, *policy, billing);

  EXPECT_EQ(report.servers_rented, 2u);
  EXPECT_EQ(report.peak_concurrent, 2u);
  EXPECT_DOUBLE_EQ(report.total_usage_time, 4.0 + 2.0);
  EXPECT_DOUBLE_EQ(report.total_bill, 6.0);
  ASSERT_EQ(report.placement.size(), 3u);
  EXPECT_EQ(report.placement[0], report.placement[1]);
  EXPECT_NE(report.placement[0], report.placement[2]);
  ASSERT_EQ(report.rentals.size(), 2u);
  EXPECT_EQ(report.rentals[0].jobs_served, 2u);
}

TEST(Cluster, SortsJobsByArrival) {
  const ServerSpec spec = gpu_server();
  // Deliberately out of order; the cluster must feed them in arrival order.
  std::vector<Job> jobs{
      {"late", 5.0, 6.0, RVec{1.0, 1.0, 1.0}},
      {"early", 0.0, 1.0, RVec{1.0, 1.0, 1.0}},
  };
  PolicyPtr policy = make_policy("FirstFit");
  ContinuousBilling billing;
  const ClusterReport report = run_cluster(spec, jobs, *policy, billing);
  EXPECT_EQ(report.servers_rented, 2u);  // disjoint in time, bins don't reopen
  EXPECT_DOUBLE_EQ(report.total_usage_time, 2.0);
}

TEST(Cluster, QuantizedBillExceedsContinuous) {
  const ServerSpec spec = gpu_server();
  std::vector<Job> jobs{
      {"a", 0.0, 2.5, RVec{8.0, 32.0, 2.0}},
      {"b", 3.0, 3.7, RVec{8.0, 32.0, 2.0}},
  };
  PolicyPtr p1 = make_policy("FirstFit");
  PolicyPtr p2 = make_policy("FirstFit");
  const double continuous =
      run_cluster(spec, jobs, *p1, ContinuousBilling(1.0)).total_bill;
  const double quantized =
      run_cluster(spec, jobs, *p2, QuantizedBilling(1.0, 1.0)).total_bill;
  EXPECT_DOUBLE_EQ(continuous, 3.2);
  EXPECT_DOUBLE_EQ(quantized, 3.0 + 1.0);  // ceil(2.5) + ceil(0.7)
}

TEST(Cluster, UtilizationBetweenZeroAndOne) {
  const ServerSpec spec = gpu_server();
  std::vector<Job> jobs;
  for (int i = 0; i < 20; ++i) {
    std::string name = "j";  // += avoids a GCC 12 -Wrestrict false positive
    name += std::to_string(i);
    jobs.push_back({name, static_cast<Time>(i % 5),
                    static_cast<Time>(i % 5 + 2), RVec{4.0, 8.0, 1.0}});
  }
  PolicyPtr policy = make_policy("MoveToFront");
  ContinuousBilling billing;
  const ClusterReport report = run_cluster(spec, jobs, *policy, billing);
  EXPECT_GT(report.avg_utilization, 0.0);
  EXPECT_LE(report.avg_utilization, 1.0 + 1e-9);
}

TEST(Metrics, StepSeriesAverageAndPeak) {
  StepSeries s;
  s.steps = {{0.0, 1.0}, {1.0, 3.0}, {3.0, 0.0}};
  // [0,1) at 1, [1,3) at 3 -> average (1 + 6)/3.
  EXPECT_NEAR(s.time_average(), 7.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.peak(), 3.0);
  StepSeries empty;
  EXPECT_DOUBLE_EQ(empty.time_average(), 0.0);
  EXPECT_DOUBLE_EQ(empty.peak(), 0.0);
}

TEST(Metrics, OpenBinSeriesNeedsTimeline) {
  Instance inst(1);
  inst.add(0.0, 2.0, RVec{0.5});
  PolicyPtr policy = make_policy("FirstFit");
  const SimResult no_tl = simulate(inst, *policy);
  EXPECT_THROW(open_bin_series(no_tl), std::invalid_argument);
  const SimResult with_tl =
      simulate(inst, *policy, {.record_timeline = true});
  const StepSeries series = open_bin_series(with_tl);
  EXPECT_DOUBLE_EQ(series.peak(), 1.0);
}

TEST(Metrics, UtilizationSeriesTracksLoad) {
  Instance inst(1);
  inst.add(0.0, 2.0, RVec{0.5});
  inst.add(1.0, 2.0, RVec{0.4});
  PolicyPtr policy = make_policy("FirstFit");
  const SimResult sim = simulate(inst, *policy, {.record_timeline = true});
  const StepSeries series = utilization_series(inst, sim);
  // [0,1): 0.5/1 bin; [1,2): 0.9/1 bin; [2,-): 0.
  ASSERT_EQ(series.steps.size(), 3u);
  EXPECT_NEAR(series.steps[0].second, 0.5, 1e-12);
  EXPECT_NEAR(series.steps[1].second, 0.9, 1e-12);
  EXPECT_DOUBLE_EQ(series.steps[2].second, 0.0);
}

TEST(Metrics, DegenerateSeriesProduceNoNansOrDivisionsByZero) {
  // Empty series: both summaries are defined and zero.
  StepSeries empty;
  EXPECT_DOUBLE_EQ(empty.time_average(), 0.0);
  EXPECT_DOUBLE_EQ(empty.peak(), 0.0);

  // Single-timestamp series: no support to average over; the lone value is
  // reported instead of 0/0.
  StepSeries single;
  single.steps = {{3.0, 5.0}};
  EXPECT_DOUBLE_EQ(single.time_average(), 5.0);
  EXPECT_DOUBLE_EQ(single.peak(), 5.0);

  // Zero-length support (all steps at one timestamp): total time is 0, so
  // the average must fall back, not divide by zero.
  StepSeries zero_span;
  zero_span.steps = {{1.0, 4.0}, {1.0, 2.0}};
  const double avg = zero_span.time_average();
  EXPECT_FALSE(std::isnan(avg));
  EXPECT_DOUBLE_EQ(avg, 2.0);
}

TEST(Metrics, SeriesFromSingleEventBatchInstant) {
  // All arrivals and all departures land on single timestamps -> the
  // timeline has exactly two batches and the series stay finite.
  Instance inst(1);
  inst.add(0.0, 1.0, RVec{0.5});
  inst.add(0.0, 1.0, RVec{0.4});
  PolicyPtr policy = make_policy("FirstFit");
  const SimResult sim = simulate(inst, *policy, {.record_timeline = true});
  const StepSeries bins = open_bin_series(sim);
  const StepSeries util = utilization_series(inst, sim);
  for (const auto& [t, v] : bins.steps) EXPECT_FALSE(std::isnan(v)) << t;
  for (const auto& [t, v] : util.steps) EXPECT_FALSE(std::isnan(v)) << t;
  EXPECT_DOUBLE_EQ(bins.peak(), 1.0);
  EXPECT_NEAR(bins.time_average(), 1.0, 1e-12);
  EXPECT_NEAR(util.time_average(), 0.9, 1e-12);
}

TEST(Metrics, UtilizationIsZeroNotNanWhileAllBinsAreClosed) {
  // Two bursts separated by a dead interval [1, 2) where every bin is
  // closed: utilization there must be exactly 0 (no 0/0).
  Instance inst(2);
  inst.add(0.0, 1.0, RVec{0.5, 0.5});
  inst.add(2.0, 3.0, RVec{0.6, 0.2});
  PolicyPtr policy = make_policy("FirstFit");
  const SimResult sim = simulate(inst, *policy, {.record_timeline = true});
  const StepSeries util = utilization_series(inst, sim);
  bool saw_dead_interval = false;
  for (const auto& [t, v] : util.steps) {
    EXPECT_FALSE(std::isnan(v)) << t;
    if (t >= 1.0 && t < 2.0) {
      saw_dead_interval = true;
      EXPECT_DOUBLE_EQ(v, 0.0);
    }
  }
  EXPECT_TRUE(saw_dead_interval);
  EXPECT_FALSE(std::isnan(util.time_average()));
  EXPECT_FALSE(std::isnan(util.peak()));
}

}  // namespace
}  // namespace dvbp::cloud
