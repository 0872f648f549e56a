// Golden-packing suite: pins the placement engine's exact packing
// decisions against recorded hashes. Any change to placement semantics --
// bin chosen, opening order, open/close times -- changes a hash and fails
// here.
//
// Coverage: all 10 registered policies x (uniform d in {1,2,5} plus the
// high-dimension set {7,8,9,16} straddling RVec's inline/heap boundary at
// kInlineDim = 8, + the four adversarial constructions), fixed seeds, each
// run through simulate() and through a hand-driven Dispatcher replay.
// A second table pins resource augmentation (bin capacity 1 + beta, where
// the fit predicate and so every decision changes). The no-SIMD CI job
// re-runs this suite with -DDVBP_DISABLE_SIMD=ON and must produce
// identical hashes (scalar/SIMD bit-exactness contract,
// core/open_bin_table.hpp).
//
// Regenerating goldens (only legitimate after an *intentional* semantic
// change): DVBP_DUMP_GOLDEN=1 ./test_golden_packings | grep '^    {' then
// paste into golden_packings.inc.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/dispatcher.hpp"
#include "core/event.hpp"
#include "core/packing.hpp"
#include "core/packing_hash.hpp"
#include "core/policies/registry.hpp"
#include "core/simulator.hpp"
#include "gen/adversarial.hpp"
#include "gen/uniform.hpp"

namespace dvbp {
namespace {

constexpr std::uint64_t kPolicySeed = 0xD1CEu;

const char* const kPolicies[] = {
    "MoveToFront", "FirstFit",        "BestFit",     "NextFit",
    "LastFit",     "RandomFit",       "WorstFit",    "MinExtensionFit",
    "HarmonicFit", "DurationClassFit"};

std::vector<std::pair<std::string, Instance>> golden_workloads() {
  std::vector<std::pair<std::string, Instance>> out;
  // 7/8/9 bracket RVec's kInlineDim = 8 (last all-inline, boundary, first
  // heap-backed); 16 exercises the pure-heap path and full SIMD lanes.
  for (std::size_t d : {1u, 2u, 5u, 7u, 8u, 9u, 16u}) {
    gen::UniformParams params;
    params.d = d;
    params.n = 400;
    params.mu = 12;
    params.span = 100;
    params.bin_size = 9;
    out.emplace_back("uniform_d" + std::to_string(d),
                     gen::uniform_instance(params, 0xA11CE + d));
  }
  out.emplace_back("adv_anyfit",
                   gen::anyfit_lower_bound(/*k=*/6, /*d=*/2, /*mu=*/5.0)
                       .instance);
  out.emplace_back("adv_nextfit",
                   gen::nextfit_lower_bound(/*k=*/6, /*d=*/2, /*mu=*/4.0)
                       .instance);
  out.emplace_back("adv_mtf", gen::mtf_lower_bound(/*n=*/8, /*mu=*/6.0)
                                  .instance);
  out.emplace_back("adv_bestfit", gen::bestfit_unbounded(/*k=*/10).instance);
  return out;
}

struct GoldenEntry {
  const char* workload;
  const char* policy;
  std::uint64_t hash;
};

const GoldenEntry kGolden[] = {
#include "golden_packings.inc"
};

std::uint64_t expected_hash(const std::string& workload,
                            const std::string& policy) {
  for (const GoldenEntry& e : kGolden) {
    if (workload == e.workload && policy == e.policy) return e.hash;
  }
  ADD_FAILURE() << "no golden entry for " << workload << "/" << policy;
  return 0;
}

/// Drives a Dispatcher by hand over `inst`'s event stream (arrive/depart,
/// as a live service would) and returns its final packing.
Packing dispatcher_replay(const Instance& inst, Policy& policy,
                          double capacity = 1.0) {
  Dispatcher dispatcher(inst.dim(), policy, capacity);
  for (const Event& ev : build_event_stream(inst)) {
    const Item& item = inst[ev.item];
    if (ev.kind == EventKind::kArrival) {
      EXPECT_EQ(dispatcher.arrive(ev.time, item.size, item.departure).job,
                item.id);
    } else {
      dispatcher.depart(ev.time, item.id);
    }
  }
  EXPECT_EQ(dispatcher.open_bins(), 0u);
  const Packing packing = dispatcher.packing();
  EXPECT_NEAR(dispatcher.cost_so_far(inst.last_departure()), packing.cost(),
              1e-9);
  return packing;
}

TEST(GoldenPackings, SimulateMatchesGoldens) {
  const bool dump = std::getenv("DVBP_DUMP_GOLDEN") != nullptr;
  for (const auto& [name, inst] : golden_workloads()) {
    for (const char* policy_name : kPolicies) {
      PolicyPtr policy = make_policy(policy_name, kPolicySeed);
      const SimResult sim = simulate(inst, *policy, {.audit = true});
      const std::uint64_t h = packing_hash(sim.packing);
      if (dump) {
        printf("    {\"%s\", \"%s\", 0x%016llXull},\n", name.c_str(),
               policy_name, static_cast<unsigned long long>(h));
        continue;
      }
      EXPECT_EQ(h, expected_hash(name, policy_name))
          << name << "/" << policy_name << ": packing diverged from golden";
    }
  }
  if (dump) GTEST_SKIP() << "golden dump mode; comparisons skipped";
}

TEST(GoldenPackings, DispatcherReplayMatchesGoldens) {
  for (const auto& [name, inst] : golden_workloads()) {
    for (const char* policy_name : kPolicies) {
      PolicyPtr policy = make_policy(policy_name, kPolicySeed);
      EXPECT_EQ(packing_hash(dispatcher_replay(inst, *policy)),
                expected_hash(name, policy_name))
          << name << "/" << policy_name;
    }
  }
}

// ---- Resource augmentation -------------------------------------------------
// uniform d=2, n=300, mu=10, span=80, bin_size=7, seed 99, policies at the
// registry's default seed. Recorded from the batch engine that simulate()
// ran on before it became a loop over Dispatcher.

struct AugmentedGolden {
  double beta;
  const char* policy;
  std::uint64_t hash;
};

const AugmentedGolden kAugmentedGolden[] = {
    {0.25, "FirstFit", 0x847F6AD38DECA06Dull},
    {0.25, "MoveToFront", 0xF8CA1214083DC397ull},
    {0.25, "BestFit", 0x558540518DCD569Full},
    {0.25, "NextFit", 0x3A230B029F402A4Aull},
    {0.5, "FirstFit", 0x3AFEAE18A352743Full},
    {0.5, "MoveToFront", 0x296E803B8E9922E4ull},
    {0.5, "BestFit", 0xB0EBBC565366EBBCull},
    {0.5, "NextFit", 0xB5105E86BB4613A1ull},
    {1.0, "FirstFit", 0x32F4F63BBB219B09ull},
    {1.0, "MoveToFront", 0xBBC67F96DEBACF1Dull},
    {1.0, "BestFit", 0xBBF6B6594C38CC69ull},
    {1.0, "NextFit", 0x62A3B228EADFD913ull},
};

TEST(GoldenPackings, AugmentedCapacityMatchesGoldens) {
  gen::UniformParams params;
  params.d = 2;
  params.n = 300;
  params.mu = 10;
  params.span = 80;
  params.bin_size = 7;
  const Instance inst = gen::uniform_instance(params, 99);
  for (const AugmentedGolden& g : kAugmentedGolden) {
    const double capacity = 1.0 + g.beta;
    PolicyPtr live_policy = make_policy(g.policy);
    EXPECT_EQ(packing_hash(dispatcher_replay(inst, *live_policy, capacity)),
              g.hash)
        << g.policy << " at beta=" << g.beta;
    PolicyPtr batch_policy = make_policy(g.policy);
    EXPECT_EQ(packing_hash(simulate(inst, *batch_policy,
                                    {.bin_capacity = capacity})
                               .packing),
              g.hash)
        << g.policy << " at beta=" << g.beta << " via simulate()";
  }
}

}  // namespace
}  // namespace dvbp
