// Tests for HK-Push / HK-Push+ — including the Lemma 1 invariant and
// Theorem 2, validated against dense ground truth on small graphs.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "common/random.h"
#include "graph/generators.h"
#include "hkpr/power_method.h"
#include "hkpr/push.h"
#include "test_util.h"

namespace hkpr {
namespace {

/// Evaluates the Lemma 1 identity
///   rho_s[v] = q_s[v] + sum_u sum_k r_k[u] * h_u^(k)[v]
/// densely and returns the max absolute deviation from the exact HKPR.
double Lemma1Deviation(const Graph& g, const HeatKernel& kernel, NodeId seed,
                       const PushResult& push) {
  const std::vector<double> exact = ExactHkpr(g, kernel, seed);
  std::vector<double> reconstructed(g.NumNodes(), 0.0);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    reconstructed[v] = push.reserve.Get(v);
  }
  for (uint32_t k = 0; k <= push.residues.max_hop(); ++k) {
    for (const auto& e : push.residues.Hop(k)) {
      if (e.value <= 0.0) continue;
      const std::vector<double> h = testing::ExactH(g, kernel, e.key, k);
      for (NodeId v = 0; v < g.NumNodes(); ++v) {
        reconstructed[v] += e.value * h[v];
      }
    }
  }
  double worst = 0.0;
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    worst = std::max(worst, std::abs(reconstructed[v] - exact[v]));
  }
  return worst;
}

TEST(HkPushTest, Lemma1InvariantOnBarbell) {
  Graph g = testing::MakeBarbell(5);
  HeatKernel kernel(5.0);
  for (double r_max : {0.5, 0.1, 0.01, 0.001}) {
    PushResult push = HkPush(g, kernel, 0, r_max);
    EXPECT_LT(Lemma1Deviation(g, kernel, 0, push), 1e-9) << "r_max=" << r_max;
  }
}

TEST(HkPushTest, Lemma1InvariantOnRandomGraph) {
  Graph g = ErdosRenyiGnm(40, 120, 3);
  HeatKernel kernel(3.0);
  PushResult push = HkPush(g, kernel, 7, 0.005);
  EXPECT_LT(Lemma1Deviation(g, kernel, 7, push), 1e-9);
}

TEST(HkPushTest, ReserveIsLowerBoundOfExact) {
  Graph g = testing::MakeBarbell(6);
  HeatKernel kernel(5.0);
  const std::vector<double> exact = ExactHkpr(g, kernel, 0);
  PushResult push = HkPush(g, kernel, 0, 0.001);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    EXPECT_LE(push.reserve.Get(v), exact[v] + 1e-12) << v;
  }
}

TEST(HkPushTest, MassConservation) {
  // reserve total + residue total == 1 at every threshold.
  Graph g = PowerlawCluster(300, 3, 0.3, 4);
  HeatKernel kernel(5.0);
  for (double r_max : {0.1, 0.01, 0.001}) {
    PushResult push = HkPush(g, kernel, 11, r_max);
    EXPECT_NEAR(push.reserve.Sum() + push.residues.TotalSum(), 1.0, 1e-9);
  }
}

TEST(HkPushTest, SmallerThresholdMoreWork) {
  Graph g = PowerlawCluster(500, 4, 0.3, 5);
  HeatKernel kernel(5.0);
  PushResult coarse = HkPush(g, kernel, 10, 0.01);
  PushResult fine = HkPush(g, kernel, 10, 0.0001);
  EXPECT_GT(fine.push_operations, coarse.push_operations);
  EXPECT_LT(fine.residues.TotalSum(), coarse.residues.TotalSum());
}

TEST(HkPushTest, ResiduesRespectThreshold) {
  Graph g = PowerlawCluster(400, 3, 0.2, 6);
  HeatKernel kernel(5.0);
  const double r_max = 0.003;
  PushResult push = HkPush(g, kernel, 5, r_max);
  // Below the final hop, every remaining residue obeys r <= r_max * d(v).
  for (uint32_t k = 0; k < kernel.MaxHop(); ++k) {
    for (const auto& e : push.residues.Hop(k)) {
      EXPECT_LE(e.value, r_max * g.Degree(e.key) + 1e-12)
          << "hop " << k << " node " << e.key;
    }
  }
}

TEST(HkPushTest, WorkScalesInverseThreshold) {
  // Lemma 3: total pushes are O(1/r_max).
  Graph g = PowerlawCluster(2000, 4, 0.3, 7);
  HeatKernel kernel(5.0);
  PushResult push = HkPush(g, kernel, 3, 0.0005);
  EXPECT_LT(static_cast<double>(push.push_operations), 4.0 / 0.0005);
}

TEST(HkPushPlusTest, BudgetRespected) {
  Graph g = PowerlawCluster(2000, 5, 0.3, 8);
  HeatKernel kernel(5.0);
  HkPushPlusOptions options;
  options.eps_r = 0.5;
  options.delta = 1e-7;
  options.hop_cap = 12;
  options.push_budget = 500;
  PushResult push = HkPushPlus(g, kernel, 3, options);
  EXPECT_TRUE(push.hit_budget);
  // The budget check happens before processing an entry; an entry may
  // overshoot by at most its own degree.
  EXPECT_LE(push.push_operations, options.push_budget + g.MaxDegree());
}

TEST(HkPushPlusTest, Theorem2AbsoluteErrorOnEarlyExit) {
  // When the early-exit test fires, the reserve alone must satisfy
  // |q[v] - rho[v]|/d(v) <= eps_r * delta for all v (Theorem 2).
  Graph g = testing::MakeBarbell(8);
  HeatKernel kernel(5.0);
  HkPushPlusOptions options;
  options.eps_r = 0.5;
  options.delta = 0.01;  // loose: early exit will fire
  options.hop_cap = 20;
  options.push_budget = 100000000;
  PushResult push = HkPushPlus(g, kernel, 0, options);
  ASSERT_TRUE(push.hit_absolute_target);
  const std::vector<double> exact = ExactHkpr(g, kernel, 0);
  const double eps_a = options.eps_r * options.delta;
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    const double err = std::abs(push.reserve.Get(v) - exact[v]) / g.Degree(v);
    EXPECT_LE(err, eps_a + 1e-12) << v;
  }
}

TEST(HkPushPlusTest, EarlyExitBoundIsSound) {
  // Whenever hit_absolute_target is reported, the exact residue scan must
  // confirm Inequality (11).
  Graph g = PowerlawCluster(500, 4, 0.3, 9);
  HeatKernel kernel(5.0);
  HkPushPlusOptions options;
  options.eps_r = 0.5;
  options.delta = 1e-3;
  options.hop_cap = 10;
  options.push_budget = 1000000000;
  PushResult push = HkPushPlus(g, kernel, 1, options);
  if (push.hit_absolute_target) {
    EXPECT_LE(push.residues.MaxNormalizedResidueSum(g),
              options.eps_r * options.delta + 1e-12);
  }
}

TEST(HkPushPlusTest, Lemma1InvariantHolds) {
  // The invariant must hold for HK-Push+ too (same push operation).
  Graph g = ErdosRenyiGnm(30, 90, 10);
  HeatKernel kernel(4.0);
  HkPushPlusOptions options;
  options.eps_r = 0.5;
  options.delta = 1e-4;
  options.hop_cap = 8;
  options.push_budget = 2000;
  PushResult push = HkPushPlus(g, kernel, 2, options);
  EXPECT_LT(Lemma1Deviation(g, kernel, 2, push), 1e-9);
}

TEST(HkPushPlusTest, HopCapLimitsResidueHops) {
  Graph g = PowerlawCluster(300, 3, 0.2, 11);
  HeatKernel kernel(5.0);
  HkPushPlusOptions options;
  options.eps_r = 0.5;
  options.delta = 1e-5;
  options.hop_cap = 4;
  options.push_budget = 1000000;
  PushResult push = HkPushPlus(g, kernel, 0, options);
  EXPECT_EQ(push.residues.max_hop(), 4u);
  // No residue past the cap was ever pushed, so hop sums at the cap are the
  // only ones that can be large; just check the table depth is respected.
  EXPECT_GE(push.residues.HopSum(4), 0.0);
}

TEST(HkPushPlusTest, MassConservation) {
  Graph g = PowerlawCluster(300, 3, 0.2, 12);
  HeatKernel kernel(5.0);
  HkPushPlusOptions options;
  options.eps_r = 0.5;
  options.delta = 1e-6;
  options.hop_cap = 10;
  options.push_budget = 100000;
  PushResult push = HkPushPlus(g, kernel, 4, options);
  EXPECT_NEAR(push.reserve.Sum() + push.residues.TotalSum(), 1.0, 1e-9);
}

/// Checks MayRaiseNormBound on one triple: it may pass a case where the
/// exact update fl(r/d) > bound is false, but never reject one where it is
/// true. Counts both outcomes.
struct PreTestTally {
  uint64_t raises = 0;
  uint64_t skipped = 0;
};

void CheckPreTest(double r, uint32_t d, double bound, PreTestTally& tally) {
  ASSERT_GE(r, 0.0);
  const bool raises = r / d > bound;
  const bool passes = MayRaiseNormBound(r, d, bound);
  if (raises) {
    ++tally.raises;
    EXPECT_TRUE(passes) << "r=" << r << " d=" << d << " bound=" << bound;
  }
  if (!passes) ++tally.skipped;
}

/// Steps `x` by `ulps` doubles (toward +inf when positive), stopping at 0.
double StepUlps(double x, int ulps) {
  const double inf = std::numeric_limits<double>::infinity();
  for (; ulps > 0; --ulps) x = std::nextafter(x, inf);
  for (; ulps < 0 && x > 0.0; ++ulps) x = std::nextafter(x, 0.0);
  return x;
}

TEST(HkPushPlusTest, NormBoundPreTestNeverRejectsARaise) {
  constexpr uint32_t kMaxDegree = 0xFFFFFFFFu;
  const std::vector<double> bounds = {
      0.0,   std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(), 1e-12, 3.3e-11, 1e-9, 1e-6,
      1.0 / 3.0, 0.1, 1.0};
  const std::vector<uint32_t> degrees = {1, 2, 3, 7, 1000, 1u << 31,
                                         kMaxDegree - 1, kMaxDegree};
  PreTestTally tally;
  // Edge triples: r within 4 ulps either side of fl(bound * d), plus r = 0.
  for (double bound : bounds) {
    for (uint32_t d : degrees) {
      CheckPreTest(0.0, d, bound, tally);
      for (int ulps = -4; ulps <= 4; ++ulps) {
        CheckPreTest(StepUlps(bound * d, ulps), d, bound, tally);
      }
    }
  }
  // Random triples: bound log-uniform in [1e-12, 1], d log-uniform in
  // [1, 2^32 - 1], r near fl(bound * d) or anywhere in [0, 2 * bound * d).
  Rng rng(20190626);
  for (int i = 0; i < 200000; ++i) {
    const double bound = std::pow(10.0, -12.0 * rng.UniformDouble());
    const uint32_t d = static_cast<uint32_t>(std::min<double>(
        kMaxDegree, std::floor(std::exp2(32.0 * rng.UniformDouble()))));
    ASSERT_GE(d, 1u);
    const double product = bound * d;
    CheckPreTest(StepUlps(product, static_cast<int>(rng.UniformInt(9)) - 4),
                 d, bound, tally);
    CheckPreTest(2.0 * product * rng.UniformDouble(), d, bound, tally);
  }
  // Both outcomes occur, so the test is neither vacuous nor trivially true.
  EXPECT_GT(tally.raises, 100000u);
  EXPECT_GT(tally.skipped, 100000u);
}

TEST(ResidueTableTest, SumsMaintained) {
  ResidueTable table(3);
  const uint32_t node5 = table.Append(0, 5, 0.5);
  table.Append(0, 6, 0.25);
  table.Append(2, 5, 0.1);
  EXPECT_DOUBLE_EQ(table.HopSum(0), 0.75);
  EXPECT_DOUBLE_EQ(table.HopSum(2), 0.1);
  EXPECT_DOUBLE_EQ(table.TotalSum(), 0.85);
  table.ZeroAt(0, node5);
  EXPECT_DOUBLE_EQ(table.HopSum(0), 0.25);
  EXPECT_DOUBLE_EQ(table.Get(0, 5), 0.0);
}

TEST(ResidueTableTest, RecomputeAfterDirectMutation) {
  ResidueTable table(1);
  table.Append(0, 1, 0.6);
  table.Append(1, 2, 0.4);
  for (auto& e : table.MutableHop(0)) e.value *= 0.5;
  table.RecomputeSums();
  EXPECT_DOUBLE_EQ(table.HopSum(0), 0.3);
  EXPECT_DOUBLE_EQ(table.TotalSum(), 0.7);
}

TEST(ResidueTableTest, MaxNormalizedResidueSum) {
  Graph g = testing::MakeStar(4);  // d(0)=3, d(1..3)=1
  ResidueTable table(1);
  table.Append(0, 0, 0.9);  // 0.9/3 = 0.3
  table.Append(1, 1, 0.2);  // 0.2/1 = 0.2
  table.Append(1, 2, 0.1);  // 0.1
  EXPECT_DOUBLE_EQ(table.MaxNormalizedResidueSum(g), 0.3 + 0.2);
}

TEST(ResidueTableTest, NonZeroCountSkipsZeroedEntries) {
  ResidueTable table(0);
  const uint32_t node1 = table.Append(0, 1, 0.5);
  table.Append(0, 2, 0.5);
  table.ZeroAt(0, node1);
  EXPECT_EQ(table.TotalNonZeros(), 1u);
  EXPECT_EQ(table.TotalEntries(), 2u);
}

TEST(HopIndexTest, ReleaseRestoresSentinelsAndGrowthKeepsThem) {
  HopIndex index;
  index.Reserve(8);
  EXPECT_TRUE(index.IsReleased());
  std::vector<ResidueEntry> hop;
  for (NodeId v : {5u, 2u, 7u}) {
    index.slots()[v] = static_cast<uint32_t>(hop.size());
    hop.push_back(ResidueEntry{v, 1.0});
  }
  EXPECT_EQ(index.slots()[2], 1u);
  EXPECT_FALSE(index.IsReleased());
  index.Release(hop);
  EXPECT_TRUE(index.IsReleased());
  index.Reserve(4);  // never shrinks
  index.Reserve(32);
  EXPECT_TRUE(index.IsReleased());
  EXPECT_GE(index.MemoryBytes(), 32 * sizeof(uint32_t));
}

TEST(HopAccumulatorTest, FlushListsFirstTouchOrderAndRestoresSentinels) {
  HopAccumulator acc;
  acc.Reserve(8);
  EXPECT_TRUE(acc.IsClear());
  double* values = acc.values();
  NodeId* touched = acc.touched();
  size_t tail = 0;
  // The drain's branch-free fill: add, write the tail, advance on -0.0.
  for (const auto& [u, share] : {std::pair<NodeId, double>{5, 0.25},
                                 {2, 0.5},
                                 {5, 0.125},
                                 {7, 0.0},
                                 {2, 1.0}}) {
    const double before = values[u];
    values[u] = before + share;
    touched[tail] = u;
    tail += std::signbit(before);
  }
  ASSERT_EQ(tail, 3u);
  EXPECT_FALSE(acc.IsClear());
  std::vector<ResidueEntry> hop;
  acc.Flush(tail, hop);
  ASSERT_EQ(hop.size(), 3u);
  EXPECT_EQ(hop[0].key, 5u);
  EXPECT_EQ(hop[0].value, 0.375);
  EXPECT_EQ(hop[1].key, 2u);
  EXPECT_EQ(hop[1].value, 1.5);
  // A zero share is still a touch, stored as +0.0.
  EXPECT_EQ(hop[2].key, 7u);
  EXPECT_EQ(std::bit_cast<uint64_t>(hop[2].value), 0u);
  EXPECT_TRUE(acc.IsClear());
  acc.Reserve(4);  // never shrinks
  acc.Reserve(32);
  EXPECT_TRUE(acc.IsClear());
  EXPECT_GE(acc.MemoryBytes(), 32 * (sizeof(double) + sizeof(NodeId)));
}

}  // namespace
}  // namespace hkpr
