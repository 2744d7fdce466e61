// Golden bit-identity tests for the push kernels (HK-Push, HK-Push+) and
// HK-Relax.
//
// Each case hashes everything a push phase leaves behind, in order: the
// reserve/result entries (key and value bits), every residue hop's entries
// and hop sum, and the work counters. The expected hashes were recorded from
// the hash-map residue layout that preceded the dense next-hop index, so any
// change in entry order, float summation order or counters fails here. The
// hashes assume IEEE doubles without FMA contraction (the default build).
//
// The reuse tests run mixed queries through one workspace and check each
// against a fresh workspace bit for bit.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <tuple>
#include <vector>

#include "baselines/hk_relax.h"
#include "graph/generators.h"
#include "graph/subgraph.h"
#include "hkpr/push.h"
#include "hkpr/tea_plus.h"
#include "hkpr/workspace.h"

namespace hkpr {
namespace {

/// FNV-1a over 64-bit words.
class StateHash {
 public:
  void Mix(uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (word >> (8 * i)) & 0xFF;
      hash_ *= 1099511628211ULL;
    }
  }
  void MixDouble(double x) { Mix(std::bit_cast<uint64_t>(x)); }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ULL;
};

/// Hash of the workspace's result and residue table, in insertion order.
uint64_t HashWorkspace(const QueryWorkspace& ws) {
  StateHash h;
  h.Mix(ws.result.nnz());
  for (const auto& e : ws.result.entries()) {
    h.Mix(e.key);
    h.MixDouble(e.value);
  }
  h.MixDouble(ws.result.degree_offset());
  h.Mix(ws.residues.max_hop());
  for (uint32_t k = 0; k <= ws.residues.max_hop(); ++k) {
    h.Mix(ws.residues.Hop(k).size());
    for (const auto& e : ws.residues.Hop(k)) {
      h.Mix(e.key);
      h.MixDouble(e.value);
    }
    h.MixDouble(ws.residues.HopSum(k));
  }
  return h.value();
}

uint64_t HashPush(const QueryWorkspace& ws, const PushCounters& c) {
  StateHash h;
  h.Mix(HashWorkspace(ws));
  h.Mix(c.push_operations);
  h.Mix(c.entries_processed);
  h.Mix(c.hit_absolute_target ? 1 : 0);
  h.Mix(c.hit_budget ? 1 : 0);
  return h.value();
}

uint64_t HashStats(const QueryWorkspace& ws, const EstimatorStats& s) {
  StateHash h;
  h.Mix(HashWorkspace(ws));
  h.Mix(s.push_operations);
  h.Mix(s.entries_processed);
  h.Mix(s.num_walks);
  h.Mix(s.walk_steps);
  h.Mix(s.early_exit ? 1 : 0);
  return h.value();
}

/// Prints the hash next to its case so a deliberate behaviour change can
/// re-record the table.
void ExpectHash(const char* label, uint64_t expected, uint64_t actual) {
  EXPECT_EQ(expected, actual) << label;
  if (expected != actual) {
    std::printf("  {\"%s\", 0x%016llxULL},\n", label,
                static_cast<unsigned long long>(actual));
  }
}

const Graph& SmallRmat() {
  static const Graph g = RestrictToLargestComponent(Rmat(12, 16.0, 7));
  return g;
}

const Graph& LargerRmat() {
  static const Graph g = RestrictToLargestComponent(Rmat(14, 12.0, 42));
  return g;
}

/// The seeds each case runs: fixed ids plus the highest-degree node.
std::vector<NodeId> Seeds(const Graph& g) {
  NodeId hub = 0;
  for (NodeId v = 1; v < g.NumNodes(); ++v) {
    if (g.Degree(v) > g.Degree(hub)) hub = v;
  }
  return {0, 17, 123, g.NumNodes() - 1, hub};
}

enum class PlusCase { kBudgetHit, kEarlyExit, kFullDrain };

HkPushPlusOptions PlusOptions(PlusCase c) {
  HkPushPlusOptions o;
  o.eps_r = 0.5;
  o.hop_cap = 10;
  switch (c) {
    case PlusCase::kBudgetHit:
      o.delta = 1e-7;
      o.push_budget = 3000;
      break;
    case PlusCase::kEarlyExit:
      o.delta = 1.0 / 1024.0;
      o.push_budget = 100'000'000;
      break;
    case PlusCase::kFullDrain:
      o.delta = 1e-5;
      o.push_budget = 100'000'000;
      o.enable_early_exit = false;
      break;
  }
  return o;
}

/// Runs every (graph, seed) pair of a case and folds the per-query hashes.
template <typename Query>
uint64_t HashCase(const Graph& g, Query&& query) {
  StateHash h;
  QueryWorkspace ws;
  for (NodeId seed : Seeds(g)) h.Mix(query(g, seed, ws));
  return h.value();
}

TEST(PushGoldenTest, HkPushMatchesRecordedHashes) {
  for (const auto& [label, t, r_max, graph, expected] :
       {std::tuple{"push t=5 r=1e-4 small", 5.0, 1e-4, &SmallRmat(),
                   0x2d7c36d988400a2eULL},
        std::tuple{"push t=10 r=1e-5 small", 10.0, 1e-5, &SmallRmat(),
                   0xd8a8029275c218e2ULL},
        std::tuple{"push t=5 r=1e-5 larger", 5.0, 1e-5, &LargerRmat(),
                   0xfa5835935615d940ULL}}) {
    const HeatKernel kernel(t);
    const uint64_t actual =
        HashCase(*graph, [&](const Graph& g, NodeId seed, QueryWorkspace& ws) {
          return HashPush(ws, HkPushInto(g, kernel, seed, r_max, ws));
        });
    ExpectHash(label, expected, actual);
  }
}

TEST(PushGoldenTest, HkPushPlusMatchesRecordedHashes) {
  for (const auto& [label, c, graph, expected] :
       {std::tuple{"plus budget small", PlusCase::kBudgetHit, &SmallRmat(),
                   0xad153da2dd61e24fULL},
        std::tuple{"plus early-exit small", PlusCase::kEarlyExit,
                   &SmallRmat(), 0xaf024339814d3308ULL},
        std::tuple{"plus full-drain small", PlusCase::kFullDrain,
                   &SmallRmat(), 0xd072e92f394600a9ULL},
        std::tuple{"plus budget larger", PlusCase::kBudgetHit, &LargerRmat(),
                   0x324be2b88875f11aULL},
        std::tuple{"plus early-exit larger", PlusCase::kEarlyExit,
                   &LargerRmat(), 0xd7c3fc8ebe7717c9ULL},
        std::tuple{"plus full-drain larger", PlusCase::kFullDrain,
                   &LargerRmat(), 0xae0a8f8407fd86dcULL}}) {
    const HeatKernel kernel(5.0);
    const HkPushPlusOptions options = PlusOptions(c);
    size_t budget_hits = 0;
    size_t early_exits = 0;
    const uint64_t actual =
        HashCase(*graph, [&](const Graph& g, NodeId seed, QueryWorkspace& ws) {
          const PushCounters counters =
              HkPushPlusInto(g, kernel, seed, options, ws);
          budget_hits += counters.hit_budget ? 1 : 0;
          early_exits += counters.hit_absolute_target ? 1 : 0;
          return HashPush(ws, counters);
        });
    ExpectHash(label, expected, actual);
    // Each case mostly takes the exit path it is named after (a seed in a
    // sparse corner can drain every hop without certifying the bound).
    const size_t seeds = Seeds(*graph).size();
    EXPECT_EQ(budget_hits, c == PlusCase::kBudgetHit ? seeds : 0) << label;
    if (c == PlusCase::kEarlyExit) {
      EXPECT_GE(early_exits, seeds - 1) << label;
    } else {
      EXPECT_EQ(early_exits, 0u) << label;
    }
  }
}

TEST(PushGoldenTest, HkRelaxMatchesRecordedHashes) {
  for (const auto& [label, t, eps_a, graph, expected] :
       {std::tuple{"relax t=5 eps=1e-4 small", 5.0, 1e-4, &SmallRmat(),
                   0x208a418a04d277ddULL},
        std::tuple{"relax t=10 eps=1e-5 small", 10.0, 1e-5, &SmallRmat(),
                   0x86ff05c14a012c5dULL},
        std::tuple{"relax t=5 eps=1e-5 larger", 5.0, 1e-5, &LargerRmat(),
                   0x4df00a59bca07f76ULL}}) {
    HkRelaxEstimator relax(*graph, HkRelaxOptions{t, eps_a});
    const uint64_t actual =
        HashCase(*graph, [&](const Graph&, NodeId seed, QueryWorkspace& ws) {
          EstimatorStats stats;
          relax.EstimateInto(seed, ws, &stats);
          return HashStats(ws, stats);
        });
    ExpectHash(label, expected, actual);
  }
}

TEST(PushGoldenTest, TeaPlusMatchesRecordedHashes) {
  ApproxParams params;
  params.t = 5.0;
  params.eps_r = 0.5;
  params.delta = 1.0 / LargerRmat().NumNodes();
  params.p_f = 1e-6;
  TeaPlusEstimator tea_plus(LargerRmat(), params, 99);
  const uint64_t actual = HashCase(
      LargerRmat(), [&](const Graph&, NodeId seed, QueryWorkspace& ws) {
        EstimatorStats stats;
        tea_plus.EstimateInto(seed, ws, &stats);
        return HashStats(ws, stats);
      });
  ExpectHash("tea+ t=5 larger", 0xf4badcd1c50ba3d9ULL, actual);
}

enum class ReuseKind { kPlus, kPush, kRelax };

/// One query of the reuse sequence: a push variant on a graph.
struct ReuseQuery {
  const Graph* graph;
  NodeId seed;
  PlusCase plus_case;
  ReuseKind kind;
};

uint64_t RunReuseQuery(const ReuseQuery& q, QueryWorkspace& ws) {
  const HeatKernel kernel(5.0);
  switch (q.kind) {
    case ReuseKind::kRelax: {
      HkRelaxEstimator relax(*q.graph, HkRelaxOptions{5.0, 1e-4});
      EstimatorStats stats;
      relax.EstimateInto(q.seed, ws, &stats);
      return HashStats(ws, stats);
    }
    case ReuseKind::kPush:
      return HashPush(ws, HkPushInto(*q.graph, kernel, q.seed, 1e-4, ws));
    case ReuseKind::kPlus:
      break;
  }
  return HashPush(ws, HkPushPlusInto(*q.graph, kernel, q.seed,
                                     PlusOptions(q.plus_case), ws));
}

TEST(PushGoldenTest, WorkspaceReuseMatchesFreshWorkspace) {
  const Graph& small = SmallRmat();
  const Graph& larger = LargerRmat();
  ASSERT_LT(small.NumNodes(), larger.NumNodes());
  const NodeId hub_small = Seeds(small).back();
  const NodeId hub_larger = Seeds(larger).back();
  constexpr ReuseKind kPlus = ReuseKind::kPlus;
  // Budget hit, then early exit, then a larger and a smaller graph; each
  // exit path leaves a partly filled hop behind for the next query.
  const std::vector<ReuseQuery> sequence = {
      {&small, hub_small, PlusCase::kBudgetHit, kPlus},
      {&small, 17, PlusCase::kEarlyExit, kPlus},
      {&larger, hub_larger, PlusCase::kFullDrain, kPlus},
      {&larger, 5, PlusCase::kBudgetHit, kPlus},
      {&small, 123, PlusCase::kFullDrain, kPlus},
      {&larger, hub_larger, PlusCase::kEarlyExit, ReuseKind::kRelax},
      {&small, hub_small, PlusCase::kEarlyExit, kPlus},
      {&larger, 17, PlusCase::kFullDrain, ReuseKind::kPush},
      {&small, 0, PlusCase::kBudgetHit, ReuseKind::kRelax},
      {&small, 0, PlusCase::kFullDrain, kPlus},
      {&small, hub_small, PlusCase::kFullDrain, ReuseKind::kPush},
  };
  QueryWorkspace reused;
  for (size_t i = 0; i < sequence.size(); ++i) {
    QueryWorkspace fresh;
    EXPECT_EQ(RunReuseQuery(sequence[i], reused),
              RunReuseQuery(sequence[i], fresh))
        << "query " << i;
    // Every exit path hands both dense helpers back with every slot
    // holding its sentinel (O(n) scans).
    EXPECT_TRUE(reused.next_hop.IsClear()) << "query " << i;
    EXPECT_TRUE(reused.hop_index.IsReleased()) << "query " << i;
  }
}

}  // namespace
}  // namespace hkpr
