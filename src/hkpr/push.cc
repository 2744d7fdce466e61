#include "hkpr/push.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "common/logging.h"

// Two things here rest on IEEE-754 round-to-nearest arithmetic done exactly
// as written: the kernels' bit-identity (PushGoldenTest) and the exactness of
// the divide-free exit-bound pre-test (MayRaiseNormBound in push.h).
#ifdef __FAST_MATH__
#error "push.cc needs IEEE-754 arithmetic: -ffast-math breaks the push kernels' bit-identity and the exactness of the exit-bound pre-test"
#endif

namespace hkpr {

namespace {

/// HK-Push+'s increase-only upper bounds on max_v r_k[v]/d(v) per hop.
/// Adding residue raises a hop's bound exactly; zeroing an entry leaves it
/// stale but still an upper bound, and once hop k is fully drained every
/// surviving entry is below `threshold`, so the bound is then clamped to it.
/// The push may stop as soon as the bound sum certifies Inequality (11).
class ExitBound {
 public:
  ExitBound(double eps_a, double threshold, uint32_t cap,
            uint32_t seed_degree, std::vector<double>& norm_bound)
      : eps_a_(eps_a), threshold_(threshold), norm_bound_(norm_bound) {
    norm_bound_.assign(static_cast<size_t>(cap) + 1, 0.0);
    norm_bound_[0] = seed_degree > 0 ? 1.0 / seed_degree : 0.0;
    total_ = norm_bound_[0];
  }

  /// Raise(k, r / d) for a residue r >= 0 of a node of degree d, with the
  /// divide taken only when MayRaiseNormBound says the bound can move.
  void Offer(uint32_t k, double r, uint32_t d) {
    if (MayRaiseNormBound(r, d, norm_bound_[k])) Raise(k, r / d);
  }

  void Raise(uint32_t k, double norm) {
    if (norm > norm_bound_[k]) {
      total_ += norm - norm_bound_[k];
      norm_bound_[k] = norm;
    }
  }

  /// Hop k drained: all remaining residues there are below threshold*d(v).
  void Drained(uint32_t k) {
    if (norm_bound_[k] > threshold_) {
      total_ -= norm_bound_[k] - threshold_;
      norm_bound_[k] = threshold_;
    }
  }

  bool Certified() const { return total_ <= eps_a_; }

 private:
  double eps_a_;
  double threshold_;
  std::vector<double>& norm_bound_;
  double total_;
};

/// The hop-drain loop HK-Push and HK-Push+ share. Hops 0..max_hop-1 of the
/// freshly seeded `ws.residues` are drained in ascending order (residues
/// only flow k -> k+1, so nothing re-enters a drained hop), each in
/// insertion order, converting every entry with residue above
/// threshold * d(v). The loop stops before an entry once `budget` push
/// operations are spent and, when `bound` is given (HK-Push+ with early
/// exit), after an entry or a hop once it certifies Inequality (11).
///
/// Hop k+1 is filled through ws.next_hop: every neighbor adds its share to
/// a dense per-node slot and is listed on its first touch, with no
/// data-dependent branch. When hop k ends, on every exit path, the list is
/// flushed into hop k+1's entry vector, which restores the sentinels. Each
/// slot receives its shares in scatter order and the hop's entries come out
/// in first-touch order, so entries, values and sums are bit-identical to
/// the recorded PushGoldenTest hashes.
PushCounters DrainHops(const Graph& graph, const HeatKernel& kernel,
                       double threshold, uint64_t budget, ExitBound* bound,
                       QueryWorkspace& ws) {
  ResidueTable& residues = ws.residues;
  ws.next_hop.Reserve(graph.NumNodes());
  double* const acc = ws.next_hop.values();
  NodeId* const touched = ws.next_hop.touched();
  PushCounters out;
  bool stopped = false;
  for (uint32_t k = 0; k < residues.max_hop() && !stopped; ++k) {
    // Hop k does not grow while it drains; hop k+1 fills in ws.next_hop.
    std::vector<ResidueEntry>& hop = residues.MutableHop(k);
    ResidueEntry* const entries = hop.data();
    const size_t hop_size = hop.size();
    HKPR_DCHECK(residues.Hop(k + 1).empty());
    size_t tail = 0;
    // Both hop sums are accumulated locally and written back below; each
    // still receives its additions and subtractions in the same order.
    double hop_sum = residues.HopSum(k);
    double next_sum = residues.HopSum(k + 1);
    const double reserve_frac = kernel.ReserveFraction(k);
    for (size_t i = 0; i < hop_size; ++i) {
      const NodeId v = entries[i].key;
      const double r = entries[i].value;
      const uint32_t d = graph.Degree(v);
      if (d == 0 || r <= threshold * d) continue;
      if (out.push_operations >= budget) {
        out.hit_budget = true;
        stopped = true;
        break;
      }
      ws.result.Add(v, reserve_frac * r);
      // A divide, not a multiply by 1/d: that rounds differently and would
      // move later threshold and early-exit decisions.
      const double share = (1.0 - reserve_frac) * r / d;
      for (NodeId u : graph.Neighbors(v)) {
        const double before = acc[u];
        const double new_r = before + share;
        acc[u] = new_r;
        touched[tail] = u;
        tail += std::signbit(before);
        next_sum += share;
        if (bound != nullptr) bound->Offer(k + 1, new_r, graph.Degree(u));
      }
      hop_sum -= r;
      entries[i].value = 0.0;
      out.push_operations += d;
      ++out.entries_processed;
      if (bound != nullptr && bound->Certified()) {
        out.hit_absolute_target = true;
        stopped = true;
        break;
      }
    }
    residues.MutableHopSum(k) = hop_sum;
    residues.MutableHopSum(k + 1) = next_sum;
    ws.next_hop.Flush(tail, residues.MutableHop(k + 1));
    if (bound != nullptr && !stopped) {
      bound->Drained(k);
      if (bound->Certified()) {
        out.hit_absolute_target = true;
        stopped = true;
      }
    }
  }
  return out;
}

PushResult ToPushResult(QueryWorkspace&& ws, const PushCounters& counters) {
  PushResult out{std::move(ws.result), std::move(ws.residues)};
  out.push_operations = counters.push_operations;
  out.entries_processed = counters.entries_processed;
  out.hit_absolute_target = counters.hit_absolute_target;
  out.hit_budget = counters.hit_budget;
  return out;
}

}  // namespace

PushCounters HkPushInto(const Graph& graph, const HeatKernel& kernel,
                        NodeId seed, double r_max, QueryWorkspace& ws) {
  HKPR_CHECK(seed < graph.NumNodes());
  HKPR_CHECK(r_max > 0.0);
  ws.PrepareQuery(kernel.MaxHop());
  ws.residues.Append(0, seed, 1.0);
  return DrainHops(graph, kernel, r_max, std::numeric_limits<uint64_t>::max(),
                   nullptr, ws);
}

PushCounters HkPushPlusInto(const Graph& graph, const HeatKernel& kernel,
                            NodeId seed, const HkPushPlusOptions& options,
                            QueryWorkspace& ws) {
  HKPR_CHECK(seed < graph.NumNodes());
  HKPR_CHECK(options.eps_r > 0.0 && options.delta > 0.0);
  HKPR_CHECK(options.hop_cap >= 1);
  const uint32_t cap = std::min(options.hop_cap, kernel.MaxHop());
  ws.PrepareQuery(cap);
  ws.residues.Append(0, seed, 1.0);
  const double eps_a = options.eps_r * options.delta;
  const double threshold = eps_a / static_cast<double>(cap);
  if (!options.enable_early_exit) {
    return DrainHops(graph, kernel, threshold, options.push_budget, nullptr,
                     ws);
  }
  ExitBound bound(eps_a, threshold, cap, graph.Degree(seed), ws.norm_bound);
  return DrainHops(graph, kernel, threshold, options.push_budget, &bound, ws);
}

PushResult HkPush(const Graph& graph, const HeatKernel& kernel, NodeId seed,
                  double r_max) {
  QueryWorkspace ws;
  const PushCounters counters = HkPushInto(graph, kernel, seed, r_max, ws);
  return ToPushResult(std::move(ws), counters);
}

PushResult HkPushPlus(const Graph& graph, const HeatKernel& kernel,
                      NodeId seed, const HkPushPlusOptions& options) {
  QueryWorkspace ws;
  const PushCounters counters =
      HkPushPlusInto(graph, kernel, seed, options, ws);
  return ToPushResult(std::move(ws), counters);
}

}  // namespace hkpr
