// Multi-hop residue storage for HK-Push / HK-Push+ (and HK-Relax's Taylor
// levels).
//
// Unlike personalized-PageRank push methods (FORA et al.), heat-kernel push
// must keep residues generated at different hop counts separate, because the
// conditional stopping distribution h_u^(k) depends on k (the
// non-Markovianness discussed in Section 6). ResidueTable is that per-hop
// sparse storage plus the running aggregates TEA/TEA+ need: per-hop sums
// (for beta_k and alpha) and the total.
//
// Layout: each hop is a plain insertion-ordered vector of {node, residue}
// entries, with no per-hop hash table. Residue mass only moves from hop k to
// hop k+1, hop k+1 is empty when the drain of hop k starts, and only the hop
// being filled is ever looked up by node. Two workspace-owned dense helpers
// serve that one hop:
//
//  - HopAccumulator (HK-Push, HK-Push+): a double per node plus a first-touch
//    node list. The drain adds each share straight into the node's slot and
//    appends the hop's entries from the list when the hop closes, so the hop
//    vector is written once, in first-touch (= insertion) order. 12 bytes
//    per node.
//  - HopIndex (HK-Relax only): a node -> entry index, 4 bytes per node.
//    HK-Relax queues entry indices of a level that is still filling, which
//    an accumulator cannot hand out.
//
// Both hold a sentinel in every slot between fills and are reset by walking
// the hop they filled, in O(entries) rather than O(n), on every exit path.
//
// A table can be Reset() and reused across queries: hop storage only ever
// grows and keeps its capacity through clears, so a steady-state query
// sequence performs no heap allocations here.

#ifndef HKPR_HKPR_RESIDUE_H_
#define HKPR_HKPR_RESIDUE_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace hkpr {

/// One residue r_k[key] = value of a hop.
struct ResidueEntry {
  NodeId key;
  double value;
};

/// Dense node -> entry-index map for the one level HK-Relax is filling.
///
/// Invariant: between fills every slot holds kNone. A kernel inserts each
/// new node of the hop it fills through slots(), and calls Release() on that
/// hop before the index serves another hop or another query, which restores
/// the invariant in O(entries) rather than O(n). Storage only grows, so it is
/// allocation-free once it has seen the largest graph.
class HopIndex {
 public:
  static constexpr uint32_t kNone = 0xFFFFFFFFu;

  /// Makes every node id below `num_nodes` addressable. New slots are kNone.
  void Reserve(size_t num_nodes) {
    if (slots_.size() < num_nodes) slots_.resize(num_nodes, kNone);
  }

  /// slots()[v] is v's entry index in the hop being filled, or kNone.
  uint32_t* slots() { return slots_.data(); }

  /// Returns the slot of every node in `filled` to kNone; `filled` must hold
  /// exactly the entries inserted through this index since the last Release.
  void Release(const std::vector<ResidueEntry>& filled) {
    for (const ResidueEntry& e : filled) slots_[e.key] = kNone;
  }

  /// True when every slot holds kNone. O(n); for tests.
  bool IsReleased() const {
    return std::all_of(slots_.begin(), slots_.end(),
                       [](uint32_t s) { return s == kNone; });
  }

  size_t MemoryBytes() const { return slots_.capacity() * sizeof(uint32_t); }

 private:
  std::vector<uint32_t> slots_;
};

/// Dense per-node accumulator for the one hop HK-Push / HK-Push+ is filling.
///
/// Invariant: between fills every value slot holds kUntouched (-0.0). A
/// filling kernel adds each share into values()[u] and writes u at the tail
/// of touched(), advancing the tail only when the slot held -0.0 before the
/// add, so touched()[0..tail) lists the hop's nodes in first-touch order
/// without a branch. -0.0 works as the sentinel because -0.0 + x == x
/// exactly for every x >= 0 (the first add stores the share's own bits) and
/// no sum of non-negative shares is -0.0, so the sign bit alone says
/// "untouched". Flush() moves the filled hop into its entry vector and
/// restores the sentinels. Storage only grows, so it is allocation-free once
/// it has seen the largest graph.
class HopAccumulator {
 public:
  static constexpr double kUntouched = -0.0;

  /// Makes every node id below `num_nodes` addressable. New value slots are
  /// kUntouched; touched() gets one spare slot for the unconditional tail
  /// write after the last first touch.
  void Reserve(size_t num_nodes) {
    if (values_.size() < num_nodes) values_.resize(num_nodes, kUntouched);
    if (touched_.size() < num_nodes + 1) touched_.resize(num_nodes + 1);
  }

  double* values() { return values_.data(); }
  NodeId* touched() { return touched_.data(); }

  /// Appends {u, values()[u]} for u = touched()[0..count) to `hop`, in that
  /// order, and returns those slots to kUntouched. `count` must be the tail
  /// of the fill since the last Flush.
  void Flush(size_t count, std::vector<ResidueEntry>& hop) {
    for (size_t i = 0; i < count; ++i) {
      const NodeId u = touched_[i];
      hop.push_back(ResidueEntry{u, values_[u]});
      values_[u] = kUntouched;
    }
  }

  /// True when every value slot holds kUntouched, bit for bit. O(n); for
  /// tests.
  bool IsClear() const {
    return std::all_of(values_.begin(), values_.end(), [](double x) {
      return std::bit_cast<uint64_t>(x) == std::bit_cast<uint64_t>(kUntouched);
    });
  }

  size_t MemoryBytes() const {
    return values_.capacity() * sizeof(double) +
           touched_.capacity() * sizeof(NodeId);
  }

 private:
  std::vector<double> values_;
  std::vector<NodeId> touched_;
};

/// Sparse residue vectors r_s^(0..max_hop) with maintained hop sums.
class ResidueTable {
 public:
  /// Creates empty residue vectors for hops 0..max_hop inclusive.
  explicit ResidueTable(uint32_t max_hop) { Reset(max_hop); }

  /// Clears the table and re-dimensions it for hops 0..max_hop inclusive.
  /// Storage is retained (and only grows), so repeated Reset/fill cycles on
  /// one table are allocation-free once capacities have warmed up.
  void Reset(uint32_t max_hop) {
    const size_t needed = static_cast<size_t>(max_hop) + 1;
    if (hops_.size() < needed) hops_.resize(needed);
    num_hops_ = needed;
    for (auto& hop : hops_) hop.clear();
    hop_sum_.assign(hops_.size(), 0.0);
  }

  uint32_t max_hop() const { return static_cast<uint32_t>(num_hops_ - 1); }

  /// Current residue r_k[v] (0 if absent). A linear scan of hop k, for
  /// inspection; kernels address entries by index.
  double Get(uint32_t k, NodeId v) const {
    for (const ResidueEntry& e : hops_[k]) {
      if (e.key == v) return e.value;
    }
    return 0.0;
  }

  /// Appends r_k[v] = value to hop k, which must not hold v yet, and adds
  /// `value` to the hop sum. Returns the new entry's index.
  uint32_t Append(uint32_t k, NodeId v, double value) {
    hops_[k].push_back(ResidueEntry{v, value});
    hop_sum_[k] += value;
    return static_cast<uint32_t>(hops_[k].size() - 1);
  }

  /// Sets entry i of hop k to zero (the entry stays, with value 0).
  void ZeroAt(uint32_t k, uint32_t i) {
    hop_sum_[k] -= hops_[k][i].value;
    hops_[k][i].value = 0.0;
  }

  /// Sum of residues at hop k (maintained incrementally; see RecomputeSums
  /// for use after bulk mutation).
  double HopSum(uint32_t k) const { return hop_sum_[k]; }

  /// The hop sum itself, for a kernel that accumulates it in a register and
  /// writes it back.
  double& MutableHopSum(uint32_t k) { return hop_sum_[k]; }

  /// alpha = sum over all hops and nodes of the residues.
  double TotalSum() const {
    double s = 0.0;
    for (size_t k = 0; k < num_hops_; ++k) s += hop_sum_[k];
    return s;
  }

  /// Hop k's entries in insertion order.
  const std::vector<ResidueEntry>& Hop(uint32_t k) const { return hops_[k]; }
  std::vector<ResidueEntry>& MutableHop(uint32_t k) { return hops_[k]; }

  /// Recomputes hop sums by scanning entries; call after mutating residues
  /// directly through MutableHop (e.g. TEA+'s residue reduction).
  void RecomputeSums() {
    for (size_t k = 0; k < num_hops_; ++k) {
      double s = 0.0;
      for (const ResidueEntry& e : hops_[k]) s += e.value;
      hop_sum_[k] = s;
    }
  }

  /// Exact sum over hops of max_v r_k[v]/d(v) — the left side of
  /// Inequality (11) / TEA+'s Line 7 test. O(total entries).
  double MaxNormalizedResidueSum(const Graph& graph) const {
    double total = 0.0;
    for (size_t k = 0; k < num_hops_; ++k) {
      double best = 0.0;
      for (const ResidueEntry& e : hops_[k]) {
        if (e.value <= 0.0) continue;
        const double norm = e.value / graph.Degree(e.key);
        if (norm > best) best = norm;
      }
      total += best;
    }
    return total;
  }

  /// Number of stored entries across hops (including zeroed slots).
  size_t TotalEntries() const {
    size_t n = 0;
    for (size_t k = 0; k < num_hops_; ++k) n += hops_[k].size();
    return n;
  }

  /// Number of entries with a strictly positive residue.
  size_t TotalNonZeros() const {
    size_t n = 0;
    for (size_t k = 0; k < num_hops_; ++k) {
      for (const ResidueEntry& e : hops_[k]) {
        if (e.value > 0.0) ++n;
      }
    }
    return n;
  }

  size_t MemoryBytes() const {
    size_t b = hop_sum_.capacity() * sizeof(double);
    for (const auto& hop : hops_) b += hop.capacity() * sizeof(ResidueEntry);
    return b;
  }

 private:
  // May exceed num_hops_ after Reset.
  std::vector<std::vector<ResidueEntry>> hops_;
  std::vector<double> hop_sum_;
  size_t num_hops_ = 1;
};

}  // namespace hkpr

#endif  // HKPR_HKPR_RESIDUE_H_
