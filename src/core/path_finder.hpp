/// \file path_finder.hpp
/// \brief Critical-path search over the residual (not-yet-assigned) graph.
///
/// Each iteration of the slicing algorithm must find, among all maximal
/// paths of the residual graph, the one that minimizes the metric R
/// (Figure 1, step 3).  FEAST performs this search *exactly* with a dynamic
/// program over (node, effective-hop-count) states:
///
///   best[v][k] = max Σ virtual-cost over residual paths from a source to v
///                that contain exactly k non-negligible nodes.
///
/// For a fixed sink t and hop count k, every metric in metrics.hpp is
/// monotonically decreasing in Σv, so minimizing R over paths reduces to
/// maximizing Σv per (t, k) — the DP is exact, not a heuristic.  This
/// realizes the paper's "breadth-first traversal" with a per-level table.
///
/// The table is hop-banded.  A residual path into v is also a path of the
/// full graph, so its hop count is at most depth(v), the most
/// non-negligible nodes on any full-graph path ending at v.  Row v
/// therefore holds depth(v) + 1 entries, fixed at construction, and all
/// rows live in one flat arena.  Within one sweep each row also tracks the
/// live hop range [lo, hi) that seeds and relaxations have written; resets
/// clear only that range and relaxations iterate only over it.  Every entry
/// outside it is −∞, so the search visits exactly the states a full-width
/// table would hold finite, in the same order: the result is bit-identical
/// to the retained full-width CriticalPathFinderRef (path_finder_ref.hpp),
/// which `feastc diffdist` checks.
///
/// A *residual source* is an unassigned node all of whose predecessors are
/// assigned (its release lower bound lb is known); a *residual sink* is an
/// unassigned node all of whose successors are assigned (its deadline upper
/// bound ub is known).  The available window of a path is ub(sink) −
/// lb(source).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/comm_estimator.hpp"
#include "core/metrics.hpp"
#include "taskgraph/task_graph.hpp"

namespace feast {

/// Mutable bookkeeping of the slicing loop, shared with the path finder.
struct ResidualState {
  std::vector<bool> assigned;  ///< Node already carries a window.
  std::vector<Time> lb;        ///< Release lower bound (kUnsetTime = unknown).
  std::vector<Time> ub;        ///< Deadline upper bound (kUnsetTime = unknown).

  explicit ResidualState(std::size_t node_count)
      : assigned(node_count, false),
        lb(node_count, kUnsetTime),
        ub(node_count, kUnsetTime) {}
};

/// A critical path found by the search.
struct CriticalPathResult {
  std::vector<NodeId> nodes;  ///< Path members in precedence order.
  Time window_start = 0.0;    ///< lb of the first node.
  Time window_end = 0.0;      ///< ub of the last node.
  PathEvaluation eval;        ///< Window, Σv, effective hops.
  double ratio = 0.0;         ///< The minimized metric value R.
};

/// Exact minimum-R maximal-path search.  Construct once per distribution
/// (after SliceMetric::prepare) and call find() each iteration.
class CriticalPathFinder {
 public:
  CriticalPathFinder(const TaskGraph& graph, const SliceMetric& metric,
                     const CommCostEstimator& estimator);

  /// Finds the minimum-R maximal path of the residual graph, or nullopt
  /// when no unassigned node remains.  Deterministic: ties are broken
  /// toward the first candidate in topological order.
  std::optional<CriticalPathResult> find(const ResidualState& state);

  /// Effective (real or estimated) cost of a node, as used in the search.
  Time effective_cost(NodeId id) const {
    FEAST_REQUIRE(id.index() < effective_.size());
    return effective_[id.index()];
  }

  /// Virtual cost of a node under the metric.
  Time virtual_cost(NodeId id) const {
    FEAST_REQUIRE(id.index() < virtual_.size());
    return virtual_[id.index()];
  }

  /// Source-lb groups swept by every find() so far (one DP sweep each).
  std::uint64_t lb_groups() const noexcept { return lb_groups_; }

  /// DP relaxations attempted by every find() so far, path reconstruction
  /// included: one per finite (node, hops) entry and residual successor.
  std::uint64_t relaxations() const noexcept { return relaxations_; }

 private:
  /// One DP sweep seeded by the residual sources whose lb matches
  /// \p group_lb, over the residual nodes collected by find().
  void sweep(const ResidualState& state, Time group_lb);

  const TaskGraph* graph_;
  const SliceMetric* metric_;
  std::vector<Time> effective_;     ///< Per-node effective cost.
  std::vector<Time> virtual_;       ///< Per-node virtual cost v_i.
  std::vector<std::uint8_t> step_;  ///< 1 when the node is non-negligible.
  std::vector<NodeId> topo_;        ///< Full-graph topological order.

  // The hop-banded table: row v is best_/parent_[offset_[v] + k] for
  // k in [0, depth(v)] (offset_ has node_count + 1 entries), live over
  // [lo_[v], hi_[v]) (empty when lo ≥ hi).
  std::vector<std::size_t> offset_;
  std::vector<std::uint32_t> lo_;
  std::vector<std::uint32_t> hi_;
  std::vector<Time> best_;
  std::vector<NodeId> parent_;

  // Per-find() scratch, in topological order.
  std::vector<NodeId> residual_;
  std::vector<NodeId> sources_;
  std::vector<NodeId> sinks_;
  std::vector<Time> lbs_;

  std::uint64_t lb_groups_ = 0;
  std::uint64_t relaxations_ = 0;
};

}  // namespace feast
