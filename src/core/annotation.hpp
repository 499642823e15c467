/// \file annotation.hpp
/// \brief The product of deadline distribution: per-subtask execution
///        windows (release time, relative deadline, absolute deadline).
///
/// The distribution algorithm (§4.2, Figure 1) takes a task graph and
/// produces an *annotated* graph.  FEAST keeps the annotation separate from
/// the immutable TaskGraph so one graph can be distributed under many
/// metric/estimator combinations during an experiment sweep.
#pragma once

#include <vector>

#include "taskgraph/task_graph.hpp"
#include "util/time_types.hpp"

namespace feast {

/// The execution window assigned to one node.
struct NodeWindow {
  Time release = kUnsetTime;       ///< r_i: earliest allowed start.
  Time rel_deadline = kUnsetTime;  ///< d_i: time allotted from release.
  int iteration = -1;              ///< Slicing iteration that assigned it.

  bool assigned() const noexcept { return is_set(release); }

  /// Absolute deadline D_i = r_i + d_i.
  Time abs_deadline() const noexcept { return release + rel_deadline; }
};

/// One critical path sliced by an iteration of the algorithm, kept for
/// introspection, validation and tests.
struct SlicedPath {
  std::vector<NodeId> nodes;  ///< Path nodes in precedence order.
  Time window_start = 0.0;    ///< lb of the path's first node.
  Time window_end = 0.0;      ///< ub of the path's last node.
  double ratio = 0.0;         ///< Metric value R that made it critical.
  int iteration = -1;
};

/// Windows for every node of a graph plus the slicing history.
class DeadlineAssignment {
 public:
  DeadlineAssignment() = default;

  /// Creates an all-unassigned annotation sized for \p graph.
  explicit DeadlineAssignment(const TaskGraph& graph)
      : windows_(graph.node_count()) {}

  /// An annotation of \p graph holding \p windows (one per node, in node
  /// order) and no slicing history: the windows of another assignment of
  /// the same graph, replayed.
  DeadlineAssignment(const TaskGraph& graph, std::vector<NodeWindow> windows);

  /// Number of node slots.
  std::size_t size() const noexcept { return windows_.size(); }

  /// Every node's window, in node order.
  const std::vector<NodeWindow>& windows() const noexcept { return windows_; }

  /// Window of a node (possibly unassigned).
  const NodeWindow& window(NodeId id) const {
    FEAST_REQUIRE(id.index() < windows_.size());
    return windows_[id.index()];
  }

  /// window() without the bounds check, for the scheduler hot path:
  /// list_schedule requires complete() once per run, after which every
  /// in-range window is assigned and per-node re-checking (two contract
  /// branches per read, ~180 reads per run) only costs.
  const NodeWindow& window_unchecked(NodeId id) const noexcept {
    return windows_[id.index()];
  }

  /// True when every node has a window.  O(1): assign() rejects double
  /// assignment, so counting assignments counts assigned nodes exactly
  /// (the check runs as a precondition on every scheduled graph).
  bool complete() const noexcept {
    return assigned_count_ == windows_.size();
  }

  /// Assigns a window; \p rel_deadline must be non-negative.
  void assign(NodeId id, Time release, Time rel_deadline, int iteration);

  /// r_i of an assigned node.
  Time release(NodeId id) const { return checked(id).release; }

  /// d_i of an assigned node.
  Time rel_deadline(NodeId id) const { return checked(id).rel_deadline; }

  /// D_i = r_i + d_i of an assigned node.
  Time abs_deadline(NodeId id) const { return checked(id).abs_deadline(); }

  /// Laxity before scheduling: d_i − c_i for computation nodes (the slack
  /// the subtask can absorb and still meet its absolute deadline).
  Time laxity(const TaskGraph& graph, NodeId id) const;

  /// Appends a sliced path to the history.
  void record_path(SlicedPath path) { paths_.push_back(std::move(path)); }

  /// Slicing history in iteration order.
  const std::vector<SlicedPath>& paths() const noexcept { return paths_; }

  /// Minimum pre-scheduling laxity over all computation subtasks; the
  /// quantity BST maximizes in the strict-locality setting.
  Time min_laxity(const TaskGraph& graph) const;

 private:
  const NodeWindow& checked(NodeId id) const {
    const NodeWindow& w = window(id);
    FEAST_REQUIRE_MSG(w.assigned(), "node has no assigned window");
    return w;
  }

  std::vector<NodeWindow> windows_;
  std::vector<SlicedPath> paths_;
  std::size_t assigned_count_ = 0;  ///< Distinct assigned nodes (see complete()).
};

}  // namespace feast
