/// \file slicing_detail.hpp
/// \brief The slicing loop of Figure 1, generic over the critical-path
///        finder.
///
/// DeadlineDistributor runs it with CriticalPathFinder.  The distribution
/// differential (core/diffdist.hpp) runs the same loop with the retained
/// CriticalPathFinderRef, and with a lockstep finder that checks every
/// find() of one against the other, so the two finders are compared
/// through the one loop that ships.  A finder provides
/// `std::optional<CriticalPathResult> find(const ResidualState&)` and
/// `Time virtual_cost(NodeId) const`.
#pragma once

#include <algorithm>
#include <vector>

#include "core/annotation.hpp"
#include "core/metrics.hpp"
#include "core/path_finder.hpp"
#include "taskgraph/task_graph.hpp"

namespace feast {

namespace detail {

/// Runs the slicing loop over \p graph with \p finder, which was built for
/// \p graph and the already-prepared \p metric.
template <class Finder>
DeadlineAssignment slice_graph(const TaskGraph& graph, const SliceMetric& metric,
                               bool respect_interior_bounds, Finder& finder) {
  ResidualState state(graph.node_count());
  // Boundary conditions: input subtasks carry their release time, output
  // subtasks their end-to-end deadline (Figure 1, step 1).
  for (const NodeId id : graph.inputs()) {
    state.lb[id.index()] = graph.node(id).boundary_release;
  }
  for (const NodeId id : graph.outputs()) {
    state.ub[id.index()] = graph.node(id).boundary_deadline;
  }

  DeadlineAssignment result(graph);
  int iteration = 0;
  const SlackShare share = metric.share();

  while (auto critical = finder.find(state)) {
    const CriticalPathResult& path = *critical;
    FEAST_ASSERT(!path.nodes.empty());
    const double ratio = path.ratio;

    // Distribute the window over the path (Figure 1, step 4): contiguous
    // slices; negligible nodes get zero-width windows at their
    // predecessor's absolute deadline.  Overloaded windows (slack < 0)
    // compress slices proportionally to virtual cost so the slices never
    // spill past the window end; inverted windows (end before start, which
    // cross-path overlaps can produce under heavy overload) degenerate to
    // zero-width slices at the window end.
    const Time window = path.window_end - path.window_start;
    const bool inverted = window < 0.0;
    const bool overloaded = !inverted && path.eval.sum_virtual > window;
    const double compression =
        overloaded && path.eval.sum_virtual > kNegligibleCost
            ? window / path.eval.sum_virtual
            : 1.0;

    Time cursor = inverted ? path.window_end : path.window_start;
    std::vector<Time> releases(path.nodes.size());
    std::vector<Time> rel_deadlines(path.nodes.size());
    for (std::size_t i = 0; i < path.nodes.size(); ++i) {
      const NodeId id = path.nodes[i];
      if (respect_interior_bounds && is_set(state.lb[id.index()])) {
        cursor = std::max(cursor, state.lb[id.index()]);
      }
      const Time v = finder.virtual_cost(id);
      Time d = 0.0;
      if (v > kNegligibleCost && !inverted) {
        d = overloaded ? v * compression : slice_rel_deadline(v, ratio, share);
      }
      releases[i] = cursor;
      rel_deadlines[i] = d;
      cursor += d;
    }
    if (respect_interior_bounds) {
      // Backward clamp: no node's absolute deadline may exceed the earliest
      // deadline upper bound of itself or any later path node.
      Time cap = path.window_end;
      for (std::size_t i = path.nodes.size(); i-- > 0;) {
        const NodeId id = path.nodes[i];
        if (is_set(state.ub[id.index()])) cap = std::min(cap, state.ub[id.index()]);
        if (releases[i] + rel_deadlines[i] > cap) {
          const Time release = std::min(releases[i], cap);
          releases[i] = release;
          rel_deadlines[i] = std::max(0.0, cap - release);
        }
        cap = releases[i];  // next-earlier node must finish by our release
      }
    }

    for (std::size_t i = 0; i < path.nodes.size(); ++i) {
      result.assign(path.nodes[i], releases[i], rel_deadlines[i], iteration);
    }

    // Attach the rest of the graph to the spine (Figure 1, steps 5–11):
    // unassigned successors inherit a release lower bound, unassigned
    // predecessors a deadline upper bound.  Bounds accumulate across
    // iterations (max for lb, min for ub).
    for (const NodeId id : path.nodes) {
      state.assigned[id.index()] = true;
    }
    for (const NodeId id : path.nodes) {
      const Time abs_deadline = result.abs_deadline(id);
      const Time release = result.release(id);
      for (const NodeId succ : graph.succs(id)) {
        if (state.assigned[succ.index()]) continue;
        Time& lb = state.lb[succ.index()];
        lb = is_set(lb) ? std::max(lb, abs_deadline) : abs_deadline;
      }
      for (const NodeId pred : graph.preds(id)) {
        if (state.assigned[pred.index()]) continue;
        Time& ub = state.ub[pred.index()];
        ub = is_set(ub) ? std::min(ub, release) : release;
      }
    }

    SlicedPath record;
    record.nodes = path.nodes;
    record.window_start = path.window_start;
    record.window_end = path.window_end;
    record.ratio = ratio;
    record.iteration = iteration;
    result.record_path(std::move(record));
    ++iteration;
  }

  FEAST_ENSURE(result.complete());
  return result;
}

}  // namespace detail
}  // namespace feast
