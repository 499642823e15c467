#include "core/annotation.hpp"

#include <algorithm>
#include <utility>

namespace feast {

DeadlineAssignment::DeadlineAssignment(const TaskGraph& graph,
                                       std::vector<NodeWindow> windows)
    : windows_(std::move(windows)) {
  FEAST_REQUIRE_MSG(windows_.size() == graph.node_count(),
                    "windows sized for a different graph");
  assigned_count_ = static_cast<std::size_t>(
      std::count_if(windows_.begin(), windows_.end(),
                    [](const NodeWindow& w) { return w.assigned(); }));
}

void DeadlineAssignment::assign(NodeId id, Time release, Time rel_deadline,
                                int iteration) {
  FEAST_REQUIRE(id.index() < windows_.size());
  FEAST_REQUIRE_MSG(!windows_[id.index()].assigned(), "node already has a window");
  FEAST_REQUIRE(is_set(release));
  FEAST_REQUIRE_MSG(rel_deadline >= 0.0, "relative deadline must be non-negative");
  windows_[id.index()] = NodeWindow{release, rel_deadline, iteration};
  ++assigned_count_;
}

Time DeadlineAssignment::laxity(const TaskGraph& graph, NodeId id) const {
  FEAST_REQUIRE(graph.is_computation(id));
  return rel_deadline(id) - graph.node(id).exec_time;
}

Time DeadlineAssignment::min_laxity(const TaskGraph& graph) const {
  Time best = kInfiniteTime;
  for (const NodeId id : graph.computation_nodes()) {
    best = std::min(best, laxity(graph, id));
  }
  return best;
}

}  // namespace feast
