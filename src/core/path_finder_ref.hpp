/// \file path_finder_ref.hpp
/// \brief The retained reference critical-path search.
///
/// CriticalPathFinderRef is the full-width DP that CriticalPathFinder
/// replaced: every row spans the residual graph's effective-node count and
/// every sweep clears, scans and relaxes all of it.  It is kept, like
/// list_schedule_ref for the scheduler, as the oracle the hop-banded finder
/// is checked against bit for bit (core/diffdist.hpp, `feastc diffdist`,
/// tests/test_dist_differential.cpp).  Nothing in the pipeline selects it:
/// only the differential harness, the tests and bench/perf_algorithms
/// reach it.
#pragma once

#include <optional>
#include <vector>

#include "core/annotation.hpp"
#include "core/path_finder.hpp"
#include "core/slicing.hpp"

namespace feast {

/// Exact minimum-R maximal-path search over full-width DP rows.  Same
/// contract and results as CriticalPathFinder.
class CriticalPathFinderRef {
 public:
  CriticalPathFinderRef(const TaskGraph& graph, const SliceMetric& metric,
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

 private:
  const TaskGraph* graph_;
  const SliceMetric* metric_;
  std::vector<Time> effective_;  ///< Per-node effective cost.
  std::vector<Time> virtual_;    ///< Per-node virtual cost v_i.
  std::vector<NodeId> topo_;     ///< Full-graph topological order.

  // Scratch buffers reused across find() calls (indexed [node][hops]).
  std::vector<std::vector<Time>> best_;
  std::vector<std::vector<NodeId>> parent_;
};

/// distribute_deadlines() over the reference finder: the same slicing loop
/// (core/slicing_detail.hpp), so any difference in the assignment comes
/// from the path search alone.
DeadlineAssignment distribute_deadlines_ref(const TaskGraph& graph, SliceMetric& metric,
                                            const CommCostEstimator& estimator,
                                            SlicingOptions options = {});

}  // namespace feast
