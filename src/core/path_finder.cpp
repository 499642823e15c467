#include "core/path_finder.hpp"

#include <algorithm>
#include <limits>

#include "taskgraph/algorithms.hpp"

namespace feast {

namespace {

constexpr std::uint32_t kEmptyLo = std::numeric_limits<std::uint32_t>::max();

}  // namespace

CriticalPathFinder::CriticalPathFinder(const TaskGraph& graph, const SliceMetric& metric,
                                       const CommCostEstimator& estimator)
    : graph_(&graph), metric_(&metric) {
  const std::size_t n = graph.node_count();
  effective_.resize(n);
  virtual_.resize(n);
  step_.resize(n);
  for (const NodeId id : graph.all_nodes()) {
    const Time eff = graph.is_computation(id) ? graph.node(id).exec_time
                                              : estimator.estimate(graph, id);
    effective_[id.index()] = eff;
    virtual_[id.index()] = metric.virtual_cost(graph, id, eff);
    step_[id.index()] = eff > kNegligibleCost ? 1 : 0;
    FEAST_ASSERT_MSG(virtual_[id.index()] >= eff - kTimeEps,
                     "virtual cost must not undercut the effective cost");
  }
  const auto order = topological_order(graph);
  FEAST_REQUIRE_MSG(order.has_value(), "critical-path search requires an acyclic graph");
  topo_ = *order;

  // depth(v): the most non-negligible nodes on any full-graph path ending
  // at v.  Every residual path into v is such a path, so row v needs only
  // hop counts 0..depth(v).
  std::vector<std::uint32_t> depth(n, 0);
  for (const NodeId id : topo_) {
    std::uint32_t deepest = 0;
    for (const NodeId p : graph.preds(id)) deepest = std::max(deepest, depth[p.index()]);
    depth[id.index()] = deepest + step_[id.index()];
  }
  offset_.resize(n + 1);
  offset_[0] = 0;
  for (std::size_t v = 0; v < n; ++v) offset_[v + 1] = offset_[v] + depth[v] + 1;
  best_.assign(offset_[n], -kInfiniteTime);
  parent_.resize(offset_[n]);
  lo_.assign(n, kEmptyLo);
  hi_.assign(n, 0);
}

void CriticalPathFinder::sweep(const ResidualState& state, Time group_lb) {
  const TaskGraph& graph = *graph_;

  // Reset the live ranges of the residual rows.  Rows of nodes assigned
  // since the last sweep keep stale values but are never read again.
  for (const NodeId id : residual_) {
    const std::size_t v = id.index();
    for (std::uint32_t k = lo_[v]; k < hi_[v]; ++k) best_[offset_[v] + k] = -kInfiniteTime;
    lo_[v] = kEmptyLo;
    hi_[v] = 0;
  }
  for (const NodeId s : sources_) {
    if (!time_eq(state.lb[s.index()], group_lb)) continue;
    const std::size_t v = s.index();
    const std::uint32_t k = step_[v];
    Time& entry = best_[offset_[v] + k];
    if (virtual_[v] > entry) {
      entry = virtual_[v];
      parent_[offset_[v] + k] = NodeId();
      lo_[v] = std::min(lo_[v], k);
      hi_[v] = std::max(hi_[v], k + 1);
    }
  }

  // Forward propagation in topological order over residual arcs.  Every
  // written entry is finite and only grows, so a row's live range has
  // finite ends: relaxing from id always leaves [lo + step, hi + step)
  // inside the successor's live range, whether or not an entry improved.
  std::uint64_t relaxations = 0;
  for (const NodeId id : residual_) {
    const std::size_t v = id.index();
    const std::uint32_t lo = lo_[v];
    const std::uint32_t hi = hi_[v];
    if (lo >= hi) continue;
    const Time* row = &best_[offset_[v]];
    for (const NodeId succ : graph.succs(id)) {
      const std::size_t w = succ.index();
      if (state.assigned[w]) continue;
      const std::uint32_t step = step_[w];
      FEAST_ASSERT(offset_[w] + hi + step <= offset_[w + 1]);
      Time* succ_row = &best_[offset_[w] + step];
      NodeId* succ_par = &parent_[offset_[w] + step];
      const Time vw = virtual_[w];
      for (std::uint32_t k = lo; k < hi; ++k) {
        if (row[k] <= -kInfiniteTime) continue;
        ++relaxations;
        const Time cand = row[k] + vw;
        if (cand > succ_row[k]) {
          succ_row[k] = cand;
          succ_par[k] = id;
        }
      }
      lo_[w] = std::min(lo_[w], lo + step);
      hi_[w] = std::max(hi_[w], hi + step);
    }
  }
  relaxations_ += relaxations;
}

std::optional<CriticalPathResult> CriticalPathFinder::find(const ResidualState& state) {
  const TaskGraph& graph = *graph_;
  FEAST_REQUIRE(state.assigned.size() == graph.node_count());
  const auto assigned = [&](NodeId p) { return state.assigned[p.index()]; };

  // Collect the residual nodes, its sources and its sinks in topological
  // order.
  residual_.clear();
  sources_.clear();
  sinks_.clear();
  for (const NodeId id : topo_) {
    if (state.assigned[id.index()]) continue;
    residual_.push_back(id);
    const auto& preds = graph.preds(id);
    if (std::all_of(preds.begin(), preds.end(), assigned)) {
      FEAST_ASSERT_MSG(is_set(state.lb[id.index()]),
                       "residual source lacks a release lower bound");
      sources_.push_back(id);
    }
    const auto& succs = graph.succs(id);
    if (std::all_of(succs.begin(), succs.end(), assigned)) {
      FEAST_ASSERT_MSG(is_set(state.ub[id.index()]),
                       "residual sink lacks a deadline upper bound");
      sinks_.push_back(id);
    }
  }
  if (residual_.empty()) return std::nullopt;
  FEAST_ASSERT_MSG(!sources_.empty(), "non-empty residual graph has no source");

  // Group the sources by their release lower bound so that sources sharing
  // lb share one DP sweep.
  lbs_.clear();
  for (const NodeId s : sources_) {
    const Time lb = state.lb[s.index()];
    if (std::none_of(lbs_.begin(), lbs_.end(), [&](Time t) { return time_eq(t, lb); })) {
      lbs_.push_back(lb);
    }
  }

  // The winning (sink, hops) state and the group that reached it.
  bool found = false;
  NodeId win_sink;
  std::uint32_t win_hops = 0;
  Time win_lb = 0.0;
  PathEvaluation win_eval;
  double win_ratio = 0.0;
  const SlackShare share = metric_->share();

  for (const Time group_lb : lbs_) {
    ++lb_groups_;
    sweep(state, group_lb);

    // Evaluate residual sinks.
    for (const NodeId id : sinks_) {
      const std::size_t v = id.index();
      const Time window = state.ub[v] - group_lb;
      const Time* row = &best_[offset_[v]];
      for (std::uint32_t k = lo_[v]; k < hi_[v]; ++k) {
        if (row[k] <= -kInfiniteTime) continue;
        PathEvaluation eval;
        eval.window = window;
        eval.sum_virtual = row[k];
        eval.effective_hops = static_cast<int>(k);
        const double ratio = slice_ratio(eval, share);
        if (!found || ratio < win_ratio) {
          found = true;
          win_sink = id;
          win_hops = k;
          win_lb = group_lb;
          win_eval = eval;
          win_ratio = ratio;
        }
      }
    }
  }
  if (!found) return std::nullopt;

  // The table holds the last group's sweep; re-run the winner's to walk
  // its parent pointers back from (sink, hops).
  if (!time_eq(win_lb, lbs_.back())) sweep(state, win_lb);
  CriticalPathResult result;
  NodeId cur = win_sink;
  std::uint32_t k = win_hops;
  while (cur.valid()) {
    result.nodes.push_back(cur);
    const NodeId par = parent_[offset_[cur.index()] + k];
    k -= step_[cur.index()];
    cur = par;
  }
  std::reverse(result.nodes.begin(), result.nodes.end());
  result.window_start = win_lb;
  result.window_end = state.ub[win_sink.index()];
  result.eval = win_eval;
  result.ratio = win_ratio;
  return result;
}

}  // namespace feast
