#include "core/diffdist.hpp"

#include <array>
#include <bit>
#include <memory>
#include <ostream>
#include <sstream>

#include "core/comm_estimator.hpp"
#include "core/metrics.hpp"
#include "core/path_finder.hpp"
#include "core/path_finder_ref.hpp"
#include "core/slicing.hpp"
#include "core/slicing_detail.hpp"
#include "taskgraph/generator.hpp"
#include "taskgraph/shapes.hpp"
#include "util/rng.hpp"

namespace feast {

namespace {

constexpr std::uint64_t kDiffStream = 0xD1FFD157U;

/// One seeded graph plus the slicing option it is replayed under.
struct Workload {
  TaskGraph graph;
  SlicingOptions options;
  std::string describe;  ///< Reproducer text for failure reports.
};

Workload make_workload(std::uint64_t root, int trial, bool quick) {
  Pcg32 rng(seed_for(root, {kDiffStream, static_cast<std::uint64_t>(trial)}));
  constexpr std::array<double, 3> kCcrs = {0.1, 1.0, 5.0};
  // 0.8 overloads the graph: inverted and compressed windows.
  constexpr std::array<double, 4> kOlrs = {0.8, 1.1, 1.5, 3.0};
  const double ccr = kCcrs[rng.uniform_index(kCcrs.size())];
  const double olr = kOlrs[rng.uniform_index(kOlrs.size())];
  const auto scenario = static_cast<ExecSpreadScenario>(rng.uniform_int(0, 2));

  Workload w;
  std::ostringstream os;
  os << "trial " << trial << ": ";
  if (rng.uniform_int(0, 3) == 0) {
    // The structured §8 families: long chains, joins, forks, fan-outs.
    ShapeConfig shape;
    shape.exec_spread = exec_spread_of(scenario);
    shape.ccr = ccr;
    shape.olr = olr;
    switch (rng.uniform_int(0, 4)) {
      case 0: {
        const int length = rng.uniform_int(2, quick ? 12 : 40);
        w.graph = make_chain(length, shape, rng);
        os << "chain(" << length << ")";
        break;
      }
      case 1: {
        const int depth = rng.uniform_int(2, quick ? 3 : 4);
        const int branching = rng.uniform_int(2, 3);
        w.graph = make_in_tree(depth, branching, shape, rng);
        os << "in-tree(" << depth << "," << branching << ")";
        break;
      }
      case 2: {
        const int depth = rng.uniform_int(2, quick ? 3 : 4);
        const int branching = rng.uniform_int(2, 3);
        w.graph = make_out_tree(depth, branching, shape, rng);
        os << "out-tree(" << depth << "," << branching << ")";
        break;
      }
      case 3: {
        const int stages = rng.uniform_int(1, 3);
        const int width = rng.uniform_int(2, quick ? 3 : 5);
        const int length = rng.uniform_int(1, quick ? 2 : 4);
        w.graph = make_fork_join(stages, width, length, shape, rng);
        os << "fork-join(" << stages << "," << width << "," << length << ")";
        break;
      }
      default: {
        const int width = rng.uniform_int(2, quick ? 4 : 10);
        w.graph = make_diamond(width, shape, rng);
        os << "diamond(" << width << ")";
        break;
      }
    }
  } else {
    RandomGraphConfig config;
    // Three size classes: small graphs shake out edge cases (joins, single
    // chains) fast; the fig2-sized class exercises the paper's workload.
    switch (quick ? rng.uniform_int(0, 1) : rng.uniform_int(0, 2)) {
      case 0:
        config.min_subtasks = 5;
        config.max_subtasks = 14;
        config.min_depth = 2;
        config.max_depth = 5;
        break;
      case 1:
        config.min_subtasks = 15;
        config.max_subtasks = 30;
        config.min_depth = 4;
        config.max_depth = 8;
        break;
      default:
        break;  // paper defaults: 40-60 subtasks, depth 8-12
    }
    config.set_scenario(scenario);
    config.ccr = ccr;
    config.olr = olr;
    if (rng.uniform_int(0, 3) == 0) config.strict_fanin_cap = true;
    w.graph = generate_random_graph(config, rng);
    os << "random";
  }

  // Locality mix: fully relaxed, partially pinned, fully strict.
  constexpr std::array<double, 3> kPinned = {0.0, 0.25, 1.0};
  const double pinned = kPinned[rng.uniform_index(kPinned.size())];
  if (pinned > 0.0) pin_random_fraction(w.graph, pinned, rng.uniform_int(2, 16), rng);
  w.options.respect_interior_bounds = rng.uniform_int(0, 1) == 1;

  os << ", " << w.graph.subtask_count() << " subtasks, " << to_string(scenario)
     << ", ccr=" << ccr << ", olr=" << olr << ", pinned=" << pinned
     << ", interior-bounds=" << (w.options.respect_interior_bounds ? "on" : "off");
  w.describe = os.str();
  return w;
}

/// One metric × estimator pair of the grid.
struct Config {
  const char* name;
  std::unique_ptr<SliceMetric> (*metric)();
  bool ccaa;
};

constexpr std::array<Config, 10> kConfigs = {{
    {"pure+ccne", [] { return make_pure(); }, false},
    {"pure+ccaa", [] { return make_pure(); }, true},
    {"norm+ccne", [] { return make_norm(); }, false},
    {"norm+ccaa", [] { return make_norm(); }, true},
    {"thres+ccne", [] { return make_thres(1.0); }, false},
    {"thres+ccaa", [] { return make_thres(1.0); }, true},
    {"adapt(2)+ccne", [] { return make_adapt(2); }, false},
    {"adapt(2)+ccaa", [] { return make_adapt(2); }, true},
    {"adapt(16)+ccne", [] { return make_adapt(16); }, false},
    {"adapt(16)+ccaa", [] { return make_adapt(16); }, true},
}};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Empty when equal, else the first differing field.
std::string diff_paths(const CriticalPathResult& fast, const CriticalPathResult& ref) {
  if (fast.nodes != ref.nodes) return "path nodes";
  if (!same_bits(fast.window_start, ref.window_start)) return "window start";
  if (!same_bits(fast.window_end, ref.window_end)) return "window end";
  if (!same_bits(fast.eval.window, ref.eval.window)) return "eval window";
  if (!same_bits(fast.eval.sum_virtual, ref.eval.sum_virtual)) return "sum of v";
  if (fast.eval.effective_hops != ref.eval.effective_hops) return "effective hops";
  if (!same_bits(fast.ratio, ref.ratio)) return "ratio";
  return {};
}

/// Empty when equal, else the first differing node window or sliced path.
std::string diff_assignments(const TaskGraph& graph, const DeadlineAssignment& fast,
                             const DeadlineAssignment& ref) {
  for (const NodeId id : graph.all_nodes()) {
    const NodeWindow& a = fast.window(id);
    const NodeWindow& b = ref.window(id);
    if (!same_bits(a.release, b.release) || !same_bits(a.rel_deadline, b.rel_deadline) ||
        a.iteration != b.iteration) {
      return "window of node " + std::to_string(id.index());
    }
  }
  if (fast.paths().size() != ref.paths().size()) return "sliced path count";
  for (std::size_t i = 0; i < fast.paths().size(); ++i) {
    const SlicedPath& a = fast.paths()[i];
    const SlicedPath& b = ref.paths()[i];
    if (a.nodes != b.nodes || !same_bits(a.window_start, b.window_start) ||
        !same_bits(a.window_end, b.window_end) || !same_bits(a.ratio, b.ratio) ||
        a.iteration != b.iteration) {
      return "sliced path " + std::to_string(i);
    }
  }
  return {};
}

/// Runs both finders on every residual state of the reference loop and
/// hands the loop the reference result, so the loop's assignment is the
/// reference assignment.
class LockstepFinder {
 public:
  LockstepFinder(const TaskGraph& graph, const SliceMetric& metric,
                 const CommCostEstimator& estimator)
      : fast_(graph, metric, estimator), ref_(graph, metric, estimator) {}

  std::optional<CriticalPathResult> find(const ResidualState& state) {
    auto fast = fast_.find(state);
    auto ref = ref_.find(state);
    ++finds_;
    if (problem_.empty()) {
      std::string why;
      if (fast.has_value() != ref.has_value()) {
        why = fast ? "fast found a path, reference none" : "reference found a path, fast none";
      } else if (fast) {
        why = diff_paths(*fast, *ref);
      }
      if (!why.empty()) problem_ = "find() #" + std::to_string(finds_) + ": " + why;
    }
    return ref;
  }

  Time virtual_cost(NodeId id) const { return ref_.virtual_cost(id); }

  long long finds() const noexcept { return finds_; }
  const std::string& problem() const noexcept { return problem_; }

 private:
  CriticalPathFinder fast_;
  CriticalPathFinderRef ref_;
  long long finds_ = 0;
  std::string problem_;  ///< First divergence, empty while none.
};

}  // namespace

DiffDistResult run_diffdist(const DiffDistConfig& config, std::ostream* progress) {
  DiffDistResult result;
  result.configs = static_cast<int>(kConfigs.size());
  const auto ccne = make_ccne();
  const auto ccaa = make_ccaa();

  for (int trial = 0; trial < config.trials; ++trial) {
    const Workload w = make_workload(config.seed, trial, config.quick);

    for (const Config& c : kConfigs) {
      const CommCostEstimator& estimator = c.ccaa ? *ccaa : *ccne;
      const auto note = [&](const std::string& what) {
        ++result.mismatches;
        if (result.first_problem.empty()) {
          result.first_problem = w.describe + ", " + c.name + " (seed " +
                                 std::to_string(config.seed) + "): " + what;
        }
      };

      const auto ref_metric = c.metric();
      ref_metric->prepare(w.graph);
      LockstepFinder lockstep(w.graph, *ref_metric, estimator);
      const DeadlineAssignment ref = detail::slice_graph(
          w.graph, *ref_metric, w.options.respect_interior_bounds, lockstep);
      result.finds += lockstep.finds();
      if (!lockstep.problem().empty()) note(lockstep.problem());

      const auto fast_metric = c.metric();
      const DeadlineAssignment fast =
          distribute_deadlines(w.graph, *fast_metric, estimator, w.options);
      ++result.assignments;
      const std::string why = diff_assignments(w.graph, fast, ref);
      if (!why.empty()) note("assignment differs at " + why);
    }

    ++result.trials;
    if (progress != nullptr && (trial + 1) % 100 == 0) {
      *progress << "  " << (trial + 1) << "/" << config.trials << " trials, "
                << result.finds << " finds, " << result.mismatches << " mismatches\n";
    }
  }

  if (progress != nullptr) {
    *progress << "diffdist: " << result.trials << " graphs x " << result.configs
              << " metric/estimator pairs (" << result.finds << " finds, "
              << result.assignments << " assignments): " << result.mismatches
              << " mismatches\n";
    if (!result.first_problem.empty()) {
      *progress << "first problem: " << result.first_problem << "\n";
    }
  }
  return result;
}

}  // namespace feast
