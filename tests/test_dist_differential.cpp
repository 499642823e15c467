/// \file test_dist_differential.cpp
/// \brief Differential tests of the hop-banded critical-path finder against
///        the retained reference, and the distribution counters.
///
/// The heavy harness (`feastc diffdist`, 300 trials) runs in CI; this is
/// the ctest slice, plus directed cases for the banded finder's special
/// paths (a winning lb group that is not the last one swept, so the path
/// is rebuilt from a re-run sweep) and the dist.* counters.
#include <gtest/gtest.h>

#include <sstream>

#include "cli/cli_app.hpp"
#include "core/comm_estimator.hpp"
#include "core/diffdist.hpp"
#include "core/metrics.hpp"
#include "core/path_finder.hpp"
#include "core/path_finder_ref.hpp"
#include "core/slicing.hpp"
#include "obs/obs.hpp"
#include "taskgraph/generator.hpp"
#include "util/rng.hpp"

namespace feast {
namespace {

TEST(DiffDist, QuickSeededGraphsAgreeOnEveryMetricAndEstimator) {
  DiffDistConfig config;
  config.seed = 20261017;
  config.trials = 40;
  config.quick = true;
  const DiffDistResult result = run_diffdist(config);
  EXPECT_EQ(result.trials, 40);
  EXPECT_EQ(result.configs, 10);
  EXPECT_EQ(result.assignments, 40LL * 10);
  EXPECT_GT(result.finds, result.assignments);
  EXPECT_EQ(result.mismatches, 0) << result.first_problem;
}

TEST(DiffDist, FigureSizedGraphsAgree) {
  DiffDistConfig config;
  config.seed = 7;
  config.trials = 12;
  const DiffDistResult result = run_diffdist(config);
  EXPECT_EQ(result.mismatches, 0) << result.first_problem;
}

/// Two residual sources with different release lower bounds feeding one
/// sink: a(80) at lb 0 and b(10) at lb 50, both into c(10) due at 100.
/// PURE prefers a's group (R = 5) over b's (R = 15), but b's group is swept
/// last, so the banded finder must re-run a's sweep to rebuild the path.
TEST(DiffDist, WinnerFromAnEarlierLbGroupMatchesReference) {
  TaskGraph g;
  const NodeId a = g.add_subtask("a", 80.0);
  const NodeId b = g.add_subtask("b", 10.0);
  const NodeId c = g.add_subtask("c", 10.0);
  g.add_precedence(a, c, 0.0);
  g.add_precedence(b, c, 0.0);
  g.set_boundary_release(a, 0.0);
  g.set_boundary_release(b, 50.0);
  g.set_boundary_deadline(c, 100.0);

  ResidualState state(g.node_count());
  state.lb[a.index()] = 0.0;
  state.lb[b.index()] = 50.0;
  state.ub[c.index()] = 100.0;

  PureMetric metric;
  metric.prepare(g);
  CcneEstimator ccne;
  CriticalPathFinder fast(g, metric, ccne);
  CriticalPathFinderRef ref(g, metric, ccne);
  const auto got = fast.find(state);
  const auto want = ref.find(state);
  ASSERT_TRUE(got.has_value());
  ASSERT_TRUE(want.has_value());
  EXPECT_EQ(got->nodes, want->nodes);
  EXPECT_EQ(got->nodes.front(), a);
  EXPECT_EQ(got->nodes.back(), c);
  EXPECT_DOUBLE_EQ(got->window_start, 0.0);
  EXPECT_DOUBLE_EQ(got->ratio, want->ratio);
  EXPECT_DOUBLE_EQ(got->ratio, 5.0);
  EXPECT_EQ(fast.lb_groups(), 2u);
}

TEST(DiffDist, CliRunsAndReportsTheComparison) {
  std::istringstream in;
  std::ostringstream out;
  std::ostringstream err;
  const int code = run_cli({"diffdist", "--trials", "3", "--quick"}, in, out, err);
  EXPECT_EQ(code, 0) << out.str() << err.str();
  EXPECT_NE(out.str().find("diffdist: 3 graphs x 10 metric/estimator pairs"),
            std::string::npos)
      << out.str();
  EXPECT_NE(run_cli({"diffdist", "--trials", "0"}, in, out, err), 0);
}

TaskGraph fixed_graph() {
  RandomGraphConfig config;  // fig2 defaults: 40-60 subtasks, MDET
  Pcg32 rng(seed_for(42, {3}));
  return generate_random_graph(config, rng);
}

TEST(DistCounters, IterationsEqualSlicedPathCount) {
  const TaskGraph graph = fixed_graph();
  obs::Sink sink;
  DeadlineAssignment assignment;
  {
    obs::ScopedSink scoped(sink);
    const auto metric = make_pure();
    assignment = distribute_deadlines(graph, *metric, *make_ccaa());
  }
  const obs::Report report = sink.report();
  EXPECT_EQ(report.counter_value(obs::Counter::DistIterations),
            assignment.paths().size());
  // Each iteration sweeps at least one source-lb group, and each sweep of
  // a non-trivial residual graph relaxes at least one arc.
  EXPECT_GE(report.counter_value(obs::Counter::DistLbGroups), assignment.paths().size());
  EXPECT_GT(report.counter_value(obs::Counter::DistDpRelax), 0u);
}

TEST(DistCounters, AccumulateOncePerDistributeCall) {
  const TaskGraph graph = fixed_graph();
  const auto run = [&](int calls) {
    obs::Sink sink;
    {
      obs::ScopedSink scoped(sink);
      for (int i = 0; i < calls; ++i) {
        const auto metric = make_norm();
        distribute_deadlines(graph, *metric, *make_ccne());
      }
    }
    return sink.report();
  };
  const obs::Report once = run(1);
  const obs::Report twice = run(2);
  for (const obs::Counter c : {obs::Counter::DistIterations, obs::Counter::DistLbGroups,
                               obs::Counter::DistDpRelax}) {
    EXPECT_GT(once.counter_value(c), 0u) << obs::to_string(c);
    EXPECT_EQ(twice.counter_value(c), 2 * once.counter_value(c)) << obs::to_string(c);
  }
}

TEST(DistCounters, ProfilePrintsThem) {
  std::istringstream in;
  std::ostringstream out;
  std::ostringstream err;
  const int code = run_cli({"profile", "--samples", "2", "--sizes", "2"}, in, out, err);
  ASSERT_EQ(code, 0) << err.str();
  for (const char* name : {"dist.iterations", "dist.lb_groups", "dist.dp_relax"}) {
    EXPECT_NE(out.str().find(name), std::string::npos) << name;
  }
}

}  // namespace
}  // namespace feast
