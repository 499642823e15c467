/// \file test_experiment.cpp
/// \brief Tests for the FEAST experiment framework: strategies, the
///        runner, cell batching, sweeps and figure configurations.
#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "experiment/figures.hpp"
#include "experiment/runner.hpp"
#include "experiment/strategy.hpp"
#include "experiment/sweep.hpp"
#include "experiment/window_store.hpp"
#include "util/rng.hpp"

namespace feast {
namespace {

TEST(Strategies, LabelsAndFactories) {
  EXPECT_EQ(strategy_pure(EstimatorKind::CCNE).label, "PURE+CCNE");
  EXPECT_EQ(strategy_pure(EstimatorKind::CCAA).label, "PURE+CCAA");
  EXPECT_EQ(strategy_norm(EstimatorKind::CCNE).label, "NORM+CCNE");
  EXPECT_EQ(strategy_thres(2.0, 1.25).label, "THRES(d=2,th=1.25)");
  EXPECT_EQ(strategy_adapt(1.25).label, "ADAPT(th=1.25)");
  EXPECT_EQ(strategy_ultimate_deadline().label, "UD");
  EXPECT_EQ(strategy_effective_deadline().label, "ED");
  EXPECT_EQ(strategy_proportional().label, "PROP");

  // Factories produce working distributors.
  for (const Strategy& s :
       {strategy_pure(EstimatorKind::CCNE), strategy_adapt(1.25),
        strategy_ultimate_deadline(), strategy_effective_deadline(),
        strategy_proportional()}) {
    const auto distributor = s.make(4);
    ASSERT_NE(distributor, nullptr) << s.label;
    RandomGraphConfig config;
    Pcg32 rng(3);
    const TaskGraph g = generate_random_graph(config, rng);
    EXPECT_TRUE(distributor->distribute(g).complete()) << s.label;
  }
}

TEST(Strategies, AdaptDependsOnSystemSize) {
  const Strategy adapt = strategy_adapt(1.25);
  // ADAPT(N=2) and ADAPT(N=16) must distribute differently on the same
  // graph (different surplus).
  RandomGraphConfig config;
  Pcg32 rng(4);
  const TaskGraph g = generate_random_graph(config, rng);
  const DeadlineAssignment small = adapt.make(2)->distribute(g);
  const DeadlineAssignment large = adapt.make(16)->distribute(g);
  bool differs = false;
  for (const NodeId id : g.computation_nodes()) {
    if (!time_eq(small.rel_deadline(id), large.rel_deadline(id))) {
      differs = true;
      break;
    }
  }
  EXPECT_TRUE(differs);
}

// ----------------------------------------------------------- window store

TaskGraph seeded_graph(std::uint64_t seed) {
  RandomGraphConfig config;
  Pcg32 rng(seed);
  return generate_random_graph(config, rng);
}

void expect_same_windows(const DeadlineAssignment& a, const DeadlineAssignment& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.windows()[i].release, b.windows()[i].release) << i;
    EXPECT_EQ(a.windows()[i].rel_deadline, b.windows()[i].rel_deadline) << i;
    EXPECT_EQ(a.windows()[i].iteration, b.windows()[i].iteration) << i;
  }
}

TEST(WindowStore, LaterLeasesReuseAndTheLastUseFrees) {
  const TaskGraph g = seeded_graph(5);
  const auto distributor = strategy_pure(EstimatorKind::CCNE).make(4);
  int calls = 0;
  const auto distribute = [&] {
    ++calls;
    return distributor->distribute(g);
  };

  WindowStore store;
  WindowStore::Lease a = store.lease(0, 1);
  WindowStore::Lease b = store.lease(0, 1);
  bool shared = true;
  const DeadlineAssignment first = a.assignment(0, g, distribute, shared);
  EXPECT_FALSE(shared);
  EXPECT_FALSE(first.paths().empty());
  EXPECT_EQ(store.held(), 1u);

  const DeadlineAssignment second = b.assignment(0, g, distribute, shared);
  EXPECT_TRUE(shared);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(store.held(), 0u);
  EXPECT_TRUE(second.complete());
  EXPECT_TRUE(second.paths().empty());  // Windows only, no slicing history.
  expect_same_windows(first, second);

  // Leases are counted before use: a late lease would free windows early.
  EXPECT_THROW((void)store.lease(0, 1), ContractViolation);
  EXPECT_THROW((void)a.assignment(0, g, distribute, shared), ContractViolation);
}

TEST(WindowStore, UnusedSamplesAreReleasedWithTheLease) {
  const TaskGraph g = seeded_graph(6);
  const auto distributor = strategy_norm(EstimatorKind::CCAA).make(2);
  const auto distribute = [&] { return distributor->distribute(g); };
  bool shared = false;

  WindowStore store;
  WindowStore::Lease a = store.lease(3, 2);
  std::optional<WindowStore::Lease> b(store.lease(3, 2));
  std::optional<WindowStore::Lease> cached(store.lease(3, 2));
  cached.reset();  // A cell served from the cache never asks.

  (void)a.assignment(0, g, distribute, shared);
  EXPECT_EQ(store.held(), 1u);
  (void)b->assignment(0, g, distribute, shared);
  EXPECT_TRUE(shared);
  EXPECT_EQ(store.held(), 0u);

  (void)a.assignment(1, g, distribute, shared);
  EXPECT_EQ(store.held(), 1u);
  b.reset();  // A cell that threw before reaching sample 1.
  EXPECT_EQ(store.held(), 0u);

  // A cache hit ending last frees what only it still held up.
  WindowStore later;
  WindowStore::Lease c = later.lease(0, 1);
  WindowStore::Lease d = later.lease(0, 1);
  std::optional<WindowStore::Lease> hit(later.lease(0, 1));
  (void)c.assignment(0, g, distribute, shared);
  (void)d.assignment(0, g, distribute, shared);
  EXPECT_EQ(later.held(), 1u);
  hit.reset();
  EXPECT_EQ(later.held(), 0u);
}

TEST(WindowStore, AFailedDistributionPassesToTheNextCaller) {
  const TaskGraph g = seeded_graph(7);
  const auto distributor = strategy_pure(EstimatorKind::CCAA).make(8);
  WindowStore store;
  std::optional<WindowStore::Lease> a(store.lease(0, 1));
  WindowStore::Lease b = store.lease(0, 1);

  std::atomic<bool> entered{false};
  std::atomic<bool> fail{false};
  std::thread first([&] {
    bool shared = false;
    EXPECT_THROW((void)a->assignment(0, g,
                                     [&]() -> DeadlineAssignment {
                                       entered = true;
                                       while (!fail) std::this_thread::yield();
                                       throw std::runtime_error("distribution failed");
                                     },
                                     shared),
                 std::runtime_error);
  });
  while (!entered) std::this_thread::yield();
  std::atomic<int> calls{0};
  EXPECT_FALSE(b.claim(0));  // a is distributing it.
  std::thread second([&] {
    bool shared = true;
    (void)b.assignment(0, g,
                       [&] {
                         ++calls;
                         return distributor->distribute(g);
                       },
                       shared);
    EXPECT_FALSE(shared);  // It distributed: nothing was published.
  });
  fail = true;
  first.join();
  second.join();
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(store.held(), 1u);  // a has not used sample 0 yet.
  a.reset();
  EXPECT_EQ(store.held(), 0u);
}

TEST(WindowStore, ClaimsReserveAndPassOnWhenTheirCellEnds) {
  const TaskGraph g = seeded_graph(8);
  const auto distributor = strategy_thres(1.0, 1.25).make(4);
  const auto distribute = [&] { return distributor->distribute(g); };
  bool shared = true;

  WindowStore store;
  std::optional<WindowStore::Lease> a(store.lease(0, 2));
  WindowStore::Lease b = store.lease(0, 2);
  WindowStore::Lease c = store.lease(0, 2);
  EXPECT_TRUE(a->claim(0));
  EXPECT_TRUE(a->claim(0));   // Its own reservation.
  EXPECT_FALSE(b.claim(0));   // Reserved by a: b does another sample first.
  a.reset();                  // a's cell failed before distributing.
  EXPECT_TRUE(b.claim(0));
  (void)b.assignment(0, g, distribute, shared);
  EXPECT_FALSE(shared);
  EXPECT_TRUE(c.claim(0));    // Published: nothing to reserve.
  (void)c.assignment(0, g, distribute, shared);
  EXPECT_TRUE(shared);
  EXPECT_EQ(store.held(), 0u);
}

TEST(SharedWindows, SweepMatchesUnsharedCells) {
  BatchConfig batch;
  batch.samples = 5;
  batch.seed = 21;
  const RandomGraphConfig workload = paper_workload(ExecSpreadScenario::MDET);
  const std::vector<Strategy> strategies{strategy_pure(EstimatorKind::CCAA),
                                         strategy_adapt(1.25), strategy_proportional()};
  const std::vector<int> sizes{2, 5, 16};
  const SweepResult sweep =
      sweep_strategies("shared", workload, strategies, sizes, batch);
  for (std::size_t s = 0; s < strategies.size(); ++s) {
    for (std::size_t k = 0; k < sizes.size(); ++k) {
      const CellStats alone = run_cell(workload, strategies[s], sizes[k], batch);
      const CellStats& got = sweep.series[s].cells[k];
      EXPECT_EQ(got.max_lateness.mean, alone.max_lateness.mean) << s << "," << k;
      EXPECT_EQ(got.max_lateness.stddev, alone.max_lateness.stddev);
      EXPECT_EQ(got.end_to_end.mean, alone.end_to_end.mean);
      EXPECT_EQ(got.makespan.mean, alone.makespan.mean);
      EXPECT_EQ(got.min_laxity.mean, alone.min_laxity.mean);
      EXPECT_EQ(got.infeasible_runs, alone.infeasible_runs);
    }
  }
}

TEST(Runner, RunOnceProducesConsistentMeasures) {
  RandomGraphConfig config;
  Pcg32 rng(5);
  const TaskGraph g = generate_random_graph(config, rng);
  const auto distributor = strategy_pure(EstimatorKind::CCNE).make(4);
  RunContext context;
  context.machine.n_procs = 4;

  const RunResult result = run_once(g, *distributor, context);
  EXPECT_EQ(result.lateness.count, g.subtask_count());
  EXPECT_GT(result.makespan, 0.0);
  EXPECT_GT(result.utilization, 0.0);
  EXPECT_LE(result.utilization, 1.0);
  // End-to-end lateness can never beat (be more negative than needed)
  // the per-subtask maximum by construction of the windows:
  EXPECT_GE(result.lateness.max_lateness, -kInfiniteTime);
}

TEST(Sweep, CellIsDeterministicInSeed) {
  BatchConfig batch;
  batch.samples = 6;
  batch.seed = 42;
  const RandomGraphConfig workload = paper_workload(ExecSpreadScenario::MDET);
  const Strategy strategy = strategy_pure(EstimatorKind::CCNE);

  const CellStats a = run_cell(workload, strategy, 4, batch);
  const CellStats b = run_cell(workload, strategy, 4, batch);
  EXPECT_DOUBLE_EQ(a.max_lateness.mean, b.max_lateness.mean);
  EXPECT_DOUBLE_EQ(a.max_lateness.stddev, b.max_lateness.stddev);
  EXPECT_EQ(a.infeasible_runs, b.infeasible_runs);
  EXPECT_EQ(a.max_lateness.count, 6u);

  batch.seed = 43;
  const CellStats c = run_cell(workload, strategy, 4, batch);
  EXPECT_NE(a.max_lateness.mean, c.max_lateness.mean);
}

TEST(Sweep, StrategiesShareTheGraphBatch) {
  // UD and ED assign identical (ASAP) release times; under FIFO selection
  // with the eager release policy the schedule depends only on releases,
  // so if both cells see the same graph batch their schedules — and hence
  // makespans — must agree exactly.
  BatchConfig batch;
  batch.samples = 4;
  RunContext context;
  context.scheduler.release_policy = ReleasePolicy::Eager;
  context.scheduler.selection = SelectionPolicy::Fifo;
  const RandomGraphConfig workload = paper_workload(ExecSpreadScenario::LDET);
  const CellStats ud =
      run_cell(workload, strategy_ultimate_deadline(), 16, batch, context);
  const CellStats ed =
      run_cell(workload, strategy_effective_deadline(), 16, batch, context);
  EXPECT_DOUBLE_EQ(ud.makespan.min, ed.makespan.min);
  EXPECT_DOUBLE_EQ(ud.makespan.max, ed.makespan.max);
  EXPECT_DOUBLE_EQ(ud.makespan.mean, ed.makespan.mean);
}

TEST(Sweep, SweepShapeAndAccessors) {
  BatchConfig batch;
  batch.samples = 3;
  const std::vector<Strategy> strategies{strategy_pure(EstimatorKind::CCNE),
                                         strategy_adapt(1.25)};
  const std::vector<int> sizes{2, 8};
  const SweepResult result = sweep_strategies(
      "test sweep", paper_workload(ExecSpreadScenario::MDET), strategies, sizes, batch);

  EXPECT_EQ(result.title, "test sweep");
  EXPECT_EQ(result.sizes, sizes);
  ASSERT_EQ(result.series.size(), 2u);
  EXPECT_EQ(result.series[0].label, "PURE+CCNE");
  ASSERT_EQ(result.series[0].cells.size(), 2u);
  EXPECT_EQ(result.value(0, 0), result.series[0].cells[0].max_lateness.mean);
}

TEST(Sweep, PrintAndCsv) {
  BatchConfig batch;
  batch.samples = 2;
  const SweepResult result =
      sweep_strategies("printable", paper_workload(ExecSpreadScenario::LDET),
                       {strategy_pure(EstimatorKind::CCNE)}, {2, 4}, batch);

  std::ostringstream table;
  result.print(table);
  EXPECT_NE(table.str().find("printable"), std::string::npos);
  EXPECT_NE(table.str().find("PURE+CCNE"), std::string::npos);

  std::ostringstream csv;
  result.write_csv(csv);
  const std::string text = csv.str();
  EXPECT_NE(text.find("title,strategy,procs"), std::string::npos);
  // 1 header + 1 strategy x 2 sizes.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);
}

TEST(Sweep, PinnedFractionRuns) {
  BatchConfig batch;
  batch.samples = 3;
  batch.pinned_fraction = 0.5;
  const CellStats stats = run_cell(paper_workload(ExecSpreadScenario::MDET),
                                   strategy_pure(EstimatorKind::CCNE), 4, batch);
  EXPECT_EQ(stats.max_lateness.count, 3u);
}

TEST(Sweep, SharedBusContentionRuns) {
  BatchConfig batch;
  batch.samples = 3;
  batch.contention = CommContention::SharedBus;
  const CellStats shared = run_cell(paper_workload(ExecSpreadScenario::MDET),
                                    strategy_pure(EstimatorKind::CCNE), 4, batch);
  batch.contention = CommContention::ContentionFree;
  const CellStats free_bus = run_cell(paper_workload(ExecSpreadScenario::MDET),
                                      strategy_pure(EstimatorKind::CCNE), 4, batch);
  // A serialized bus can only delay things.
  EXPECT_GE(shared.max_lateness.mean, free_bus.max_lateness.mean - kTimeEps);
}

TEST(Sweep, CustomGraphFactory) {
  // A fixed two-task factory: the cell must run it for every sample.
  BatchConfig batch;
  batch.samples = 5;
  std::atomic<int> calls{0};  // the factory runs on worker threads
  const GraphFactory factory = [&calls](std::size_t, std::uint64_t) {
    ++calls;
    TaskGraph g;
    const NodeId a = g.add_subtask("a", 10.0);
    const NodeId b = g.add_subtask("b", 10.0);
    g.add_precedence(a, b, 0.0);
    g.set_boundary_release(a, 0.0);
    g.set_boundary_deadline(b, 60.0);
    return g;
  };
  const CellStats stats =
      run_custom_cell(factory, strategy_pure(EstimatorKind::CCNE), 1, batch);
  EXPECT_EQ(calls.load(), 5);
  EXPECT_EQ(stats.max_lateness.count, 5u);
  // Deterministic graph: zero variance; chain on 1 proc with PURE has
  // R = 20, no contention -> max lateness -20 every run.
  EXPECT_DOUBLE_EQ(stats.max_lateness.mean, -20.0);
  EXPECT_DOUBLE_EQ(stats.max_lateness.stddev, 0.0);
}

TEST(Sweep, SweepCustomShape) {
  BatchConfig batch;
  batch.samples = 2;
  const GraphFactory factory = [](std::size_t sample, std::uint64_t seed) {
    Pcg32 rng(seed, sample);
    RandomGraphConfig config;
    config.min_subtasks = 10;
    config.max_subtasks = 12;
    config.min_depth = 4;
    config.max_depth = 4;
    return generate_random_graph(config, rng);
  };
  const SweepResult result = sweep_custom(
      "custom", factory, {strategy_pure(EstimatorKind::CCNE)}, {2, 4}, batch);
  EXPECT_EQ(result.series.size(), 1u);
  EXPECT_EQ(result.series[0].cells.size(), 2u);
}

TEST(Sweep, ShapeMachineHookInstallsSpeeds) {
  BatchConfig batch;
  batch.samples = 3;
  std::atomic<int> hook_calls{0};
  batch.shape_machine = [&hook_calls](Machine& machine) {
    ++hook_calls;
    machine.speeds.assign(static_cast<std::size_t>(machine.n_procs), 0.5);
  };
  const CellStats slow = run_cell(paper_workload(ExecSpreadScenario::MDET),
                                  strategy_pure(EstimatorKind::CCNE), 4, batch);
  // The machine is a cell-level constant: shaped once per cell, shared by
  // every sample of the batch.
  EXPECT_EQ(hook_calls.load(), 1);

  batch.shape_machine = nullptr;
  const CellStats normal = run_cell(paper_workload(ExecSpreadScenario::MDET),
                                    strategy_pure(EstimatorKind::CCNE), 4, batch);
  // Half-speed processors can only be worse.
  EXPECT_GT(slow.max_lateness.mean, normal.max_lateness.mean);
}

TEST(Figures, PaperConstantsAndWorkloads) {
  EXPECT_EQ(paper_sizes(), (std::vector<int>{2, 4, 6, 8, 10, 12, 14, 16}));
  EXPECT_EQ(paper_scenarios().size(), 3u);
  const RandomGraphConfig hdet = paper_workload(ExecSpreadScenario::HDET);
  EXPECT_DOUBLE_EQ(hdet.exec_spread, 0.99);
  EXPECT_DOUBLE_EQ(hdet.olr, 1.5);
  EXPECT_DOUBLE_EQ(hdet.ccr, 1.0);
  EXPECT_DOUBLE_EQ(hdet.mean_exec_time, 20.0);
  EXPECT_EQ(hdet.min_subtasks, 40);
  EXPECT_EQ(hdet.max_subtasks, 60);
  EXPECT_EQ(hdet.min_depth, 8);
  EXPECT_EQ(hdet.max_depth, 12);
}

TEST(Figures, QuickFigureRunsProduceExpectedSeries) {
  FigureOptions options;
  options.samples = 2;
  options.sizes = {2, 8};

  const auto fig2 = figure2_bst(options);
  ASSERT_EQ(fig2.size(), 3u);  // one per scenario
  ASSERT_EQ(fig2[0].series.size(), 4u);
  EXPECT_EQ(fig2[0].series[0].label, "PURE+CCNE");
  EXPECT_EQ(fig2[0].series[3].label, "NORM+CCAA");

  const auto fig3 = figure3_thres_surplus(options);
  ASSERT_EQ(fig3[0].series.size(), 3u);
  EXPECT_EQ(fig3[0].series[2].label, "THRES(d=4,th=1.25)");

  const auto fig4 = figure4_thres_threshold(options);
  ASSERT_EQ(fig4[0].series.size(), 3u);
  EXPECT_EQ(fig4[0].series[0].label, "THRES(d=1,th=0.75)");

  const auto fig5 = figure5_ast(options);
  ASSERT_EQ(fig5[0].series.size(), 3u);
  EXPECT_EQ(fig5[0].series[2].label, "ADAPT(th=1.25)");
}

}  // namespace
}  // namespace feast
