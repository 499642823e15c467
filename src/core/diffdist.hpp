/// \file diffdist.hpp
/// \brief Differential testing of the critical-path finder against the
///        retained reference.
///
/// Replays seeded graphs — random graphs of three size classes, the
/// structured §8 shapes, and both with pinned subtasks — through the
/// slicing loop under every metric (PURE, NORM, THRES, ADAPT at N = 2 and
/// N = 16) × estimator (CCNE, CCAA).  Each replay runs the loop once with
/// a lockstep finder that calls CriticalPathFinder and CriticalPathFinderRef
/// on the same residual state and compares every find() bit for bit: path
/// nodes, window bounds, Σv, effective hops and the ratio's bits.  It then
/// compares the shipped distribute_deadlines() against the reference
/// loop's assignment: every release, relative deadline and iteration, and
/// every SlicedPath.  Any divergence fails with a reproducible (seed,
/// trial, metric, estimator) coordinate.
///
/// Shared by the `feastc diffdist` subcommand (CI runs 300 trials) and
/// tests/test_dist_differential.cpp (a quicker slice for ctest).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

namespace feast {

/// Parameters of a differential run.
struct DiffDistConfig {
  std::uint64_t seed = 1;  ///< Root seed; trials derive via seed_for().
  int trials = 300;        ///< Seeded graphs (each × 10 metric/estimator pairs).
  bool quick = false;      ///< Shrink graphs for smoke runs.
};

/// Outcome of a differential run.
struct DiffDistResult {
  int trials = 0;             ///< Graphs replayed.
  int configs = 0;            ///< Metric × estimator pairs per graph (10).
  long long finds = 0;        ///< find() calls compared between the finders.
  long long assignments = 0;  ///< Final assignments compared.
  int mismatches = 0;         ///< Divergent find() results or assignments.
  std::string first_problem;  ///< Reproducer line for the first failure.

  bool ok() const noexcept { return mismatches == 0; }
};

/// Runs the differential harness.  When \p progress is non-null, emits a
/// short line every hundred trials and a final summary.
DiffDistResult run_diffdist(const DiffDistConfig& config,
                            std::ostream* progress = nullptr);

}  // namespace feast
