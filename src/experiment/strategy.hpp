/// \file strategy.hpp
/// \brief Named distribution strategies for experiment sweeps.
///
/// A Strategy is a label plus a factory that builds a Distributor for a
/// given system size.  The factory takes the size because the ADAPT metric
/// is parameterized on N_proc — the whole point of the adaptive surplus —
/// while every other strategy ignores it, and says so with procs_invariant.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "core/distributor.hpp"

namespace feast {

/// Builds a fresh Distributor for a system of \p n_procs processors.
using DistributorFactory = std::function<std::unique_ptr<Distributor>(int n_procs)>;

/// A labelled strategy, the unit of comparison in all figures.
struct Strategy {
  std::string label;
  DistributorFactory make;
  /// The distributors make(n) builds assign the same windows to a graph for
  /// every n.  Campaigns and sweeps then distribute each graph once for all
  /// of a strategy's sizes (experiment/window_store.hpp).  A fact about the
  /// factory, declared by the slicing strategies that ignore n (PURE, NORM,
  /// THRES); false, the default, is always safe.  The UD/ED/PROP baselines
  /// ignore n too but do not declare it: their one-pass distribution costs
  /// about what copying shared windows does, and keeping the windows of
  /// their large graphs raised peak memory by ~15%.
  bool procs_invariant = false;
};

/// Which communication-cost estimator a strategy distributes under.
enum class EstimatorKind { CCNE, CCAA };

/// Estimator name ("CCNE"/"CCAA").
const char* to_string(EstimatorKind kind) noexcept;

/// BST with the pure laxity ratio.
Strategy strategy_pure(EstimatorKind estimator);

/// BST with the normalized laxity ratio.
Strategy strategy_norm(EstimatorKind estimator);

/// AST/THRES with surplus Δ and threshold factor (relative to MET).
/// The paper's AST always distributes under CCNE.
Strategy strategy_thres(double surplus, double threshold_factor = 1.25);

/// AST/ADAPT with threshold factor (relative to MET); surplus is ξ/N_proc.
Strategy strategy_adapt(double threshold_factor = 1.25);

/// Baselines (distribute under CCNE, like AST).
Strategy strategy_ultimate_deadline();
Strategy strategy_effective_deadline();
Strategy strategy_proportional();

}  // namespace feast
