#include "experiment/strategy.hpp"

#include "core/baselines.hpp"
#include "core/comm_estimator.hpp"
#include "core/metrics.hpp"
#include "core/slicing.hpp"
#include "util/strings.hpp"

namespace feast {

namespace {

std::unique_ptr<CommCostEstimator> make_estimator(EstimatorKind kind) {
  switch (kind) {
    case EstimatorKind::CCNE: return make_ccne();
    case EstimatorKind::CCAA: return make_ccaa();
  }
  return make_ccne();
}

/// Distributor owning its estimator, wrapping one of the baselines.
template <typename BaselineT>
class OwningBaseline final : public Distributor {
 public:
  explicit OwningBaseline(std::unique_ptr<CommCostEstimator> estimator)
      : estimator_(std::move(estimator)), impl_(*estimator_) {}

  std::string name() const override { return impl_.name(); }
  DeadlineAssignment distribute(const TaskGraph& graph) override {
    return impl_.distribute(graph);
  }

 private:
  std::unique_ptr<CommCostEstimator> estimator_;
  BaselineT impl_;
};

}  // namespace

const char* to_string(EstimatorKind kind) noexcept {
  switch (kind) {
    case EstimatorKind::CCNE: return "CCNE";
    case EstimatorKind::CCAA: return "CCAA";
  }
  return "?";
}

Strategy strategy_pure(EstimatorKind estimator) {
  return Strategy{std::string("PURE+") + to_string(estimator),
                  [estimator](int) {
                    return make_slicing_distributor(make_pure(),
                                                    make_estimator(estimator));
                  },
                  /*procs_invariant=*/true};
}

Strategy strategy_norm(EstimatorKind estimator) {
  return Strategy{std::string("NORM+") + to_string(estimator),
                  [estimator](int) {
                    return make_slicing_distributor(make_norm(),
                                                    make_estimator(estimator));
                  },
                  /*procs_invariant=*/true};
}

Strategy strategy_thres(double surplus, double threshold_factor) {
  // Shortest round-trip parameters: distinct values must never share a
  // label, since the label is the cell's cache and resume identity.
  return Strategy{"THRES(d=" + format_shortest(surplus) +
                      ",th=" + format_shortest(threshold_factor) + ")",
                  [surplus, threshold_factor](int) {
                    return make_slicing_distributor(
                        make_thres(surplus, threshold_factor), make_ccne());
                  },
                  /*procs_invariant=*/true};
}

Strategy strategy_adapt(double threshold_factor) {
  return Strategy{"ADAPT(th=" + format_shortest(threshold_factor) + ")",
                  [threshold_factor](int n_procs) {
                    return make_slicing_distributor(
                        make_adapt(n_procs, threshold_factor), make_ccne());
                  }};
}

Strategy strategy_ultimate_deadline() {
  return Strategy{"UD", [](int) {
                    return std::make_unique<OwningBaseline<UltimateDeadlineDistributor>>(
                        make_ccne());
                  }};
}

Strategy strategy_effective_deadline() {
  return Strategy{"ED", [](int) {
                    return std::make_unique<OwningBaseline<EffectiveDeadlineDistributor>>(
                        make_ccne());
                  }};
}

Strategy strategy_proportional() {
  return Strategy{"PROP", [](int) {
                    return std::make_unique<OwningBaseline<ProportionalDistributor>>(
                        make_ccne());
                  }};
}

}  // namespace feast
