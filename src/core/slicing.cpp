#include "core/slicing.hpp"

#include "core/slicing_detail.hpp"
#include "obs/obs.hpp"
#include "taskgraph/validate.hpp"

namespace feast {

DeadlineDistributor::DeadlineDistributor(SliceMetric& metric,
                                         const CommCostEstimator& estimator,
                                         SlicingOptions options)
    : metric_(&metric), estimator_(&estimator), options_(options) {}

std::string DeadlineDistributor::describe() const {
  return metric_->name() + "+" + estimator_->name();
}

DeadlineAssignment DeadlineDistributor::distribute(const TaskGraph& graph) {
  require_valid(validate_for_distribution(graph));
  metric_->prepare(graph);
  CriticalPathFinder finder(graph, *metric_, *estimator_);

  DeadlineAssignment result =
      detail::slice_graph(graph, *metric_, options_.respect_interior_bounds, finder);
  // Added once per call, so with no sink installed each costs one load and
  // a branch per distribution.
  obs::count(obs::Counter::DistIterations, result.paths().size());
  obs::count(obs::Counter::DistLbGroups, finder.lb_groups());
  obs::count(obs::Counter::DistDpRelax, finder.relaxations());
  return result;
}

DeadlineAssignment distribute_deadlines(const TaskGraph& graph, SliceMetric& metric,
                                        const CommCostEstimator& estimator,
                                        SlicingOptions options) {
  DeadlineDistributor distributor(metric, estimator, options);
  return distributor.distribute(graph);
}

SlicingDistributor::SlicingDistributor(std::unique_ptr<SliceMetric> metric,
                                       std::unique_ptr<CommCostEstimator> estimator,
                                       SlicingOptions options)
    : metric_(std::move(metric)), estimator_(std::move(estimator)), options_(options) {
  FEAST_REQUIRE(metric_ != nullptr);
  FEAST_REQUIRE(estimator_ != nullptr);
}

std::string SlicingDistributor::name() const {
  return metric_->name() + "+" + estimator_->name();
}

DeadlineAssignment SlicingDistributor::distribute(const TaskGraph& graph) {
  return distribute_deadlines(graph, *metric_, *estimator_, options_);
}

std::unique_ptr<Distributor> make_slicing_distributor(
    std::unique_ptr<SliceMetric> metric, std::unique_ptr<CommCostEstimator> estimator,
    SlicingOptions options) {
  return std::make_unique<SlicingDistributor>(std::move(metric), std::move(estimator),
                                              options);
}

}  // namespace feast
