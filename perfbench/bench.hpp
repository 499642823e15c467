/// \file bench.hpp
/// \brief Shared types of the end-to-end benchmark (perfbench/README.md).
///
/// A workload is driven in *units*: one unit is a fixed piece of user-visible
/// work (a cold campaign plus a warm re-run, or one round of serve
/// requests) on inputs derived from (seed, unit index).  The harness in
/// main.cpp repeats units until the measuring time is spent, times set-up
/// separately, and turns the unit results into the end-to-end metrics; a
/// traced run additionally records an obs::Sink around alternate units and
/// derives the per-layer split from it (trace.cpp).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.hpp"

namespace perfbench {

namespace obs = feast::obs;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point from, Clock::time_point to);

/// One call into a layer, timed from the benchmark's own code (the traced
/// run adds no spans inside src/).
struct BenchSpan {
  std::string name;  ///< run_campaign | run_supervised_campaign | server_start
                     ///< | worker_register | http_request | round
  Clock::time_point start;
  Clock::time_point end;
};

/// User + system CPU time of this process and its reaped children, in ms.
double cpu_ms_now();

/// Peak resident memory of this process plus its largest reaped child, MB.
/// A child's peak includes the pages it shared with this process at fork.
double peak_rss_mb();

/// What one unit did.  Times are milliseconds of wall clock.
struct UnitResult {
  double wall_ms = 0.0;       ///< Timed wall of the whole unit.
  double cold_wall_ms = 0.0;  ///< Timed wall of the part that computes.
  double cpu_ms = 0.0;        ///< CPU time over the computing part.
  std::uint64_t computed_runs = 0;  ///< (graph, strategy, N) runs computed.
  std::uint64_t cells = 0;  ///< Cold cells settled / replies received.
  std::vector<double> cold_ms;  ///< Per-operation times of operations that computed.
  std::vector<double> warm_ms;  ///< ... and of those that did not.
  std::uint64_t attempted = 0;  ///< Operations attempted.
  std::uint64_t failed = 0;     ///< Failed, refused, quarantined or wrong.
  std::string fingerprint;      ///< FNV-1a hex of the unit's result fingerprint.
  std::vector<std::string> errors;  ///< What failed, for the log.
  /// In-process cell times of the cells a worker subprocess computed
  /// (supervise.overhead_ms_p50); empty when no worker ran.
  std::vector<double> inproc_cell_ms;
  /// Intervals in which cells were computed (cold passes, serve rounds):
  /// worker attempts inside them are compared with inproc_cell_ms.
  std::vector<std::pair<Clock::time_point, Clock::time_point>> compute_windows;
  /// Serve daemon counter deltas over the unit (zero elsewhere).
  std::uint64_t serve_dedup = 0, serve_cache_hits = 0,
                serve_dispatched = 0, serve_shed = 0, serve_requeued = 0,
                serve_workers_lost = 0;
};

/// Command-line knobs shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;       ///< Minimal sizes (perfbench/tests/smoke_test.py).
  std::string work_dir;     ///< Scratch root inside the checkout.
  std::string golden_path;  ///< Recorded fingerprints (fingerprints.json).
};

/// One workload.  setup()/teardown() bracket the timed units; set-up is
/// repeated to report its median, so teardown() must leave the process able
/// to set up again.
class Workload {
 public:
  virtual ~Workload() = default;

  virtual void setup() = 0;
  virtual void teardown() = 0;

  /// Runs unit \p index.  When \p sink is set it is installed around the
  /// timed public calls only; verification runs outside it.
  virtual UnitResult run_unit(std::size_t index, obs::Sink* sink,
                              std::vector<BenchSpan>& spans) = 0;

  /// Pool threads the in-process runner uses (0: none).
  virtual unsigned pool_threads() const { return 0; }
  /// Worker subprocess slots the supervise layer runs (0: none).
  virtual int supervise_workers() const { return 0; }
  /// The bench span that bounds one unit's layer work.
  virtual std::string window_span() const = 0;
  /// Whether warm operations are part of the workload's traffic and so of
  /// its latency percentiles (serve_mixed's request stream), rather than
  /// re-runs kept only so warm_p50_ms has samples.
  virtual bool warm_in_traffic() const { return false; }
  /// Bench spans recorded by every setup() so far (e.g. server_start).
  virtual std::vector<BenchSpan> setup_spans() const { return {}; }
};

std::unique_ptr<Workload> make_workload(const Options& options);

/// Workload names in the order BENCHMARK.json lists them.
const std::vector<std::string>& workload_names();

/// Stable 64-bit mix of a seed and a unit index (splitmix64).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index);

/// p in [0, 1] by linear interpolation; 0 for an empty sample.
double percentile(std::vector<double> values, double p);

/// Host description: nproc, CPU model and flags, build type, compiler.
std::string host_json();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Per-layer metrics of a traced run (trace.cpp).
struct TraceInput {
  const obs::Sink* sink = nullptr;
  Clock::time_point sink_epoch;  ///< Taken right after the sink was built.
  std::vector<BenchSpan> spans;      ///< Bench spans of traced units only.
  std::vector<BenchSpan> setup_spans;  ///< Bench spans of every set-up.
  std::vector<UnitResult> traced;    ///< Results of traced units.
  std::vector<UnitResult> untraced;  ///< Results of untraced units.
  unsigned pool_threads = 0;
  int supervise_workers = 0;
  std::string window_span;
};

std::vector<Metric> layer_metrics(const TraceInput& input);

}  // namespace perfbench
