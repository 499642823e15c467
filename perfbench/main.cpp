/// \file main.cpp
/// \brief The benchmark harness: argument parsing, repeated set-up, the
///        measuring loop over units, correctness accounting and the result
///        line (perfbench/README.md; run through perfbench/run.py).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench.hpp"
#include "util/json.hpp"

namespace perfbench {

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

namespace {

double timeval_ms(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) * 1e3 + static_cast<double>(tv.tv_usec) / 1e3;
}

}  // namespace

double cpu_ms_now() {
  rusage self{};
  rusage children{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  return timeval_ms(self.ru_utime) + timeval_ms(self.ru_stime) +
         timeval_ms(children.ru_utime) + timeval_ms(children.ru_stime);
}

double peak_rss_mb() {
  // The process's own high-water mark.  getrusage(RUSAGE_SELF) would also
  // carry the launcher's peak across exec, which here exceeds this process's own.
  double self_kb = 0.0;
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) self_kb = std::strtod(line.c_str() + 6, nullptr);
  }
  rusage children{};
  ::getrusage(RUSAGE_CHILDREN, &children);
  if (self_kb == 0.0) {
    rusage self{};
    ::getrusage(RUSAGE_SELF, &self);
    self_kb = static_cast<double>(self.ru_maxrss);
  }
  // ru_maxrss is in KiB; RUSAGE_CHILDREN reports the largest reaped child.
  return (self_kb + static_cast<double>(children.ru_maxrss)) / 1024.0;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

std::string host_json() {
  std::string model = "unknown";
  std::vector<std::string> flags;
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid(0x80000002u, &regs[0], &regs[1], &regs[2], &regs[3]) != 0 &&
      __get_cpuid(0x80000003u, &regs[4], &regs[5], &regs[6], &regs[7]) != 0 &&
      __get_cpuid(0x80000004u, &regs[8], &regs[9], &regs[10], &regs[11]) != 0) {
    char brand[49] = {};
    static_assert(sizeof regs == 48);
    std::copy_n(reinterpret_cast<const char*>(regs), 48, brand);
    model = brand;
    model.erase(0, model.find_first_not_of(' '));
  }
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) flags.emplace_back("sse4_2");
  if (__builtin_cpu_supports("popcnt")) flags.emplace_back("popcnt");
  if (__builtin_cpu_supports("avx")) flags.emplace_back("avx");
  if (__builtin_cpu_supports("avx2")) flags.emplace_back("avx2");
  if (__builtin_cpu_supports("fma")) flags.emplace_back("fma");
  if (__builtin_cpu_supports("bmi2")) flags.emplace_back("bmi2");
  if (__builtin_cpu_supports("avx512f")) flags.emplace_back("avx512f");
#endif
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::string out = "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
                    ", \"cpu_model\": \"" + feast::json_escape(model) +
                    "\", \"cpu_flags\": [";
  for (std::size_t i = 0; i < flags.size(); ++i) {
    out += (i == 0 ? "\"" : ", \"") + flags[i] + "\"";
  }
  out += "], \"build_type\": \"" + feast::json_escape(FEAST_BUILD_TYPE) +
         "\", \"compiler\": \"" + feast::json_escape(compiler) + "\"}";
  return out;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"fig2_inproc", "bus_baselines",
                                              "isolate_small", "serve_mixed"};
  return names;
}

}  // namespace perfbench

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "feast_perfbench: " << why
            << "\nusage: feast_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--golden FILE] [--smoke]\n";
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + flag);
      return argv[++i];
    };
    try {
      if (flag == "--workload") o.workload = value();
      else if (flag == "--seed") o.seed = std::stoull(value(), nullptr, 0);
      else if (flag == "--seconds") o.seconds = std::stod(value());
      else if (flag == "--trace") o.trace = value() != "0";
      else if (flag == "--work-dir") o.work_dir = value();
      else if (flag == "--golden") o.golden_path = value();
      else if (flag == "--smoke") o.smoke = true;
      else usage("unknown argument " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), o.workload) == names.end()) {
    usage("unknown workload '" + o.workload + "'");
  }
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  if (o.work_dir.empty()) usage("--work-dir is required");
  return o;
}

/// Recorded fingerprints: golden[workload][seed][unit] = hex.
using Golden = std::map<std::string, std::map<std::string, std::vector<std::string>>>;

Golden load_golden(const std::string& path) {
  Golden golden;
  if (path.empty()) return golden;
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::stringstream text;
  text << in.rdbuf();
  const feast::JsonValue root = feast::parse_json(text.str());
  const feast::JsonValue* prints = root.find("fingerprints");
  if (prints == nullptr) throw std::runtime_error(path + ": no fingerprints");
  for (const auto& [workload, seeds] : prints->object) {
    for (const auto& [seed, units] : seeds.object) {
      for (const feast::JsonValue& hex : units.array) {
        golden[workload][seed].push_back(hex.string);
      }
    }
  }
  return golden;
}

void print_json_number(std::ostream& out, double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  out << buffer;
}

template <typename F>
double sum_of(const std::vector<UnitResult>& units, F field) {
  double total = 0.0;
  for (const UnitResult& u : units) total += field(u);
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_args(argc, argv);
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::remove_all(options.work_dir, ec);
  fs::create_directories(options.work_dir);

  int exit_code = 0;
  try {
    const Golden golden = load_golden(options.golden_path);
    // Smoke runs use other sizes, so no recorded fingerprint applies.
    const std::vector<std::string>* expected = nullptr;
    if (const auto w = golden.find(options.workload); w != golden.end() && !options.smoke) {
      if (const auto s = w->second.find(std::to_string(options.seed));
          s != w->second.end()) {
        expected = &s->second;
      }
    }

    std::unique_ptr<Workload> workload = make_workload(options);

    // Set-up is repeated and reported as its median, so that work moved
    // into set-up shows and one slow start does not decide the figure.
    constexpr int kSetupReps = 7;
    std::vector<double> setup_s;
    for (int i = 0; i < kSetupReps; ++i) {
      const auto t0 = Clock::now();
      workload->setup();
      setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
      if (i + 1 < kSetupReps) workload->teardown();
    }

    std::cout << "# setup_s";
    for (const double s : setup_s) std::cout << ' ' << s;
    std::cout << "\n";

    std::optional<obs::Sink> sink;
    if (options.trace) sink.emplace(/*capture_events=*/true);
    const Clock::time_point sink_epoch = Clock::now();
    std::vector<UnitResult> traced;
    std::vector<UnitResult> untraced;
    std::vector<BenchSpan> traced_spans;
    std::vector<std::string> errors;
    double timed_ms = 0.0;
    std::uint64_t golden_checked = 0;
    for (std::size_t r = 0;; ++r) {
      // A traced run alternates untraced and traced units, so the same run
      // yields the per-layer split and the tracing overhead.
      const bool trace_this = options.trace && r % 2 == 1;
      std::vector<BenchSpan> spans;
      UnitResult unit = workload->run_unit(r, trace_this ? &*sink : nullptr, spans);
      if (expected != nullptr && r < expected->size()) {
        ++golden_checked;
        if (unit.fingerprint != (*expected)[r]) {
          ++unit.failed;
          unit.errors.push_back("unit " + std::to_string(r) + " fingerprint " +
                                unit.fingerprint + " != recorded " + (*expected)[r]);
        }
      }
      std::cout << "# unit " << r << (trace_this ? " traced" : "") << " wall_ms "
                << unit.wall_ms << " fingerprint " << unit.fingerprint << "\n";
      for (const std::string& e : unit.errors) errors.push_back(e);
      timed_ms += unit.wall_ms;
      if (trace_this) {
        traced_spans.insert(traced_spans.end(), spans.begin(), spans.end());
        traced.push_back(std::move(unit));
      } else {
        untraced.push_back(std::move(unit));
      }
      if (timed_ms >= options.seconds * 1e3 && (!options.trace || !traced.empty())) break;
    }
    workload->teardown();

    std::vector<UnitResult> all = untraced;
    all.insert(all.end(), traced.begin(), traced.end());
    const auto attempted = static_cast<std::uint64_t>(
        sum_of(all, [](const UnitResult& u) { return double(u.attempted); }));
    const auto failed = static_cast<std::uint64_t>(
        sum_of(all, [](const UnitResult& u) { return double(u.failed); }));

    std::vector<Metric> metrics;
    if (!options.trace) {
      // Every figure is a per-unit statistic, then the median over units, so
      // a burst of load from another process moves one unit, not the figure.
      std::vector<double> runs_per_s, cpu_per_run, cells_per_s, p50, p90, cold, warm;
      std::size_t samples = 0, cold_samples = 0;
      // Mean of the middle half: robust to a stalled cell, and smooth across
      // the strategy modes of a unit's cells.
      const auto interquartile_mean = [](std::vector<double> v) {
        std::sort(v.begin(), v.end());
        const std::size_t lo = v.size() / 4;
        const std::size_t hi = std::max(lo + 1, v.size() - v.size() / 4);
        double total = 0.0;
        for (std::size_t i = lo; i < hi; ++i) total += v[i];
        return total / double(hi - lo);
      };
      for (const UnitResult& u : all) {
        if (u.computed_runs > 0) {
          runs_per_s.push_back(double(u.computed_runs) / (u.cold_wall_ms / 1e3));
          cpu_per_run.push_back(u.cpu_ms / double(u.computed_runs));
        }
        cells_per_s.push_back(double(u.cells) / (u.cold_wall_ms / 1e3));
        std::vector<double> ops = u.cold_ms;
        if (workload->warm_in_traffic()) ops.insert(ops.end(), u.warm_ms.begin(), u.warm_ms.end());
        if (!ops.empty()) {
          p50.push_back(percentile(ops, 0.5));
          p90.push_back(percentile(ops, 0.9));
        }
        if (!u.cold_ms.empty()) cold.push_back(interquartile_mean(u.cold_ms));
        if (!u.warm_ms.empty()) warm.push_back(percentile(u.warm_ms, 0.5));
        samples += ops.size();
        cold_samples += u.cold_ms.size();
      }
      // The highest percentile with at least ten samples beyond it.
      const std::pair<double, const char*> levels[] = {
          {0.5, "p50"}, {0.9, "p90"}, {0.95, "p95"}, {0.99, "p99"}, {0.999, "p99.9"}};
      std::string highest = "none";
      for (const auto& [p, label] : levels) {
        if ((1.0 - p) * static_cast<double>(samples) >= 10.0) highest = label;
      }
      std::cout << "# latency samples " << samples << " (cold " << cold_samples << ") in "
                << all.size() << " units; highest percentile with >= 10 samples beyond it: "
                << highest << "\n";
      metrics = {
          {"setup_s", percentile(setup_s, 0.5), "s"},
          {"runs_per_s", percentile(runs_per_s, 0.5), "1/s"},
          {"cpu_ms_per_run", percentile(cpu_per_run, 0.5), "ms"},
          {"cells_per_s", percentile(cells_per_s, 0.5), "1/s"},
          {"latency_p50_ms", percentile(p50, 0.5), "ms"},
          {"latency_p90_ms", percentile(p90, 0.5), "ms"},
          // A unit's computed cells differ by strategy (CCNE against CCAA),
          // so their median would sit between two modes.
          {"cold_p50_ms", percentile(cold, 0.5), "ms"},
          {"warm_p50_ms", percentile(warm, 0.5), "ms"},
          {"success_rate",
           attempted > 0 ? 1.0 - double(failed) / double(attempted) : 0.0, "ratio"},
          {"peak_rss_mb", peak_rss_mb(), "MB"},
      };
    } else {
      TraceInput input;
      input.sink = &*sink;
      input.sink_epoch = sink_epoch;
      input.spans = std::move(traced_spans);
      input.traced = traced;
      input.untraced = untraced;
      input.pool_threads = workload->pool_threads();
      input.supervise_workers = workload->supervise_workers();
      input.window_span = workload->window_span();
      input.setup_spans = workload->setup_spans();
      metrics = layer_metrics(input);
    }

    const bool correct = failed == 0;
    std::cout << "# host " << host_json() << "\n";
    std::cout << "# units " << all.size() << " (traced " << traced.size()
              << "), timed " << timed_ms / 1e3 << " s, recorded fingerprints checked "
              << golden_checked << "\n";
    constexpr std::size_t kShownErrors = 20;
    for (std::size_t i = 0; i < errors.size() && i < kShownErrors; ++i) {
      std::cout << "# error: " << errors[i] << "\n";
    }
    if (errors.size() > kShownErrors) {
      std::cout << "# error: ... and " << errors.size() - kShownErrors << " more\n";
    }
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted << ", \"failed\": " << failed
              << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      std::cout << (i == 0 ? "" : ", ") << '"' << metrics[i].name << "\": {\"value\": ";
      print_json_number(std::cout, metrics[i].value);
      std::cout << ", \"unit\": \"" << metrics[i].unit << "\"}";
    }
    std::cout << "}}" << std::endl;
    // A wrong result still prints the result line, but fails the command.
    if (!correct) exit_code = 1;
  } catch (const std::exception& e) {
    std::cerr << "feast_perfbench: " << e.what() << "\n";
    exit_code = 1;
  }
  fs::remove_all(options.work_dir, ec);
  return exit_code;
}
