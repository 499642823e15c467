/// \file perf_common.hpp
/// \brief Shared by the ref-vs-fast micro-benchmarks (perf_scheduler,
///        perf_obs): the median of interleaved reps, and the host a run
///        measured, so a committed speedup can be traced to the machine
///        and build that produced it.
#pragma once

#include <algorithm>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "util/json.hpp"

namespace feast::bench {

/// Median of \p values (mean of the middle two for an even count); 0 when
/// empty.
inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

/// {"nproc", "cpu_model", "build_type", "compiler"}.  The CPU model comes
/// from /proc/cpuinfo and is "unknown" where that file is absent; the
/// build type is FEAST_BUILD_TYPE, which bench/CMakeLists.txt defines.
inline std::string host_json() {
  std::string model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon != std::string::npos && colon + 2 <= line.size()) model = line.substr(colon + 2);
    break;
  }
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  return "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu_model\": \"" + json_escape(model) + "\", \"build_type\": \"" +
         json_escape(FEAST_BUILD_TYPE) + "\", \"compiler\": \"" + json_escape(compiler) +
         "\"}";
}

}  // namespace feast::bench
