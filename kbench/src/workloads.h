// The benchmark's four workloads and what one run of each reports.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace kbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  ///< why `correct` is false

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  void fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
};

const std::vector<std::string>& workload_names();

/// Runs one workload; prints progress and the per-layer table to `log`.
RunResult run_workload(const RunArgs& args, std::ostream& log);

}  // namespace kbench
