// The three perfbench workloads. Each drives the deploy path through the
// library's public calls, checks every output, and fills the end-to-end
// metrics (untraced run) or the per-layer metrics (traced run).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string root;     // checkout root: fixture lives under it
  std::string scratch;  // this run's private directory
};

struct RunResult {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> gate_failures;  // empty = every check passed
  MetricSet metrics;
  // Workload-specific manifest fields (ladder, limits, ...).
  std::vector<std::pair<std::string, std::string>> manifest;

  void gate(bool ok, const std::string& what) {
    if (!ok) {
      gate_failures.push_back(what);
    }
  }
};

RunResult run_scan_distinct(const RunOptions& options);
RunResult run_scan_tiled(const RunOptions& options);
RunResult run_serve_open(const RunOptions& options);

}  // namespace perfbench
