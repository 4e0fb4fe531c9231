// perfbench: runs one workload of the repository benchmark and prints its
// run manifest, every metric with its unit, and as the last line one JSON
// object {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload <scan_distinct|scan_tiled|serve_open> --seed <n>
//             --seconds <s> --trace <0|1> --root <checkout>
//
// --trace 0 measures the end-to-end metrics with the program's tracing off;
// --trace 1 is the separate traced run that gives the per-layer metrics.
// Exits 1 when a correctness gate fails (the result line then says
// "correct": false), 2 on a bad invocation.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "obs/manifest.h"
#include "serve_workload.h"
#include "util/parallel.h"
#include "workloads.h"

namespace {

int usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <scan_distinct|"
               "scan_tiled|serve_open> --seed <n> --seconds <s> --trace <0|1> "
               "--root <checkout>\n",
               message);
  return 2;
}

bool parse_number(const char* text, double lo, double hi, double* out) {
  if (text == nullptr || *text == '\0') {
    return false;
  }
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (*end != '\0' || !(value >= lo && value <= hi)) {
    return false;
  }
  *out = value;
  return true;
}

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

std::string note(const hotspot::obs::RunManifest& manifest,
                 const std::string& key) {
  for (const auto& [name, value] : manifest.notes) {
    if (name == key) {
      return value;
    }
  }
  return "unresolved";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  std::string root;
  RunOptions options;
  double seed = -1.0;
  double trace = -1.0;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[++i] : nullptr;
    if (value == nullptr) {
      return usage(("missing value for " + flag).c_str());
    }
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--root") {
      root = value;
    } else if (flag == "--seed") {
      if (!parse_number(value, 0, 4294967295.0, &seed)) {
        return usage("--seed expects an integer in [0, 2^32)");
      }
    } else if (flag == "--seconds") {
      if (!parse_number(value, 1, 600, &options.seconds)) {
        return usage("--seconds expects a number in [1, 600]");
      }
    } else if (flag == "--trace") {
      if (!parse_number(value, 0, 1, &trace) || (trace != 0 && trace != 1)) {
        return usage("--trace expects 0 or 1");
      }
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (workload.empty() || root.empty() || seed < 0 || trace < 0) {
    return usage("--workload, --seed, --trace and --root are required");
  }
  options.seed = static_cast<std::uint64_t>(seed);
  options.trace = trace == 1;
  options.root = root;

  RunResult run;
  try {
    ScratchDir scratch(root + "/.bench_build/scratch");
    options.scratch = scratch.path();
    if (workload == "scan_distinct") {
      run = run_scan_distinct(options);
    } else if (workload == "scan_tiled") {
      run = run_scan_tiled(options);
    } else if (workload == "serve_open") {
      run = run_serve_open(options);
    } else {
      return usage(("unknown workload " + workload).c_str());
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", workload.c_str(),
                 error.what());
    return 1;
  }

  const hotspot::obs::RunManifest manifest = hotspot::obs::collect_manifest();
  const char* threads_env = std::getenv("HOTSPOT_NUM_THREADS");
  std::string fields = "\"workload\": " + quoted(workload) +
                       ", \"seed\": " + std::to_string(options.seed) +
                       ", \"seconds\": " + std::to_string(options.seconds) +
                       ", \"trace\": " + (options.trace ? "true" : "false") +
                       ", \"nproc\": " +
                       std::to_string(std::thread::hardware_concurrency()) +
                       ", \"pool_threads\": " +
                       std::to_string(hotspot::util::parallel_threads()) +
                       ", \"xnor_kernel\": " +
                       quoted(note(manifest, "xnor_kernel")) +
                       ", \"HOTSPOT_NUM_THREADS\": " +
                       quoted(threads_env != nullptr ? threads_env : "unset");
  std::vector<std::pair<std::string, std::string>> extra = ladder_manifest();
  extra.insert(extra.end(), run.manifest.begin(), run.manifest.end());
  for (const auto& [key, value] : extra) {
    fields += ", " + quoted(key) + ": " + quoted(value);
  }
  std::printf("manifest: {%s, \"run_manifest\": %s}\n", fields.c_str(),
              hotspot::obs::manifest_json(manifest).c_str());
  for (const auto& [name, metric] : run.metrics.entries()) {
    std::printf("  %-34s %.6g %s\n", name.c_str(), metric.first,
                metric.second.c_str());
  }
  for (const std::string& failure : run.gate_failures) {
    std::fprintf(stderr, "perfbench: correctness gate failed: %s\n",
                 failure.c_str());
  }
  const bool correct = run.gate_failures.empty();
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<long long>(run.attempted),
              static_cast<long long>(run.failed), run.metrics.json().c_str());
  return correct ? 0 : 1;
}
