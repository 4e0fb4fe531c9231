#include "bench_util.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/cost_model.h"
#include "inputs.h"
#include "util/rng.h"

namespace perfbench {

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

namespace {

// Nearest-rank q-quantile (q in (0, 1]); 0 for an empty sample.
double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
  return samples[std::clamp<std::size_t>(rank, 1, samples.size()) - 1];
}

}  // namespace

double median(std::vector<double> samples) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                 : 0.5 * (samples[mid - 1] + samples[mid]);
}

Percentile tail_percentile(const std::vector<double>& samples, double max_q) {
  Percentile result;
  result.samples = samples.size();
  const std::size_t n = samples.size();
  // Up to 20 samples a rank with ten above it is at or below the median.
  if (n <= 20) {
    result.q = 0.5;
    result.value = median(samples);
    return result;
  }
  // Nearest rank r = ceil(q * n) leaves n - r samples above it; keep that
  // at least ten.
  const double top_rank = std::ceil(max_q * static_cast<double>(n) - 1e-9);
  result.q = top_rank <= static_cast<double>(n - 10)
                 ? max_q
                 : static_cast<double>(n - 10) / static_cast<double>(n);
  result.value = quantile(samples, result.q);
  return result;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::vector<Arrival> open_loop_schedule(std::uint64_t seed, double clips_per_s,
                                        double duration_s,
                                        std::size_t pool_size,
                                        double swap_period_s) {
  // Requests of 1-8 clips until the clip budget of the step is spent, with
  // exponential gaps; the gaps are then scaled to span the step, so every
  // step offers exactly its nominal rate and only the arrival pattern
  // varies with the seed.
  std::vector<Arrival> events;
  hotspot::util::Rng rng(seed);
  auto budget = static_cast<std::int64_t>(std::llround(clips_per_s * duration_s));
  double t = 0.0;
  while (budget > 0) {
    t += -std::log(1.0 - rng.uniform());
    Arrival arrival;
    arrival.due_s = t;
    const auto count = std::min(rng.uniform_int(1, 8), budget);
    budget -= count;
    for (std::int64_t i = 0; i < count; ++i) {
      arrival.clips.push_back(static_cast<std::int32_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(pool_size) - 1)));
    }
    events.push_back(std::move(arrival));
  }
  const double span = t - std::log(1.0 - rng.uniform());
  for (Arrival& arrival : events) {
    arrival.due_s *= duration_s / span;
  }
  if (swap_period_s > 0.0) {
    for (double s = swap_period_s; s < duration_s; s += swap_period_s) {
      Arrival swap;
      swap.due_s = s;
      swap.swap = true;
      events.push_back(std::move(swap));
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const Arrival& a, const Arrival& b) {
                       return a.due_s < b.due_s;
                     });
  }
  return events;
}

ScratchDir::ScratchDir(const std::string& parent) {
  std::filesystem::create_directories(parent);
  std::string pattern = parent + "/run-" + std::to_string(::getpid()) + "-XXXXXX";
  if (::mkdtemp(pattern.data()) == nullptr) {
    throw std::runtime_error("cannot create a scratch directory under " +
                             parent);
  }
  path_ = pattern;
}

ScratchDir::~ScratchDir() {
  std::error_code ignored;
  std::filesystem::remove_all(path_, ignored);
}

void SetupSampler::round() {
  for (int i = 0; i < kPerRound; ++i) {
    const auto [setup_s, load_s] = once_();
    setup_s_.push_back(setup_s);
    load_s_.push_back(load_s);
  }
}

void SetupSampler::between(double elapsed_s, double seconds, int rounds) {
  if (marks_passed_ + 1 < rounds &&
      elapsed_s >= seconds * (marks_passed_ + 1) / rounds) {
    ++marks_passed_;
    round();
  }
}

double SetupSampler::median_setup_s() const { return median(setup_s_); }

double SetupSampler::median_load_s() const { return median(load_s_); }

void MetricSet::set(const std::string& name, double value,
                    const std::string& unit) {
  for (auto& entry : entries_) {
    if (entry.first == name) {
      entry.second = {value, unit};
      return;
    }
  }
  entries_.push_back({name, {value, unit}});
}

std::string MetricSet::json() const {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const auto& [name, metric] : entries_) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metric.first) ? metric.first : 0.0);
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << value
        << ", \"unit\": \"" << metric.second << "\"}";
    first = false;
  }
  out << "}";
  return out.str();
}

void set_model_span_metrics(const hotspot::obs::SpanReport& spans,
                            double clips, MetricSet* metrics) {
  const double per_clip_us = clips > 0.0 ? 1e6 / clips : 0.0;
  double xnor_s = 0.0;
  for (const auto& [name, stat] : spans.spans) {
    if (name.rfind("binary_conv.gemm.", 0) == 0) {
      xnor_s += stat.total_seconds;
    } else if (name.rfind("brnn.conv.", 0) == 0) {
      metrics->set(name + "_us_per_clip", stat.total_seconds * per_clip_us,
                   "us");
    }
  }
  const hotspot::obs::SpanStat* pack = spans.find("binary_conv.pack");
  metrics->set("bitops.pack_us_per_clip",
               pack != nullptr ? pack->total_seconds * per_clip_us : 0.0, "us");
  metrics->set("bitops.xnor_us_per_clip", xnor_s * per_clip_us, "us");
  metrics->set("bitops.word_ops_per_clip",
               static_cast<double>(hotspot::core::network_cost(
                                       hotspot::core::BrnnConfig::compact(kGrid))
                                       .packed_word_ops),
               "count");
}

Quality tally_quality(const std::vector<int>& truth,
                      const std::vector<int>& labels) {
  Quality quality;
  quality.windows = static_cast<std::int64_t>(truth.size());
  for (std::size_t i = 0; i < truth.size(); ++i) {
    quality.hotspots += truth[i];
    quality.detected += truth[i] & labels[i];
    quality.false_alarms += (1 - truth[i]) & labels[i];
  }
  return quality;
}

void set_quality_metrics(const Quality& quality, MetricSet* metrics) {
  metrics->set("quality.oracle_windows", static_cast<double>(quality.windows),
               "count");
  metrics->set("quality.hotspots", static_cast<double>(quality.hotspots),
               "count");
  metrics->set("quality.recall",
               quality.hotspots > 0 ? static_cast<double>(quality.detected) /
                                          static_cast<double>(quality.hotspots)
                                    : 0.0,
               "ratio");
  metrics->set("quality.false_alarms",
               static_cast<double>(quality.false_alarms), "count");
}

}  // namespace perfbench
