// Measurement helpers shared by the perfbench workloads: percentiles with a
// stated sample count, the open-loop arrival schedule, peak RSS, a per-run
// scratch directory, set-up sampling, the metric printer, and the metrics
// every workload derives the same way (model spans, oracle quality).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to);

// A percentile as reported: the quantile actually used, its value and the
// number of samples it was taken from.
struct Percentile {
  double q = 0.0;
  double value = 0.0;
  std::size_t samples = 0;
};

double median(std::vector<double> samples);

// The highest nearest-rank percentile, at most `max_q`, that still has at
// least ten samples above it. With 20 samples or fewer no tail is supported
// and the median is returned (q = 0.5).
Percentile tail_percentile(const std::vector<double>& samples,
                           double max_q = 0.99);

// Peak resident set size of this process (VmHWM), in MiB.
double peak_rss_mb();

// One scheduled event of the open-loop generator.
struct Arrival {
  double due_s = 0.0;             // offset from the step start
  bool swap = false;              // a hot-swap frame instead of a predict
  std::vector<std::int32_t> clips;  // pool indices (predict only)
};

// Poisson-like arrivals of 1-8 clip requests offering exactly
// round(clips_per_s * duration_s) clips over `duration_s`, drawing clips
// from a pool of `pool_size`, plus one swap event every `swap_period_s`
// (0 = none). Sorted by due time; a pure function of its arguments.
std::vector<Arrival> open_loop_schedule(std::uint64_t seed, double clips_per_s,
                                        double duration_s,
                                        std::size_t pool_size,
                                        double swap_period_s);

// A fresh directory under `parent`, unique per process and call, removed
// with its contents on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& parent);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// Set-up time (checkpoint load -> first verdict) sampled in rounds spread
// over a run. Set-up takes milliseconds, so one burst of samples reads the
// host's speed of that moment; rounds before, during and after the timed
// phase average over the drift of a shared host.
class SetupSampler {
 public:
  static constexpr int kPerRound = 10;

  // `once` performs one set-up and returns {seconds to first verdict,
  // seconds of it spent in ModelRegistry::load}.
  explicit SetupSampler(std::function<std::pair<double, double>()> once)
      : once_(std::move(once)) {}

  void round();
  // Runs a round each time `elapsed_s` passes the next of `rounds` - 1
  // evenly spaced marks inside a timed phase of `seconds`.
  void between(double elapsed_s, double seconds, int rounds);

  double median_setup_s() const;
  double median_load_s() const;
  std::size_t samples() const { return setup_s_.size(); }

 private:
  std::function<std::pair<double, double>()> once_;
  std::vector<double> setup_s_;
  std::vector<double> load_s_;
  int marks_passed_ = 0;
};

// Named metrics of one run, printed in insertion order.
class MetricSet {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  entries() const {
    return entries_;
  }
  // {"name": {"value": v, "unit": "u"}, ...}
  std::string json() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> entries_;
};

// The model's own spans of a traced phase as microseconds per classified
// clip: bitops.pack_us_per_clip (binary_conv.pack), bitops.xnor_us_per_clip
// (every binary_conv.gemm.<kernel>) and brnn.conv.<layer>_us_per_clip, plus
// bitops.word_ops_per_clip from core::network_cost. Per clip, so a phase
// that serves more clips does not read as a slower model.
void set_model_span_metrics(const hotspot::obs::SpanReport& spans,
                            double clips, MetricSet* metrics);

// Detector verdicts against the lithography oracle on the same windows.
struct Quality {
  std::int64_t windows = 0;
  std::int64_t hotspots = 0;  // oracle says hotspot
  std::int64_t detected = 0;  // ... and so does the detector
  std::int64_t false_alarms = 0;
};
Quality tally_quality(const std::vector<int>& truth,
                      const std::vector<int>& labels);
// quality.recall and quality.false_alarms with their bases.
void set_quality_metrics(const Quality& quality, MetricSet* metrics);

}  // namespace perfbench
