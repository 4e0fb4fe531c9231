// scan_distinct and scan_tiled: full-chip scans through scan::ScanPipeline
// with the classifier wrapped around serve::ServableModel::predict.
//
// scan_distinct draws every tile independently from all six families, so
// nearly every window raster is new: dedup misses and the model does almost
// all the work. scan_tiled repeats a four-tile library over a much larger
// chip, so dedup hits on >99% of windows and the producer (window stream,
// rasterization, dedup) does almost all the work. The same code runs on
// both; only the chip differs.
#include <algorithm>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "bench_util.h"
#include "inputs.h"
#include "layout/clip.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "scan/dedup_cache.h"
#include "scan/pipeline.h"
#include "scan/window_stream.h"
#include "serve/model_registry.h"
#include "workloads.h"

namespace perfbench {
namespace {

using hotspot::tensor::Tensor;

// scan_distinct: 28 x 28 tiles -> 55 x 55 = 3025 windows per scan.
constexpr int kDistinctTiles = 28;
// scan_tiled: 300 x 300 tiles of a 4-tile library -> 599 x 599 windows.
constexpr int kTiledTiles = 300;
constexpr int kTiledLibrary = 4;
// Set-up rounds: one before the timed phase, kSetupRounds - 1 during it
// (between scans) and one after it.
constexpr int kSetupRounds = 4;
constexpr int kCheckBatch = 64;

// Per-scan measurements taken from the benchmark side.
struct ScanSample {
  bool traced = false;
  double wall_s = 0.0;
  double classify_s = 0.0;
  std::int64_t classify_calls = 0;
  std::int64_t classify_clips = 0;
  hotspot::scan::ScanStats stats;
  std::int64_t quarantined = 0;
};

struct LoadedModel {
  std::unique_ptr<hotspot::serve::ModelRegistry> registry;
  std::shared_ptr<hotspot::serve::ServableModel> model;
};

// Checkpoint load -> model build -> first verdict, as a deploy caller
// does it. Returns {seconds to the first verdict, seconds in load}.
std::pair<double, double> load_model(const std::string& path, LoadedModel* out) {
  const Clock::time_point start = Clock::now();
  auto registry = std::make_unique<hotspot::serve::ModelRegistry>();
  const hotspot::nn::LoadResult loaded = registry->load(path, kGrid);
  if (!loaded.ok()) {
    throw std::runtime_error("cannot load " + path + ": " + loaded.message);
  }
  const double load_s = seconds_between(start, Clock::now());
  auto model = registry->active();
  if (model->predict(Tensor({1, 1, kGrid, kGrid})).size() != 1) {
    throw std::runtime_error("the first verdict of " + path + " is not one label");
  }
  const double setup_s = seconds_between(start, Clock::now());
  out->registry = std::move(registry);
  out->model = std::move(model);
  return {setup_s, load_s};
}

// Per-window cost of the producer's three layers, measured by calling each
// layer's public functions directly over the same chip.
struct ProducerProbe {
  double materialize_us = 0.0;
  double rasterize_us = 0.0;
  double dedup_us = 0.0;
};

ProducerProbe probe_producer(const hotspot::layout::Pattern& chip) {
  hotspot::scan::ClipWindowStream stream(chip, window_nm(), stride_nm());
  hotspot::scan::RasterDedupCache cache;
  std::int64_t next_entry = 0;
  double stream_s = 0.0;
  double raster_s = 0.0;
  double dedup_s = 0.0;
  hotspot::scan::WindowRef ref;
  Clock::time_point t0 = Clock::now();
  while (stream.next(ref)) {
    const hotspot::layout::Clip clip = stream.materialize(ref);
    const Clock::time_point t1 = Clock::now();
    const Tensor image = clip.binary(kGrid);
    const Clock::time_point t2 = Clock::now();
    hotspot::scan::RasterKey key(static_cast<std::size_t>(image.numel()));
    for (std::int64_t i = 0; i < image.numel(); ++i) {
      key[static_cast<std::size_t>(i)] = image[i] != 0.0f ? 1 : 0;
    }
    const Clock::time_point t3 = Clock::now();
    const std::uint64_t hash = hotspot::scan::hash_raster(key);
    if (cache.find(hash, key) < 0) {
      cache.insert(hash, std::move(key), next_entry++);
    }
    const Clock::time_point t4 = Clock::now();
    stream_s += seconds_between(t0, t1);
    raster_s += seconds_between(t1, t2);
    dedup_s += seconds_between(t3, t4);
    t0 = Clock::now();
  }
  const double per_window_us =
      1e6 / static_cast<double>(std::max<std::int64_t>(stream.window_count(), 1));
  return {stream_s * per_window_us, raster_s * per_window_us,
          dedup_s * per_window_us};
}

RunResult run_scan(const RunOptions& options,
                   const hotspot::layout::Pattern& chip, bool journal,
                   bool oracle_every_window) {
  RunResult run;
  const std::string checkpoint = fixture_path(options.root, 'a');

  // Set-up is sampled in rounds over the run; the first model loaded
  // serves the scans.
  LoadedModel loaded;
  SetupSampler setups([&] {
    LoadedModel fresh;
    const std::pair<double, double> times = load_model(checkpoint, &fresh);
    if (loaded.model == nullptr) {
      loaded = std::move(fresh);
    }
    return times;
  });
  setups.round();
  hotspot::serve::ServableModel& model = *loaded.model;

  ScanSample* current = nullptr;
  auto classify = [&](const Tensor& images) {
    const Clock::time_point start = Clock::now();
    std::vector<int> labels = model.predict(images);
    current->classify_s += seconds_between(start, Clock::now());
    ++current->classify_calls;
    current->classify_clips += images.dim(0);
    return labels;
  };

  hotspot::scan::ScanConfig config;
  config.window_nm = window_nm();
  config.step_nm = stride_nm();
  config.grid = kGrid;
  if (journal) {
    config.journal_path = options.scratch + "/scan.hsjl";
  }
  hotspot::scan::ScanPipeline pipeline(config, classify);

  // Timed phase: whole scans until the time is spent. A traced run
  // alternates untraced and traced scans so the tracing overhead is
  // measured in the same process.
  hotspot::obs::MetricsRegistry& metrics = hotspot::obs::MetricsRegistry::global();
  const hotspot::obs::MetricsSnapshot before = metrics.snapshot();
  hotspot::obs::reset_spans();
  std::vector<ScanSample> samples;
  std::vector<int> first_labels;
  bool labels_repeat = true;
  const Clock::time_point timed_start = Clock::now();
  while (samples.size() < (options.trace ? 2u : 1u) ||
         seconds_between(timed_start, Clock::now()) < options.seconds) {
    samples.emplace_back();
    ScanSample& sample = samples.back();
    sample.traced = options.trace && samples.size() % 2 == 0;
    current = &sample;
    hotspot::obs::set_trace_enabled(sample.traced);
    const Clock::time_point start = Clock::now();
    hotspot::scan::ScanResult result = pipeline.scan(chip);
    sample.wall_s = seconds_between(start, Clock::now());
    hotspot::obs::set_trace_enabled(false);
    sample.stats = result.stats;
    sample.quarantined = static_cast<std::int64_t>(result.quarantined_windows.size());
    if (first_labels.empty()) {
      first_labels = std::move(result.labels);
    } else {
      labels_repeat = labels_repeat && result.labels == first_labels;
    }
    setups.between(seconds_between(timed_start, Clock::now()), options.seconds,
                   kSetupRounds);
  }
  const double rss_mb = peak_rss_mb();
  const hotspot::obs::MetricsSnapshot delta = metrics.snapshot().delta_since(before);
  const hotspot::obs::SpanReport spans = hotspot::obs::collect_span_report();

  // Correctness gates.
  const auto windows = static_cast<std::int64_t>(first_labels.size());
  run.attempted = windows * static_cast<std::int64_t>(samples.size());
  for (const ScanSample& sample : samples) {
    run.failed += sample.quarantined;
  }
  run.gate(run.failed == 0, "scan quarantined windows");
  run.gate(labels_repeat, "repeated scans of one chip disagree");
  const EagerWindows eager = eager_windows(chip);
  run.gate(static_cast<std::int64_t>(eager.window_to_unique.size()) == windows,
           "scan window count differs from the eager window grid");
  std::vector<int> unique_labels;
  for (std::size_t begin = 0; begin < eager.unique.size(); begin += kCheckBatch) {
    std::vector<std::int32_t> batch(std::min<std::size_t>(kCheckBatch, eager.unique.size() - begin));
    std::iota(batch.begin(), batch.end(), static_cast<std::int32_t>(begin));
    const std::vector<int> labels = model.predict(stack(eager.unique, batch));
    unique_labels.insert(unique_labels.end(), labels.begin(), labels.end());
  }
  bool identical = static_cast<std::int64_t>(eager.window_to_unique.size()) == windows;
  for (std::int64_t w = 0; identical && w < windows; ++w) {
    identical = first_labels[static_cast<std::size_t>(w)] ==
                unique_labels[static_cast<std::size_t>(
                    eager.window_to_unique[static_cast<std::size_t>(w)])];
  }
  run.gate(identical, "scan labels differ from ServableModel::predict on the eagerly rasterized windows");
  const auto flagged = std::count(first_labels.begin(), first_labels.end(), 1);
  run.gate(flagged > 0 && flagged < windows, "scan labels do not contain both classes");

  // Quality against the lithography oracle, outside the timed region.
  std::vector<std::int64_t> oracle_windows;
  if (oracle_every_window) {
    oracle_windows.resize(static_cast<std::size_t>(windows));
    std::iota(oracle_windows.begin(), oracle_windows.end(), 0);
  } else {
    oracle_windows = eager.first_window;  // one window per distinct raster
  }
  std::vector<int> oracle_window_labels;
  for (const std::int64_t w : oracle_windows) {
    oracle_window_labels.push_back(first_labels[static_cast<std::size_t>(w)]);
  }
  const Quality quality =
      tally_quality(oracle_labels(chip, oracle_windows), oracle_window_labels);
  setups.round();

  std::vector<double> wall_ms;
  std::vector<double> untraced_rate;
  std::vector<double> traced_rate;
  for (const ScanSample& sample : samples) {
    const double rate = static_cast<double>(sample.stats.windows) / sample.wall_s;
    (sample.traced ? traced_rate : untraced_rate).push_back(rate);
    if (!sample.traced) {
      wall_ms.push_back(sample.wall_s * 1e3);
    }
  }
  MetricSet& m = run.metrics;
  if (!options.trace) {
    m.set("setup_s", setups.median_setup_s(), "s");
    m.set("peak_rss_mb", rss_mb, "MB");
    m.set("clips_per_s", median(untraced_rate), "clips/s");
    m.set("latency_p50_ms", median(wall_ms), "ms");
    m.set("latency_tail_ms", tail_percentile(wall_ms).value, "ms");
  } else {
    // Per traced scan; the model's spans per classified clip.
    ScanSample sum;
    std::int64_t traced = 0;
    for (const ScanSample& sample : samples) {
      if (!sample.traced) {
        continue;
      }
      ++traced;
      sum.wall_s += sample.wall_s;
      sum.classify_s += sample.classify_s;
      sum.classify_calls += sample.classify_calls;
      sum.classify_clips += sample.classify_clips;
      sum.stats.raster_seconds += sample.stats.raster_seconds;
      sum.stats.windows += sample.stats.windows;
      sum.stats.unique_windows += sample.stats.unique_windows;
      sum.stats.dedup_hits += sample.stats.dedup_hits;
    }
    const double per = 1.0 / static_cast<double>(traced);
    m.set("trace.scans", static_cast<double>(traced), "count");
    m.set("trace.clips", static_cast<double>(sum.classify_clips) * per, "count");
    m.set("scan.wall_s", sum.wall_s * per, "s");
    m.set("scan.classify_s", sum.classify_s * per, "s");
    m.set("scan.classify_share", sum.classify_s / sum.wall_s, "ratio");
    m.set("scan.classify_wait_s", (sum.wall_s - sum.classify_s) * per, "s");
    m.set("scan.producer_s", sum.stats.raster_seconds * per, "s");
    m.set("scan.producer_share", sum.stats.raster_seconds / sum.wall_s, "ratio");
    m.set("scan.batches", static_cast<double>(sum.classify_calls) * per, "count");
    m.set("scan.batch_clips_mean",
          static_cast<double>(sum.classify_clips) /
              static_cast<double>(std::max<std::int64_t>(sum.classify_calls, 1)),
          "clips");
    m.set("core.predict_ms_per_clip",
          sum.classify_s * 1e3 /
              static_cast<double>(std::max<std::int64_t>(sum.classify_clips, 1)),
          "ms");
    m.set("scan.windows", static_cast<double>(sum.stats.windows) * per, "count");
    m.set("scan.unique_windows", static_cast<double>(sum.stats.unique_windows) * per, "count");
    m.set("scan.dedup_hit_ratio",
          static_cast<double>(sum.stats.dedup_hits) /
              static_cast<double>(std::max<std::int64_t>(sum.stats.windows, 1)),
          "ratio");
    set_model_span_metrics(spans, static_cast<double>(sum.classify_clips), &m);
    const hotspot::obs::HistogramSample* append =
        delta.find_histogram("scan.journal.append_seconds");
    if (append != nullptr && append->count > 0) {
      m.set("journal.appends", static_cast<double>(append->count) /
                                   static_cast<double>(samples.size()), "count");
      m.set("journal.append_ms", append->sum * 1e3 / static_cast<double>(append->count), "ms");
    }
    m.set("registry.load_ms", setups.median_load_s() * 1e3, "ms");
    const ProducerProbe probe = probe_producer(chip);
    m.set("window_stream.materialize_us", probe.materialize_us, "us");
    m.set("layout.rasterize_us", probe.rasterize_us, "us");
    m.set("dedup.lookup_us", probe.dedup_us, "us");
    m.set("trace.untraced_clips_per_s", median(untraced_rate), "clips/s");
    m.set("trace.traced_clips_per_s", median(traced_rate), "clips/s");
    m.set("trace.overhead_ratio", median(untraced_rate) / median(traced_rate) - 1.0, "ratio");
  }
  m.set("failed_ratio",
        static_cast<double>(run.failed) / static_cast<double>(std::max<std::int64_t>(run.attempted, 1)),
        "ratio");
  set_quality_metrics(quality, &m);
  run.manifest.push_back({"windows_per_scan", std::to_string(windows)});
  run.manifest.push_back({"scans", std::to_string(samples.size())});
  run.manifest.push_back({"setup_samples", std::to_string(setups.samples())});
  run.manifest.push_back({"journal", journal ? "on" : "off"});
  return run;
}

}  // namespace

RunResult run_scan_distinct(const RunOptions& options) {
  RunResult run = run_scan(options, distinct_chip(options.seed, kDistinctTiles),
                           /*journal=*/true, /*oracle_every_window=*/true);
  run.manifest.push_back({"chip", std::to_string(kDistinctTiles) + "x" +
                                      std::to_string(kDistinctTiles) +
                                      " independent tiles"});
  return run;
}

RunResult run_scan_tiled(const RunOptions& options) {
  RunResult run = run_scan(
      options, tiled_chip(options.seed, kTiledLibrary, kTiledTiles),
      /*journal=*/false, /*oracle_every_window=*/false);
  run.manifest.push_back({"chip", std::to_string(kTiledTiles) + "x" +
                                      std::to_string(kTiledTiles) + " tiles of a " +
                                      std::to_string(kTiledLibrary) + "-tile library"});
  return run;
}

}  // namespace perfbench
