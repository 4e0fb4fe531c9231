// serve_open: an in-process serve::Server on loopback, driven by an open
// loop from this process over a few blocking ServeClient connections.
//
// Requests carry 1-8 clips drawn from a pool of windows of the
// scan_distinct chip and arrive as a Poisson process. A fixed reference
// rate, played before and after the ladder, gives the latency metrics; the
// ladder of fixed offered clip rates is searched, from a rung a saturating
// probe picks, for the neighbouring rungs where a rate starts to miss the
// latency limit, lose a request, or fall further and further behind
// schedule, which locates the sustainable rate. Each request is timed from
// the moment it was due, so a stall also charges every request queued
// behind it. Hot-swap frames alternating between the two fixture
// checkpoints ride the same schedule at a fixed cadence.
#include "serve_workload.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <limits>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <thread>

#include "inputs.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

using hotspot::tensor::Tensor;

const ServeLadder& serve_ladder() {
  static const ServeLadder ladder = {
      /*reference_cps=*/300.0,
      /*rates_cps=*/{600.0, 700.0, 750.0, 800.0, 850.0, 900.0, 950.0,
                     1000.0, 1100.0, 1200.0, 1400.0, 1600.0},
      /*tail_q=*/0.95,
      /*latency_limit_ms=*/100.0,
      /*late_growth_limit_ms=*/10.0,
      /*swap_period_s=*/0.25,
      /*connections=*/4,
  };
  return ladder;
}

std::int64_t StepStats::requests() const {
  return std::count_if(records.begin(), records.end(),
                       [](const RequestRecord& r) { return !r.swap; });
}

std::int64_t StepStats::misses() const {
  return std::count_if(records.begin(), records.end(),
                       [](const RequestRecord& r) {
                         return !r.swap && r.outcome != Outcome::kOk;
                       });
}

std::int64_t StepStats::swap_failures() const {
  return std::count_if(records.begin(), records.end(),
                       [](const RequestRecord& r) {
                         return r.swap && r.outcome != Outcome::kOk;
                       });
}

double StepStats::failed_ratio() const {
  const std::int64_t sent = requests();
  return sent == 0 ? 0.0
                   : static_cast<double>(misses()) / static_cast<double>(sent);
}

std::vector<double> StepStats::latency_ms() const {
  std::vector<double> out;
  for (const RequestRecord& r : records) {
    if (!r.swap) {
      out.push_back(r.outcome == Outcome::kOk
                        ? (r.recv_s - r.due_s) * 1e3
                        : std::numeric_limits<double>::infinity());
    }
  }
  return out;
}

std::vector<double> StepStats::late_ms() const {
  std::vector<double> out;
  for (const RequestRecord& r : records) {
    if (!r.swap) {
      out.push_back((r.send_s - r.due_s) * 1e3);
    }
  }
  return out;
}

std::vector<double> StepStats::service_ms() const {
  std::vector<double> out;
  for (const RequestRecord& r : records) {
    if (!r.swap && r.outcome == Outcome::kOk) {
      out.push_back((r.recv_s - r.send_s) * 1e3);
    }
  }
  return out;
}

std::vector<double> StepStats::swap_ms() const {
  std::vector<double> out;
  for (const RequestRecord& r : records) {
    if (r.swap && r.outcome == Outcome::kOk) {
      out.push_back((r.recv_s - r.send_s) * 1e3);
    }
  }
  return out;
}

double StepStats::late_growth_ms() const {
  const std::vector<double> late = late_ms();
  const std::size_t quarter = late.size() / 4;
  if (quarter == 0) {
    return 0.0;
  }
  return median({late.end() - static_cast<std::ptrdiff_t>(quarter), late.end()}) -
         median({late.begin(), late.begin() + static_cast<std::ptrdiff_t>(quarter)});
}

std::vector<std::pair<std::string, std::string>> ladder_manifest() {
  const ServeLadder& ladder = serve_ladder();
  std::string rates;
  for (const double rate : ladder.rates_cps) {
    if (!rates.empty()) {
      rates += ',';
    }
    rates += std::to_string(static_cast<int>(rate));
  }
  return {{"ladder_cps", rates},
          {"reference_cps", std::to_string(static_cast<int>(ladder.reference_cps))},
          {"tail_q", std::to_string(ladder.tail_q)},
          {"latency_limit_ms", std::to_string(ladder.latency_limit_ms)},
          {"late_growth_limit_ms", std::to_string(ladder.late_growth_limit_ms)},
          {"swap_period_s", std::to_string(ladder.swap_period_s)},
          {"connections", std::to_string(ladder.connections)}};
}

StepVerdict judge(const std::vector<const StepStats*>& repeats,
                  const ServeLadder& ladder) {
  StepVerdict verdict;
  std::vector<double> latency;
  std::vector<double> growth;
  std::int64_t misses = 0;
  for (const StepStats* step : repeats) {
    const std::vector<double> part = step->latency_ms();
    latency.insert(latency.end(), part.begin(), part.end());
    growth.push_back(step->late_growth_ms());
    misses += step->misses() + step->swap_failures();
  }
  verdict.tail = tail_percentile(latency, ladder.tail_q);
  verdict.growth_ms = median(growth);
  verdict.within_limit = verdict.tail.value <= ladder.latency_limit_ms;
  verdict.no_misses = misses == 0;
  verdict.keeping_up = verdict.growth_ms <= ladder.late_growth_limit_ms;
  verdict.load = std::max(verdict.tail.value / ladder.latency_limit_ms,
                          verdict.growth_ms / ladder.late_growth_limit_ms);
  return verdict;
}

StepVerdict judge(const StepStats& step, const ServeLadder& ladder) {
  return judge(std::vector<const StepStats*>{&step}, ladder);
}

ServeHarness::ServeHarness(const hotspot::serve::ServerConfig& config,
                           std::string checkpoint_a, std::string checkpoint_b,
                           int connections)
    : config_(config),
      checkpoint_a_(std::move(checkpoint_a)),
      checkpoint_b_(std::move(checkpoint_b)),
      connections_(connections) {}

ServeHarness::~ServeHarness() {
  clients_.clear();
  if (server_ != nullptr) {
    server_->stop();
  }
}

double ServeHarness::setup() {
  const Clock::time_point start = Clock::now();
  registry_ = std::make_unique<hotspot::serve::ModelRegistry>();
  const hotspot::nn::LoadResult loaded = registry_->load(checkpoint_a_, kGrid);
  if (!loaded.ok()) {
    throw std::runtime_error("cannot load " + checkpoint_a_ + ": " +
                             loaded.message);
  }
  load_seconds_ = seconds_between(start, Clock::now());
  registry_->active()->predict(Tensor({1, 1, kGrid, kGrid}));
  server_ = std::make_unique<hotspot::serve::Server>(config_, registry_.get());
  std::string error;
  if (!server_->start(&error)) {
    throw std::runtime_error("cannot start the server: " + error);
  }
  for (int i = 0; i < connections_; ++i) {
    auto client = std::make_unique<hotspot::serve::ServeClient>();
    if (!client->connect("127.0.0.1", server_->bound_port(), &error) ||
        !client->ping(static_cast<std::uint32_t>(i + 1), &error)) {
      throw std::runtime_error("cannot reach the server: " + error);
    }
    clients_.push_back(std::move(client));
  }
  hotspot::serve::PredictOutcome first;
  if (!clients_.front()->predict("perfbench", Tensor({1, 1, kGrid, kGrid}),
                                 &first, &error) ||
      !first.ok) {
    throw std::runtime_error("first served verdict failed: " + error);
  }
  return seconds_between(start, Clock::now());
}

StepStats ServeHarness::run_step(
    const std::vector<Arrival>& schedule,
    const std::vector<std::vector<std::uint8_t>>& pool, bool sample_queue) {
  StepStats step;
  step.records.resize(schedule.size());
  // Requests are stacked before the clock starts, so the generator only
  // sends and waits.
  std::vector<Tensor> requests(schedule.size());
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    if (!schedule[i].swap) {
      requests[i] = stack(pool, schedule[i].clips);
    }
  }
  std::atomic<std::size_t> next{0};
  std::atomic<bool> done{false};
  // Let every connection thread reach its first wait before t = 0.
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  auto since_start = [start] { return seconds_between(start, Clock::now()); };

  auto drive = [&](hotspot::serve::ServeClient& client) {
    std::string error;
    for (std::size_t i = next++; i < schedule.size(); i = next++) {
      const Arrival& event = schedule[i];
      RequestRecord& record = step.records[i];
      record.due_s = event.due_s;
      record.swap = event.swap;
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(event.due_s)));
      if (event.swap) {
        const std::uint64_t k = swaps_sent_++;
        std::uint64_t version = 0;
        std::optional<hotspot::serve::Reject> reject;
        record.send_s = since_start();
        const bool sent = client.swap_model(
            k % 2 == 0 ? checkpoint_b_ : checkpoint_a_, kGrid, &version,
            &reject, &error);
        record.recv_s = since_start();
        record.outcome = !sent              ? Outcome::kTransport
                         : reject.has_value() ? Outcome::kRejected
                                              : Outcome::kOk;
        continue;
      }
      hotspot::serve::PredictOutcome outcome;
      record.send_s = since_start();
      const bool sent =
          client.predict("perfbench", requests[i], &outcome, &error);
      record.recv_s = since_start();
      if (!sent) {
        record.outcome = Outcome::kTransport;
      } else if (!outcome.ok) {
        record.outcome = outcome.reason == hotspot::serve::RejectReason::kQueueFull
                             ? Outcome::kShed
                             : Outcome::kRejected;
      } else {
        record.labels = std::move(outcome.labels);
      }
    }
  };

  std::vector<std::thread> threads;
  for (auto& client : clients_) {
    threads.emplace_back(drive, std::ref(*client));
  }
  std::thread sampler;
  if (sample_queue) {
    sampler = std::thread([&] {
      while (!done.load()) {
        step.queue_depth_max =
            std::max(step.queue_depth_max, server_->queue_depth_clips());
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  done = true;
  if (sampler.joinable()) {
    sampler.join();
  }
  return step;
}

namespace {

constexpr std::size_t kPoolSize = 1024;
constexpr int kPoolChipTiles = 28;  // the scan_distinct chip
// Shares of --seconds given to each half of the reference step and to each
// ladder step; every ladder rate is played kStepRepeats times.
constexpr double kReferenceShare = 0.25;
constexpr double kStepShare = 0.04;
constexpr int kStepRepeats = 3;
// Beyond each end of the ladder the search goes on in this many geometric
// rungs, so a sustainable rate outside the ladder is still measured.
constexpr double kExtraRungFactor = 1.25;
constexpr int kExtraRungs = 6;
// The saturating probe that picks the entry rung: kProbeClips clips offered
// far above any rung; the search enters at the highest rung at most
// kEntryShare of the clip rate the probe gets through.
constexpr double kProbeCps = 10000.0;
constexpr double kProbeClips = 1200.0;
constexpr double kEntryShare = 0.85;
constexpr std::int64_t kCheckBatch = 64;

std::vector<int> direct_labels(const std::string& checkpoint,
                               const std::vector<std::vector<std::uint8_t>>& pool) {
  hotspot::serve::ServableModel model(checkpoint, kGrid, 1);
  if (!model.load_result().ok()) {
    throw std::runtime_error("cannot load " + checkpoint);
  }
  std::vector<int> labels;
  for (std::size_t begin = 0; begin < pool.size(); begin += kCheckBatch) {
    std::vector<std::int32_t> batch(
        std::min<std::size_t>(kCheckBatch, pool.size() - begin));
    std::iota(batch.begin(), batch.end(), static_cast<std::int32_t>(begin));
    const std::vector<int> part = model.predict(stack(pool, batch));
    labels.insert(labels.end(), part.begin(), part.end());
  }
  return labels;
}

double histogram_mean(const hotspot::obs::MetricsSnapshot& delta,
                      const std::string& name) {
  const hotspot::obs::HistogramSample* h = delta.find_histogram(name);
  return h != nullptr && h->count > 0 ? h->sum / static_cast<double>(h->count)
                                      : 0.0;
}

double histogram_quantile(const hotspot::obs::MetricsSnapshot& delta,
                          const std::string& name, double q) {
  const hotspot::obs::HistogramSample* h = delta.find_histogram(name);
  return h != nullptr ? h->quantile(q) : 0.0;
}

std::uint64_t counter(const hotspot::obs::MetricsSnapshot& delta,
                      const std::string& name) {
  const hotspot::obs::CounterSample* c = delta.find_counter(name);
  return c != nullptr ? c->value : 0;
}

// Clips answered per second over a step, from its first send to its last
// answer.
double answered_cps(const StepStats& step, const std::vector<Arrival>& schedule) {
  double first = std::numeric_limits<double>::infinity();
  double last = 0.0;
  double clips = 0.0;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const RequestRecord& record = step.records[i];
    if (!record.swap && record.outcome == Outcome::kOk) {
      first = std::min(first, record.send_s);
      last = std::max(last, record.recv_s);
      clips += static_cast<double>(schedule[i].clips.size());
    }
  }
  return last > first ? clips / (last - first) : 0.0;
}

}  // namespace

RunResult run_serve_open(const RunOptions& options) {
  RunResult run;
  const ServeLadder& ladder = serve_ladder();

  // Inputs: a seeded pool of distinct window rasters of the scan_distinct
  // chip, and private copies of the checkpoint pair to swap between.
  const EagerWindows eager =
      eager_windows(distinct_chip(options.seed, kPoolChipTiles));
  std::vector<std::int32_t> order(eager.unique.size());
  std::iota(order.begin(), order.end(), 0);
  hotspot::util::Rng pool_rng(options.seed ^ 0x9e3779b97f4a7c15ull);
  pool_rng.shuffle(order);
  std::vector<std::vector<std::uint8_t>> pool;
  for (std::size_t i = 0; i < std::min(kPoolSize, order.size()); ++i) {
    pool.push_back(eager.unique[static_cast<std::size_t>(order[i])]);
  }
  const std::string model_a = options.scratch + "/model_a.hspt";
  const std::string model_b = options.scratch + "/model_b.hspt";
  std::filesystem::copy_file(fixture_path(options.root, 'a'), model_a);
  std::filesystem::copy_file(fixture_path(options.root, 'b'), model_b);
  const std::vector<int> expected_a = direct_labels(model_a, pool);
  const std::vector<int> expected_b = direct_labels(model_b, pool);

  // Set-up is sampled in a round before and a round after the timed phase;
  // the first harness serves the load.
  std::unique_ptr<ServeHarness> harness;
  SetupSampler setups([&] {
    auto fresh = std::make_unique<ServeHarness>(
        hotspot::serve::ServerConfig{}, model_a, model_b, ladder.connections);
    const std::pair<double, double> times{fresh->setup(), fresh->load_seconds()};
    if (harness == nullptr) {
      harness = std::move(fresh);
    }
    return times;
  });
  setups.round();

  const double reference_s = kReferenceShare * options.seconds;
  const double step_s = kStepShare * options.seconds;
  std::uint64_t next_schedule = 0;
  std::vector<std::vector<Arrival>> schedules;
  // A deque keeps references to earlier steps valid as steps are added.
  std::deque<StepStats> steps;
  std::vector<std::string> rate_lines;
  // Plays `rate` `repeats` times back to back and judges the pooled steps.
  auto play = [&](double rate, double duration, int repeats, bool sample_queue) {
    std::vector<const StepStats*> played;
    for (int r = 0; r < repeats; ++r) {
      schedules.push_back(open_loop_schedule(
          options.seed * 1000003ull + next_schedule++, rate, duration,
          pool.size(), ladder.swap_period_s));
      steps.push_back(harness->run_step(schedules.back(), pool, sample_queue));
      played.push_back(&steps.back());
    }
    const StepVerdict verdict = judge(played, ladder);
    char line[256];
    std::snprintf(line, sizeof(line),
                  "  %4.0f clips/s x%d: p%.1f %.2f ms (n=%zu), late growth "
                  "%.2f ms -> %s%s%s%s",
                  rate, repeats, verdict.tail.q * 100.0, verdict.tail.value,
                  verdict.tail.samples, verdict.growth_ms,
                  verdict.passed() ? "pass" : "FAIL",
                  verdict.within_limit ? "" : " (over the latency limit)",
                  verdict.keeping_up ? "" : " (falling behind)",
                  verdict.no_misses ? "" : " (lost requests)");
    rate_lines.push_back(line);
    return verdict;
  };

  // Timed phase. A traced run first plays one reference half untraced, so
  // the tracing overhead is measured in the same process.
  std::vector<double> untraced_latency;
  if (options.trace) {
    play(ladder.reference_cps, reference_s, 1, false);
    untraced_latency = steps.back().latency_ms();
  }
  const std::size_t first_timed = steps.size();
  hotspot::obs::MetricsRegistry& metrics = hotspot::obs::MetricsRegistry::global();
  const hotspot::obs::MetricsSnapshot before = metrics.snapshot();
  hotspot::obs::reset_spans();
  hotspot::obs::set_trace_enabled(options.trace);

  // The reference rate is played in two halves, before and after the
  // ladder, so its latencies span the whole run.
  play(ladder.reference_cps, reference_s, 1, options.trace);
  std::vector<double> reference_latency = steps.back().latency_ms();

  // A short saturating probe: the four blocking connections send back to
  // back, and the clips answered per second bound every sustainable rate.
  schedules.push_back(open_loop_schedule(options.seed * 1000003ull + next_schedule++,
                                         kProbeCps, kProbeClips / kProbeCps, pool.size(), 0.0));
  steps.push_back(harness->run_step(schedules.back(), pool, false));
  const std::size_t probe_step = steps.size() - 1;
  const double probe_cps = answered_cps(steps.back(), schedules.back());

  // Search the ladder, extended at both ends in geometric rungs, for the
  // sustainable rate, entering at the highest rung below kEntryShare of the
  // probe's rate: climb while rungs pass, descend while they fail, so only
  // the rungs next to the knee are played and the run's length does not
  // grow with the program's speed. A failing rung is played once more and
  // judged on the replay: a momentary stall of a shared host should not
  // decide the search, while a rate above capacity fails again. The
  // sustainable rate is interpolated between the highest passing rung and
  // the failing rung above it, where the load score (StepVerdict::load, 1
  // at the limits) crosses 1; a failing rung with misses adds nothing above
  // the pass. If no rung fails, or none passes, the rate is unresolved and
  // the run fails rather than report an end of the search as a measurement.
  std::vector<double> rungs = ladder.rates_cps;
  for (int k = 0; k < kExtraRungs; ++k) {
    rungs.insert(rungs.begin(), rungs.front() / kExtraRungFactor);
    rungs.push_back(rungs.back() * kExtraRungFactor);
  }
  auto judge_rung = [&](std::size_t k) {
    StepVerdict verdict = play(rungs[k], step_s, kStepRepeats, options.trace);
    if (!verdict.passed() && verdict.no_misses) {
      verdict = play(rungs[k], step_s, kStepRepeats, options.trace);
    }
    return verdict;
  };
  std::size_t entry = 0;
  while (entry + 1 < rungs.size() && rungs[entry + 1] <= kEntryShare * probe_cps) {
    ++entry;
  }
  // The bracket: the highest passing rung and the failing rung above it.
  std::optional<StepVerdict> pass;
  std::optional<StepVerdict> fail;
  double pass_rate = 0.0;
  double fail_rate = 0.0;
  const StepVerdict at_entry = judge_rung(entry);
  if (at_entry.passed()) {
    pass = at_entry;
    pass_rate = rungs[entry];
    for (std::size_t k = entry + 1; k < rungs.size() && !fail; ++k) {
      const StepVerdict verdict = judge_rung(k);
      if (verdict.passed()) {
        pass = verdict;
        pass_rate = rungs[k];
      } else {
        fail = verdict;
        fail_rate = rungs[k];
      }
    }
  } else {
    fail = at_entry;
    fail_rate = rungs[entry];
    for (std::size_t k = entry; k-- > 0 && !pass;) {
      const StepVerdict verdict = judge_rung(k);
      if (verdict.passed()) {
        pass = verdict;
        pass_rate = rungs[k];
      } else {
        fail = verdict;
        fail_rate = rungs[k];
      }
    }
  }
  double max_cps = pass_rate;
  if (pass && fail && fail->no_misses && fail->load > pass->load) {
    const double share = (1.0 - pass->load) / (fail->load - pass->load);
    max_cps = pass_rate + std::clamp(share, 0.0, 1.0) * (fail_rate - pass_rate);
  }
  const std::string lowest_rung = std::to_string(std::lround(rungs.front()));
  const std::string highest_rung = std::to_string(std::lround(rungs.back()));
  run.gate(fail.has_value(), "every rung up to " + highest_rung +
                                 " clips/s passed: the sustainable rate is unresolved");
  run.gate(pass.has_value(), "every rung down to " + lowest_rung +
                                 " clips/s failed: the sustainable rate is unresolved");
  play(ladder.reference_cps, reference_s, 1, options.trace);
  const std::vector<double> second_half = steps.back().latency_ms();
  reference_latency.insert(reference_latency.end(), second_half.begin(),
                           second_half.end());
  hotspot::obs::set_trace_enabled(false);
  const double rss_mb = peak_rss_mb();
  const hotspot::obs::MetricsSnapshot delta = metrics.snapshot().delta_since(before);
  const hotspot::obs::SpanReport spans = hotspot::obs::collect_span_report();

  // Correctness: every answer equals the direct prediction of one of the
  // two swapped models; both classes occur; nothing is lost.
  bool answers_match = true;
  bool saw_hotspot = false;
  bool saw_clean = false;
  std::vector<double> late_all;
  std::vector<double> service_all;
  std::vector<double> swap_all;
  std::int64_t requests_all = 0;
  std::size_t queue_depth_max = 0;
  auto check_step = [&](const StepStats& step,
                        const std::vector<Arrival>& schedule) {
    run.attempted += static_cast<std::int64_t>(step.records.size());
    run.failed += step.misses() + step.swap_failures();
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      const RequestRecord& record = step.records[i];
      if (record.swap || record.outcome != Outcome::kOk) {
        continue;
      }
      bool is_a = record.labels.size() == schedule[i].clips.size();
      bool is_b = is_a;
      for (std::size_t c = 0; c < record.labels.size() && (is_a || is_b); ++c) {
        const auto clip = static_cast<std::size_t>(schedule[i].clips[c]);
        is_a = is_a && record.labels[c] == expected_a[clip];
        is_b = is_b && record.labels[c] == expected_b[clip];
        saw_hotspot = saw_hotspot || record.labels[c] == 1;
        saw_clean = saw_clean || record.labels[c] == 0;
      }
      answers_match = answers_match && (is_a || is_b);
    }
  };
  for (std::size_t k = 0; k < steps.size(); ++k) {
    check_step(steps[k], schedules[k]);
  }
  run.gate(answers_match, "a served answer matches neither swapped model's direct prediction");
  run.gate(saw_hotspot && saw_clean, "served labels do not contain both classes");
  run.gate(run.failed == 0, "requests or swaps were shed, rejected or lost");
  for (std::size_t k = first_timed; k < steps.size(); ++k) {
    const StepStats& step = steps[k];
    const std::vector<double> service = step.service_ms();
    const std::vector<double> swap = step.swap_ms();
    service_all.insert(service_all.end(), service.begin(), service.end());
    swap_all.insert(swap_all.end(), swap.begin(), swap.end());
    requests_all += step.requests();
    queue_depth_max = std::max(queue_depth_max, step.queue_depth_max);
    if (k != probe_step) {  // saturated on purpose: its lateness says nothing
      const std::vector<double> late = step.late_ms();
      late_all.insert(late_all.end(), late.begin(), late.end());
    }
  }

  // Quality of model A on the pool against the lithography oracle (the
  // pool rasters are windows of the chip; oracle on their first windows).
  const hotspot::layout::Pattern chip = distinct_chip(options.seed, kPoolChipTiles);
  std::vector<std::int64_t> pool_windows;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    pool_windows.push_back(eager.first_window[static_cast<std::size_t>(order[i])]);
  }
  const Quality quality = tally_quality(oracle_labels(chip, pool_windows), expected_a);
  setups.round();

  // The tail is p95 (at least ten requests beyond it from 200 on), the
  // percentile the ladder's latency limit is set on. The highest percentile
  // with ten beyond it, about p99 here, counts how often a shared host
  // stalls and moves by a third between runs, so it is reported only beside
  // the per-layer figures.
  const Percentile reference_tail = tail_percentile(reference_latency, ladder.tail_q);
  const Percentile reference_top = tail_percentile(reference_latency);
  MetricSet& m = run.metrics;
  if (!options.trace) {
    m.set("setup_s", setups.median_setup_s(), "s");
    m.set("peak_rss_mb", rss_mb, "MB");
    m.set("clips_per_s", max_cps, "clips/s");
    m.set("latency_p50_ms", median(reference_latency), "ms");
    m.set("latency_tail_ms", reference_tail.value, "ms");
  } else {
    const double clips = static_cast<double>(counter(delta, "serve.clips"));
    m.set("trace.clips", clips, "count");
    m.set("serve.requests", static_cast<double>(requests_all), "count");
    m.set("serve.decode_us", histogram_mean(delta, "serve.request.decode_seconds") * 1e6, "us");
    m.set("serve.encode_us", histogram_mean(delta, "serve.request.encode_seconds") * 1e6, "us");
    m.set("serve.batch_ms", histogram_mean(delta, "serve.request.batch_seconds") * 1e3, "ms");
    m.set("serve.infer_ms", histogram_mean(delta, "serve.request.infer_seconds") * 1e3, "ms");
    const hotspot::obs::HistogramSample* queue =
        delta.find_histogram("serve.request.queue_seconds");
    const double queue_n = queue != nullptr ? static_cast<double>(queue->count) : 0.0;
    m.set("serve.queue_p50_ms", histogram_quantile(delta, "serve.request.queue_seconds", 0.5) * 1e3, "ms");
    m.set("serve.queue_p99_ms",
          histogram_quantile(delta, "serve.request.queue_seconds",
                             std::clamp((queue_n - 10.0) / std::max(queue_n, 1.0), 0.5, 0.99)) *
              1e3,
          "ms");
    const double batches = static_cast<double>(counter(delta, "serve.batches"));
    m.set("serve.batches", batches, "count");
    m.set("serve.batch_clips_mean", batches > 0 ? clips / batches : 0.0, "clips");
    m.set("serve.queue_depth_max", static_cast<double>(queue_depth_max), "clips");
    m.set("serve.generator_late_ms", median(late_all), "ms");
    m.set("serve.generator_late_tail_ms", tail_percentile(late_all).value, "ms");
    double client_ms = 0.0;
    for (const double v : service_all) {
      client_ms += v / static_cast<double>(service_all.size());
    }
    m.set("serve.client_overhead_ms",
          client_ms - histogram_mean(delta, "serve.request_seconds") * 1e3, "ms");
    m.set("serve.swap_ms", median(swap_all), "ms");
    m.set("serve.swaps", static_cast<double>(swap_all.size()), "count");
    m.set("registry.load_ms", setups.median_load_s() * 1e3, "ms");
    const hotspot::obs::SpanStat* forward = spans.find("brnn.forward");
    m.set("core.predict_ms_per_clip",
          forward != nullptr && clips > 0 ? forward->total_seconds * 1e3 / clips : 0.0,
          "ms");
    set_model_span_metrics(spans, clips, &m);
    const double untraced_p50 = median(untraced_latency);
    m.set("trace.untraced_latency_p50_ms", untraced_p50, "ms");
    m.set("trace.traced_latency_p50_ms", median(reference_latency), "ms");
    m.set("trace.overhead_ratio", median(reference_latency) / untraced_p50 - 1.0, "ratio");
  }
  m.set("serve.reference_requests", static_cast<double>(reference_latency.size()), "count");
  m.set("serve.reference_tail_q", reference_tail.q, "ratio");
  m.set("serve.reference_top_ms", reference_top.value, "ms");
  m.set("serve.reference_top_q", reference_top.q, "ratio");
  m.set("failed_ratio",
        run.attempted > 0 ? static_cast<double>(run.failed) / static_cast<double>(run.attempted) : 0.0,
        "ratio");
  set_quality_metrics(quality, &m);

  for (const std::string& line : rate_lines) {
    std::printf("%s\n", line.c_str());
  }
  run.manifest.push_back({"probe_cps", std::to_string(probe_cps)});
  run.manifest.push_back({"entry_rung_cps", std::to_string(std::lround(rungs[entry]))});
  run.manifest.push_back({"lowest_rung_cps", lowest_rung});
  run.manifest.push_back({"highest_rung_cps", highest_rung});
  run.manifest.push_back({"setup_samples", std::to_string(setups.samples())});
  return run;
}

}  // namespace perfbench
