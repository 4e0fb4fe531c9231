// Self-tests of the benchmark's own logic: the percentile helper, the
// open-loop schedule, due-time latency under a stalled model, and the
// accounting of shed and rejected requests.
//
//   python3 perfbench/run.py --self-test
//
// Exits 0 when every check passes, 1 otherwise.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <numeric>
#include <string>

#include "bench_util.h"
#include "inputs.h"
#include "serve_workload.h"
#include "util/fault_injection.h"

namespace {

using namespace perfbench;

int g_failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  g_failures += ok ? 0 : 1;
}

void test_percentile() {
  for (std::size_t n = 20; n <= 2000; n += 7) {
    std::vector<double> samples(n);
    std::iota(samples.begin(), samples.end(), 1.0);
    std::reverse(samples.begin(), samples.end());
    const Percentile p = tail_percentile(samples);
    const auto beyond = std::count_if(samples.begin(), samples.end(),
                                      [&](double v) { return v > p.value; });
    // At least ten beyond, either p99 or one rank higher would leave fewer
    // than ten, and never below the median.
    if (beyond < 10 || (p.q < 0.99 && beyond > 10) || p.samples != n ||
        p.value < median(samples)) {
      check(false, "tail_percentile at n=" + std::to_string(n));
      return;
    }
  }
  std::vector<double> thousand(1000);
  std::iota(thousand.begin(), thousand.end(), 1.0);
  const Percentile p99 = tail_percentile(thousand);
  check(p99.q == 0.99 && p99.value == 990.0,
        "tail_percentile reports p99 = 990 of 1..1000");
  const Percentile p98 = tail_percentile({thousand.begin(), thousand.begin() + 500});
  check(p98.q == 0.98 && p98.value == 490.0,
        "tail_percentile falls back to p98 with 500 samples");
  const Percentile few = tail_percentile({1, 2, 3, 4, 5});
  check(few.q == 0.5 && few.value == 3.0,
        "tail_percentile reports the median up to 20 samples");
}

void test_schedule() {
  const auto a = open_loop_schedule(7, 900.0, 4.0, 1024, 0.25);
  const auto b = open_loop_schedule(7, 900.0, 4.0, 1024, 0.25);
  const auto c = open_loop_schedule(8, 900.0, 4.0, 1024, 0.25);
  auto same = [](const std::vector<Arrival>& x, const std::vector<Arrival>& y) {
    if (x.size() != y.size()) {
      return false;
    }
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (x[i].due_s != y[i].due_s || x[i].swap != y[i].swap ||
          x[i].clips != y[i].clips) {
        return false;
      }
    }
    return true;
  };
  check(same(a, b), "open_loop_schedule is a pure function of its seed");
  check(!same(a, c), "open_loop_schedule differs between seeds");
  std::size_t clips = 0;
  std::size_t swaps = 0;
  bool sorted = true;
  bool sizes_ok = true;
  for (std::size_t i = 0; i < a.size(); ++i) {
    sorted = sorted && (i == 0 || a[i - 1].due_s <= a[i].due_s);
    swaps += a[i].swap ? 1 : 0;
    clips += a[i].clips.size();
    sizes_ok = sizes_ok && (a[i].swap ? a[i].clips.empty()
                                      : a[i].clips.size() >= 1 && a[i].clips.size() <= 8);
  }
  check(sorted && sizes_ok && swaps == 15,
        "schedule is sorted, requests carry 1-8 clips, one swap per 0.25 s");
  check(clips == 3600 && a.back().due_s < 4.0,
        "schedule offers exactly the requested clips within the step");
}

// A served pool of windows and a harness on the fixture checkpoints.
struct ServeFixture {
  ScratchDir scratch;
  std::vector<std::vector<std::uint8_t>> pool;
  std::string model_a;
  std::string model_b;

  explicit ServeFixture(const std::string& root)
      : scratch(root + "/.bench_build/scratch"),
        pool(eager_windows(distinct_chip(3, 6)).unique),
        model_a(scratch.path() + "/a.hspt"),
        model_b(scratch.path() + "/b.hspt") {
    std::filesystem::copy_file(fixture_path(root, 'a'), model_a);
    std::filesystem::copy_file(fixture_path(root, 'b'), model_b);
  }
};

void test_due_time_latency(const std::string& root) {
  ServeFixture fixture(root);
  ServeHarness harness(hotspot::serve::ServerConfig{}, fixture.model_a,
                       fixture.model_b, serve_ladder().connections);
  harness.setup();
  const auto schedule =
      open_loop_schedule(11, 200.0, 2.0, fixture.pool.size(), 0.0);

  const StepStats calm =
      harness.run_step(schedule, fixture.pool, false);
  check(judge(calm, serve_ladder()).passed(),
        "an unstalled 200 clips/s step passes");

  hotspot::util::ScopedFaultInjection faults;
  hotspot::util::fault_set_stall_ms(400);
  hotspot::util::fault_arm(hotspot::util::FaultPoint::kScanPredictStall, 20);
  const StepStats stalled =
      harness.run_step(schedule, fixture.pool, false);
  check(hotspot::util::fault_trip_count(
            hotspot::util::FaultPoint::kScanPredictStall) == 1,
        "the predict stall fired once");
  // Requests queued behind the stall waited in the generator (all
  // connections were blocked) and that wait is part of their latency.
  std::size_t delayed = 0;
  bool late_counted = false;
  for (const RequestRecord& r : stalled.records) {
    const double late_ms = (r.send_s - r.due_s) * 1e3;
    const double latency_ms = (r.recv_s - r.due_s) * 1e3;
    delayed += latency_ms > 100.0 ? 1 : 0;
    late_counted = late_counted || (late_ms > 50.0 && latency_ms >= late_ms);
  }
  check(delayed >= 8, "requests queued behind the stall show it (" +
                          std::to_string(delayed) + " over 100 ms)");
  check(late_counted, "generator lateness is charged to the request");
  const StepVerdict verdict = judge(stalled, serve_ladder());
  check(!verdict.within_limit && !verdict.passed(),
        "the stalled step fails the latency limit (tail " +
            std::to_string(verdict.tail.value) + " ms)");
}

void test_misses(const std::string& root) {
  ServeFixture fixture(root);
  hotspot::serve::ServerConfig config;
  config.max_clips_per_request = 8;
  config.batcher.max_batch_clips = 8;
  config.batcher.max_queue_clips = 8;
  ServeHarness harness(config, fixture.model_a, fixture.model_b,
                       serve_ladder().connections);
  harness.setup();
  auto schedule = open_loop_schedule(12, 400.0, 1.0, fixture.pool.size(), 0.0);
  // One request over the per-request clip cap: a typed kTooLarge reject.
  Arrival oversized;
  oversized.due_s = 0.5;
  oversized.clips.assign(9, 0);
  schedule.insert(std::upper_bound(schedule.begin(), schedule.end(), oversized,
                                   [](const Arrival& x, const Arrival& y) {
                                     return x.due_s < y.due_s;
                                   }),
                  oversized);

  hotspot::util::ScopedFaultInjection faults;
  hotspot::util::fault_set_stall_ms(40);
  hotspot::util::fault_arm_sticky(hotspot::util::FaultPoint::kScanPredictStall);
  const StepStats step =
      harness.run_step(schedule, fixture.pool, false);
  std::int64_t shed = 0;
  std::int64_t rejected = 0;
  for (const RequestRecord& r : step.records) {
    shed += r.outcome == Outcome::kShed ? 1 : 0;
    rejected += r.outcome == Outcome::kRejected ? 1 : 0;
  }
  check(shed > 0 && rejected == 1,
        "a full queue sheds and an oversized request is rejected (" +
            std::to_string(shed) + " shed, " + std::to_string(rejected) +
            " rejected)");
  check(step.misses() == shed + rejected &&
            step.failed_ratio() ==
                static_cast<double>(shed + rejected) /
                    static_cast<double>(step.requests()),
        "shed and rejected requests count as misses in failed_ratio");
  const StepVerdict verdict = judge(step, serve_ladder());
  check(!verdict.no_misses && !verdict.passed() &&
            verdict.tail.value == std::numeric_limits<double>::infinity(),
        "a step with misses fails, and a miss counts as over the limit");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3 || std::string(argv[1]) != "--root") {
    std::fprintf(stderr, "usage: %s --root <checkout>\n", argv[0]);
    return 2;
  }
  const std::string root = argv[2];
  test_percentile();
  test_schedule();
  test_due_time_latency(root);
  test_misses(root);
  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "PASS" : "FAIL",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}
