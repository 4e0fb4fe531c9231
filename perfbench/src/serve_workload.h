// The serve_open load harness, exposed so the self-tests can drive single
// steps (a stalled step, a shedding step) through the same code the
// workload runs.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "serve/client.h"
#include "serve/model_registry.h"
#include "serve/server.h"

namespace perfbench {

// The fixed load plan of serve_open. Rates are offered clips per second.
struct ServeLadder {
  double reference_cps = 0.0;       // where the latency metrics are taken
  std::vector<double> rates_cps;    // ascending ladder
  double tail_q = 0.0;              // the tail percentile (see Percentile)
  double latency_limit_ms = 0.0;    // on the tail percentile of a step
  double late_growth_limit_ms = 0.0;  // generator lateness growth per step
  double swap_period_s = 0.0;       // hot-swap cadence
  int connections = 0;              // open-loop connections
};
const ServeLadder& serve_ladder();
// The ladder as run-manifest fields.
std::vector<std::pair<std::string, std::string>> ladder_manifest();

enum class Outcome { kOk, kShed, kRejected, kTransport };

// One scheduled event as it happened; times are seconds from step start.
struct RequestRecord {
  double due_s = 0.0;
  double send_s = 0.0;
  double recv_s = 0.0;
  bool swap = false;
  Outcome outcome = Outcome::kOk;
  std::vector<int> labels;
};

struct StepStats {
  std::vector<RequestRecord> records;  // schedule order
  std::size_t queue_depth_max = 0;     // sampled admission-queue depth

  std::int64_t requests() const;   // predicts sent
  std::int64_t misses() const;     // predicts shed, rejected or lost
  std::int64_t swap_failures() const;
  double failed_ratio() const;     // misses / requests
  // Predict latency from due time; a missed request counts as infinitely
  // late, so it always misses the limit.
  std::vector<double> latency_ms() const;
  std::vector<double> late_ms() const;     // send - due, predicts
  std::vector<double> service_ms() const;  // recv - send, answered predicts
  std::vector<double> swap_ms() const;     // recv - send, answered swaps
  // Median generator lateness of the last quarter of the step minus that
  // of the first quarter.
  double late_growth_ms() const;
};

// The verdict on one ladder rate: the tail over every request of its
// repeats, the median of their lateness growth, and every miss.
struct StepVerdict {
  Percentile tail;
  double growth_ms = 0.0;
  bool within_limit = false;
  bool no_misses = false;
  bool keeping_up = false;
  // max(tail / latency limit, lateness growth / growth limit): at most 1 on
  // a step that keeps within both limits.
  double load = 0.0;
  bool passed() const { return within_limit && no_misses && keeping_up; }
};
StepVerdict judge(const std::vector<const StepStats*>& repeats,
                  const ServeLadder& ladder);
StepVerdict judge(const StepStats& step, const ServeLadder& ladder);

// An in-process Server on an ephemeral loopback port with its registry and
// open-loop client connections.
class ServeHarness {
 public:
  ServeHarness(const hotspot::serve::ServerConfig& config,
               std::string checkpoint_a, std::string checkpoint_b,
               int connections);
  ~ServeHarness();
  ServeHarness(const ServeHarness&) = delete;
  ServeHarness& operator=(const ServeHarness&) = delete;

  // Checkpoint load, warm-up predict, server start, connect, ping and a
  // first served verdict. Returns the seconds it took; throws on failure.
  double setup();

  // Plays `schedule` open-loop: each connection takes the next event,
  // waits for its due time, sends it and blocks for the answer. Swap events
  // alternate between checkpoint B and A.
  StepStats run_step(const std::vector<Arrival>& schedule,
                     const std::vector<std::vector<std::uint8_t>>& pool,
                     bool sample_queue);

  // Seconds setup() spent in ModelRegistry::load.
  double load_seconds() const { return load_seconds_; }

 private:
  hotspot::serve::ServerConfig config_;
  std::string checkpoint_a_;
  std::string checkpoint_b_;
  int connections_;
  double load_seconds_ = 0.0;
  std::atomic<std::uint64_t> swaps_sent_{0};
  std::unique_ptr<hotspot::serve::ModelRegistry> registry_;
  std::unique_ptr<hotspot::serve::Server> server_;
  std::vector<std::unique_ptr<hotspot::serve::ServeClient>> clients_;
};

}  // namespace perfbench
