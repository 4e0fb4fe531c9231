// Regenerates the benchmark's checkpoint pair: two compact-32 BRNN
// detectors trained by the repository trainer on the generated ICCAD-2012
// style benchmark, differing only in the training seed. The serve workload
// hot-swaps between them, so they must disagree on some clips; every
// workload needs trained weights, because random weights flag almost every
// window and make the quality numbers meaningless.
//
//   .bench_build/perfbench/perfbench_train_fixture perfbench/fixture
//
// writes <dir>/compact32_a.hspt and <dir>/compact32_b.hspt. Training is
// seeded and bit-identical at any HOTSPOT_NUM_THREADS, so the files are
// reproducible on one toolchain.
#include <cstdio>
#include <string>

#include "core/bnn_detector.h"
#include "dataset/generator.h"
#include "eval/metrics.h"
#include "inputs.h"
#include "nn/serialize.h"
#include "util/rng.h"

int main(int argc, char** argv) {
  using namespace hotspot;
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <output-dir>\n", argv[0]);
    return 2;
  }
  const std::string dir = argv[1];
  const dataset::BenchmarkConfig config =
      dataset::iccad2012_config(0.04, perfbench::kGrid);
  const dataset::Benchmark data = dataset::generate_benchmark(config);
  const struct {
    const char* name;
    std::uint64_t seed;
  } fixtures[] = {{"compact32_a.hspt", 7}, {"compact32_b.hspt", 8}};
  for (const auto& fixture : fixtures) {
    core::BnnHotspotDetector detector(
        core::BnnDetectorConfig::compact(perfbench::kGrid));
    util::Rng rng(fixture.seed);
    detector.fit(data.train, rng);
    const std::vector<int> predicted = detector.predict(data.test);
    eval::ConfusionMatrix matrix;
    for (std::size_t i = 0; i < data.test.size(); ++i) {
      matrix.record(data.test.sample(i).label, predicted[i]);
    }
    const std::string path = dir + "/" + fixture.name;
    if (!nn::save_checkpoint(path, detector.model()).ok()) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("%s (seed %llu): test %s\n", path.c_str(),
                static_cast<unsigned long long>(fixture.seed),
                matrix.to_string().c_str());
  }
  return 0;
}
