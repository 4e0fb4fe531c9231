#include "inputs.h"

#include <string>
#include <unordered_map>

#include "dataset/patterns.h"
#include "layout/clip.h"
#include "litho/simulator.h"
#include "scan/window_stream.h"
#include "util/rng.h"

namespace perfbench {

using hotspot::layout::Pattern;

const hotspot::dataset::BenchmarkConfig& process_config() {
  static const hotspot::dataset::BenchmarkConfig config =
      hotspot::dataset::iccad2012_config(0.04, kGrid);
  return config;
}

std::int64_t window_nm() { return process_config().pattern.clip_nm; }
std::int64_t stride_nm() { return window_nm() / 2; }

namespace {

constexpr std::uint64_t kTiledLibrarySeed = 2019;

Pattern random_tile(hotspot::util::Rng& rng) {
  const auto family = static_cast<hotspot::dataset::Family>(
      rng.uniform_int(0, hotspot::dataset::kFamilyCount - 1));
  return hotspot::dataset::generate_pattern(family, process_config().pattern,
                                            rng);
}

void place(Pattern& chip, Pattern tile, int tx, int ty) {
  tile.translate(tx * window_nm(), ty * window_nm());
  for (const auto& rect : tile.rects()) {
    chip.add(rect);
  }
}

}  // namespace

Pattern distinct_chip(std::uint64_t seed, int tiles_per_side) {
  hotspot::util::Rng rng(seed);
  Pattern chip;
  for (int ty = 0; ty < tiles_per_side; ++ty) {
    for (int tx = 0; tx < tiles_per_side; ++tx) {
      place(chip, random_tile(rng), tx, ty);
    }
  }
  return chip;
}

Pattern tiled_chip(std::uint64_t seed, int library_size, int tiles_per_side) {
  // The library is the same for every seed (tile i of family i) and the
  // seed draws the arrangement. A seeded library would make the producer's
  // per-window cost (rects per window) and the distinct-raster count swing
  // by a quarter between seeds, which is input variance, not a property of
  // the program.
  hotspot::util::Rng library_rng(kTiledLibrarySeed);
  std::vector<Pattern> library;
  for (int i = 0; i < library_size; ++i) {
    library.push_back(hotspot::dataset::generate_pattern(
        static_cast<hotspot::dataset::Family>(
            i % hotspot::dataset::kFamilyCount),
        process_config().pattern, library_rng));
  }
  hotspot::util::Rng rng(seed);
  Pattern chip;
  for (int ty = 0; ty < tiles_per_side; ++ty) {
    for (int tx = 0; tx < tiles_per_side; ++tx) {
      place(chip,
            library[static_cast<std::size_t>(
                rng.uniform_int(0, library_size - 1))],
            tx, ty);
    }
  }
  return chip;
}

EagerWindows eager_windows(const Pattern& chip) {
  EagerWindows eager;
  std::unordered_map<std::string, std::int32_t> seen;
  hotspot::scan::ClipWindowStream stream(chip, window_nm(), stride_nm());
  hotspot::scan::WindowRef ref;
  while (stream.next(ref)) {
    const hotspot::tensor::Tensor image =
        stream.materialize(ref).binary(kGrid);
    std::string key(static_cast<std::size_t>(image.numel()), '\0');
    for (std::int64_t i = 0; i < image.numel(); ++i) {
      key[static_cast<std::size_t>(i)] = image[i] != 0.0f ? 1 : 0;
    }
    const auto [it, inserted] =
        seen.emplace(key, static_cast<std::int32_t>(eager.unique.size()));
    if (inserted) {
      eager.unique.emplace_back(key.begin(), key.end());
      eager.first_window.push_back(ref.index);
    }
    eager.window_to_unique.push_back(it->second);
  }
  return eager;
}

hotspot::tensor::Tensor stack(
    const std::vector<std::vector<std::uint8_t>>& rasters,
    const std::vector<std::int32_t>& indices) {
  const auto count = static_cast<std::int64_t>(indices.size());
  hotspot::tensor::Tensor images({count, 1, kGrid, kGrid});
  const std::int64_t pixels = kGrid * kGrid;
  for (std::int64_t n = 0; n < count; ++n) {
    const auto& raster = rasters[static_cast<std::size_t>(
        indices[static_cast<std::size_t>(n)])];
    for (std::int64_t p = 0; p < pixels; ++p) {
      images[n * pixels + p] = raster[static_cast<std::size_t>(p)];
    }
  }
  return images;
}

std::vector<int> oracle_labels(const Pattern& chip,
                               const std::vector<std::int64_t>& windows) {
  const hotspot::litho::Simulator simulator(process_config().litho);
  const hotspot::scan::ClipWindowStream stream(chip, window_nm(), stride_nm());
  std::vector<int> labels;
  labels.reserve(windows.size());
  for (const std::int64_t index : windows) {
    labels.push_back(
        simulator.is_hotspot(stream.materialize(stream.window_at(index))) ? 1
                                                                          : 0);
  }
  return labels;
}

std::string fixture_path(const std::string& root, char which) {
  return root + "/perfbench/fixture/compact32_" + std::string(1, which) +
         ".hspt";
}

}  // namespace perfbench
