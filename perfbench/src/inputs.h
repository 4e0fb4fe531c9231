// Seeded inputs of the perfbench workloads. The program under test only
// ever sees what these functions return: chips, clip rasters and the
// checkpoint fixture.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dataset/generator.h"
#include "layout/geometry.h"
#include "tensor/tensor.h"

namespace perfbench {

// The compact 32x32 model hotspot_serve serves.
inline constexpr std::int64_t kGrid = 32;

// Process and pattern parameters the fixture was trained on.
const hotspot::dataset::BenchmarkConfig& process_config();

// Window edge and scan stride (half a window) of both scan workloads.
std::int64_t window_nm();
std::int64_t stride_nm();

// A chip of tiles_per_side^2 independently drawn tiles, families drawn
// uniformly from all six: nearly every window raster is unique.
hotspot::layout::Pattern distinct_chip(std::uint64_t seed, int tiles_per_side);

// A chip of tiles_per_side^2 tiles, each a copy (placed by `seed`) of one
// of `library_size` fixed tiles (tile i of family i): the repeated-cell
// layout that dedup exploits.
hotspot::layout::Pattern tiled_chip(std::uint64_t seed, int library_size,
                                    int tiles_per_side);

// Every window of `chip` (window_nm, stride_nm) rasterized eagerly with
// Clip::binary, in scan order, folded by exact raster bytes: `unique` holds
// each distinct kGrid x kGrid {0,1} raster once (first-seen order) and
// `window_to_unique` maps every scan-order window to its raster.
struct EagerWindows {
  std::vector<std::vector<std::uint8_t>> unique;
  std::vector<std::int32_t> window_to_unique;
  std::vector<std::int64_t> first_window;  // per unique raster
};
EagerWindows eager_windows(const hotspot::layout::Pattern& chip);

// Stacks rasters (by index into `rasters`) into a [n, 1, kGrid, kGrid]
// batch.
hotspot::tensor::Tensor stack(
    const std::vector<std::vector<std::uint8_t>>& rasters,
    const std::vector<std::int32_t>& indices);

// Lithography-oracle labels for the windows of `chip` listed in `windows`
// (scan-order indices), via litho::Simulator.
std::vector<int> oracle_labels(const hotspot::layout::Pattern& chip,
                               const std::vector<std::int64_t>& windows);

// The committed checkpoint pair, relative to the checkout root.
std::string fixture_path(const std::string& root, char which);

}  // namespace perfbench
