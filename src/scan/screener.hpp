// NAS-selected tiny screener for cascade stage 1.
//
// The screener is a miniature SPP-Net chosen by the same machinery as the
// paper's model search (src/nas), over a deliberately small space: narrow
// two-conv trunk (8/16 filters vs the full model's 64/128/256), shallow
// pyramid, thin FC. Selection reuses the nas_search --int8 flow end to
// end — profile each coordinate's fused graph on the simulated device,
// train it briefly as an accuracy proxy, expand every trial into
// {fp32, int8} deployment candidates by post-training quantization, and
// pick the highest-throughput candidate whose AP clears the screener
// floor (select_constrained_precision).
//
// The floor is intentionally far below the full model's AP: stage 1 only
// has to *rank* tiles well enough that the calibrated threshold keeps
// true crossings alive (calibrate.hpp enforces the real accuracy
// constraint on the cascade); its job is cheap rejection, not detection.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "detect/trainer.hpp"
#include "geo/dataset.hpp"
#include "nas/runner.hpp"
#include "nas/selection.hpp"
#include "nas/trial.hpp"

namespace dcn::scan {

/// The screener's search space, expressed in nas::SearchPoint coordinates
/// (conv1 kernel, first SPP level, FC width) over a narrow fixed trunk.
struct ScreenerSpace {
  std::vector<std::int64_t> conv_kernels{3, 5};
  std::vector<std::int64_t> spp_levels{1, 2};
  std::vector<std::int64_t> fc_widths{32, 64};
  /// First conv's filter count; the second conv doubles it.
  std::int64_t trunk_width = 8;

  /// Every coordinate, in lexicographic order (grid campaign).
  std::vector<nas::SearchPoint> enumerate() const;
};

/// Materialize a screener coordinate: C{w,k,s2}-P{2,2}-C{2w,3}-P{2,2}
/// trunk (stride-2 stem),
/// SPP {first_level, 1} (just {1} when first_level == 1), one FC stack
/// from the point's fc_sizes.
detect::SppNetConfig materialize_screener(const nas::SearchPoint& point,
                                          std::int64_t trunk_width = 8,
                                          std::int64_t in_channels = 4);

struct ScreenerSearchConfig {
  ScreenerSpace space;
  /// Efficiency-profiling setup (device, input size = tile size, latency
  /// batch = the screener's serving batch).
  nas::RunnerConfig runner;
  /// Accuracy floor a(n) for select_constrained_precision. Deliberately
  /// permissive: the screener only needs to *rank* tiles (the calibrator
  /// enforces the cascade's real constraint), so the floor merely rules
  /// out degenerate candidates.
  double ap_floor = 0.15;
  /// Expand trials into int8 candidates (the cascade's default).
  bool int8 = true;
  /// Short-budget proxy training (multi-fidelity spirit: a few epochs
  /// rank tiny models reliably).
  detect::TrainConfig train;
  std::uint64_t seed = 2024;
  std::int64_t calibration_images = 8;
};

struct ScreenerSelection {
  nas::TrialDatabase database;
  std::vector<nas::PrecisionCandidate> candidates;
  nas::PrecisionCandidate chosen;
  /// The chosen coordinate, materialized.
  detect::SppNetConfig config;
  /// The trained winner at the chosen precision (SppNet for fp32,
  /// graph::quantize_sppnet's model for int8), ready for scan_watershed.
  std::unique_ptr<Module> model;
};

/// Run the mini campaign over `config.space` and return the constrained
/// selection. Deterministic in (dataset, split, config): per-trial weight
/// seeds derive from config.seed + trial index, and the campaign is a
/// fixed-order grid. When no candidate clears the floor, falls back to
/// the highest-AP candidate so callers always get a usable screener.
ScreenerSelection select_screener(const geo::DrainageDataset& dataset,
                                  const geo::Split& split,
                                  const ScreenerSearchConfig& config);

}  // namespace dcn::scan
