// Tests for the early-exit cascade scan subsystem (src/scan) and the
// contracts it leans on elsewhere:
//   - geo::make_tiles edge-clamp behavior (pinned; the cascade's coverage
//     accounting depends on it),
//   - scan determinism: same seed + threshold => byte-identical scan CSVs
//     at any tensor-engine thread count, and byte-identical serving logs
//     at any replica count,
//   - the threshold calibrator's constrained choice (pinned exactly on a
//     hand-built sweep; determinism on the real pipeline),
//   - ios schedule-cache keys: same block structure, different tensor
//     shapes must not collide (screener vs full SPP-Net sharing the
//     process-global cache),
//   - per-pool serving counters and occupancy reporting.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "core/error.hpp"
#include "core/parallel.hpp"
#include "core/rng.hpp"
#include "detect/sppnet.hpp"
#include "detect/sppnet_config.hpp"
#include "geo/dataset.hpp"
#include "geo/tiling.hpp"
#include "graph/builder.hpp"
#include "graph/graph.hpp"
#include "graph/numeric.hpp"
#include "ios/executor.hpp"
#include "ios/schedule_cache.hpp"
#include "ios/scheduler.hpp"
#include "profiler/counters.hpp"
#include "scan/calibrate.hpp"
#include "scan/cascade.hpp"
#include "scan/pipeline.hpp"
#include "scan/screener.hpp"
#include "simgpu/kernels.hpp"
#include "simgpu/spec.hpp"

namespace dcn::scan {
namespace {

// --- geo::make_tiles edge-clamp regression --------------------------------

TEST(Tiling, EdgeTilesClampIntoBoundsWithoutDuplicates) {
  // Non-divisible scene with overlap > 0: the regression scenario the
  // clamp contract exists for.
  const std::int64_t rows = 101, cols = 77, size = 32;
  const auto tiles = geo::make_tiles(rows, cols, size, 0.3, {});
  ASSERT_FALSE(tiles.empty());

  std::set<std::pair<std::int64_t, std::int64_t>> seen;
  std::int64_t max_row = 0, max_col = 0;
  for (const geo::Tile& tile : tiles) {
    // Every tile reads real pixels only.
    EXPECT_GE(tile.row, 0);
    EXPECT_GE(tile.col, 0);
    EXPECT_LE(tile.row + tile.size, rows);
    EXPECT_LE(tile.col + tile.size, cols);
    EXPECT_EQ(tile.size, size);
    // The clamped edge tile appears exactly once.
    EXPECT_TRUE(seen.insert({tile.row, tile.col}).second)
        << "duplicate tile at (" << tile.row << ", " << tile.col << ")";
    max_row = std::max(max_row, tile.row);
    max_col = std::max(max_col, tile.col);
  }
  // The last row/column is flush with the scene border (clamped, not
  // padded past it, not dropped short of it).
  EXPECT_EQ(max_row, rows - size);
  EXPECT_EQ(max_col, cols - size);

  // Full coverage: every pixel falls inside some tile. Row/col coverage
  // are independent on an axis-aligned grid, so checking the row axis
  // projection suffices for rows (likewise cols).
  std::vector<bool> row_covered(static_cast<std::size_t>(rows), false);
  std::vector<bool> col_covered(static_cast<std::size_t>(cols), false);
  for (const geo::Tile& tile : tiles) {
    for (std::int64_t r = tile.row; r < tile.row + tile.size; ++r) {
      row_covered[static_cast<std::size_t>(r)] = true;
    }
    for (std::int64_t c = tile.col; c < tile.col + tile.size; ++c) {
      col_covered[static_cast<std::size_t>(c)] = true;
    }
  }
  EXPECT_TRUE(std::all_of(row_covered.begin(), row_covered.end(),
                          [](bool b) { return b; }));
  EXPECT_TRUE(std::all_of(col_covered.begin(), col_covered.end(),
                          [](bool b) { return b; }));
}

TEST(Tiling, ExactFitSceneHasNoDuplicateEdgeTiles) {
  // rows - size is a multiple of the stride: the "last" grid position
  // coincides with the clamped one; it must not be emitted twice.
  const auto tiles = geo::make_tiles(64, 64, 32, 0.5, {});
  std::set<std::pair<std::int64_t, std::int64_t>> seen;
  for (const geo::Tile& tile : tiles) {
    EXPECT_TRUE(seen.insert({tile.row, tile.col}).second);
  }
  EXPECT_EQ(tiles.size(), 9u);  // stride 16: positions {0, 16, 32} each axis
}

// --- scan fixtures ---------------------------------------------------------

constexpr std::int64_t kTile = 32;

// A small watershed and untrained-but-deterministic models: inference
// determinism does not depend on training, so the determinism tests skip
// it (weights are a pure function of the seed).
struct ScanFixture {
  geo::World world;
  detect::SppNet screener;
  detect::SppNet full;

  static ScanFixture make() {
    geo::DatasetConfig config;
    config.seed = 99;
    config.terrain.rows = config.terrain.cols = 192;
    Rng world_rng(7);

    nas::SearchPoint point;
    point.conv1_kernel = 3;
    point.spp_first_level = 2;
    point.fc_sizes = {32};
    Rng screener_rng(11);
    Rng full_rng(13);
    return ScanFixture{
        geo::synthesize_world(config, world_rng),
        detect::SppNet(materialize_screener(point, 8, 4), screener_rng),
        detect::SppNet(detect::sppnet_candidate3(), full_rng)};
  }

  CascadeOptions options() const {
    CascadeOptions opts;
    opts.tile_size = kTile;
    opts.overlap = 0.25;
    opts.threshold = 0.5;
    return opts;
  }

  ScanResult scan(const CascadeOptions& opts) {
    return scan_watershed(world.photo, {}, world.crossings, screener, full,
                          opts);
  }
};

TEST(Cascade, ScanCsvIsByteIdenticalAcrossThreadCounts) {
  ScanFixture fixture = ScanFixture::make();
  CascadeOptions opts = fixture.options();
  opts.jobs = 1;
  const ScanResult serial = fixture.scan(opts);
  opts.jobs = 4;
  const ScanResult threaded = fixture.scan(opts);

  EXPECT_EQ(scan_to_csv(serial), scan_to_csv(threaded));
  EXPECT_EQ(detections_to_csv(serial), detections_to_csv(threaded));
  EXPECT_EQ(serial.survivors, threaded.survivors);
}

TEST(Cascade, ScanRestoresTheThreadSettingAlsoWhenItThrows) {
  ScanFixture fixture = ScanFixture::make();
  const ScopedNumThreads outer(3);
  CascadeOptions opts = fixture.options();
  opts.jobs = 2;
  (void)fixture.scan(opts);
  EXPECT_EQ(compute_threads(), 3);

  // The int8 screener runs on a graph fixed at its calibration size, so a
  // scan at another tile size throws from inside stage 1.
  Rng rng(17);
  Tensor calibration(Shape{2, 4, kTile, kTile});
  for (std::int64_t i = 0; i < calibration.numel(); ++i) {
    calibration.data()[i] = static_cast<float>(rng.uniform(0.0, 1.0));
  }
  const auto int8_screener =
      graph::quantize_sppnet(fixture.screener, calibration);
  opts.tile_size = kTile + 8;
  EXPECT_THROW(scan_watershed(fixture.world.photo, {}, fixture.world.crossings,
                              *int8_screener, fixture.full, opts),
               ShapeError);
  EXPECT_EQ(compute_threads(), 3);
}

TEST(Cascade, ScanAccountingIsConsistent) {
  ScanFixture fixture = ScanFixture::make();
  CascadeOptions opts = fixture.options();
  opts.evaluate_all = true;
  const ScanResult result = fixture.scan(opts);

  ASSERT_GT(result.tiles, 0);
  EXPECT_EQ(result.scores.size(), static_cast<std::size_t>(result.tiles));
  std::int64_t survivors = 0, positives = 0;
  for (const TileScore& score : result.scores) {
    EXPECT_TRUE(score.full_evaluated);  // evaluate_all mode
    EXPECT_EQ(score.survived,
              static_cast<double>(score.screener_confidence) >=
                  opts.threshold);
    if (score.survived) ++survivors;
    if (score.has_object) ++positives;
  }
  EXPECT_EQ(result.survivors, survivors);
  EXPECT_EQ(result.positives, positives);
  EXPECT_DOUBLE_EQ(result.survivor_fraction,
                   static_cast<double>(survivors) /
                       static_cast<double>(result.tiles));
  // At threshold 0 the cascade rejects nothing, so its AP equals the
  // full model's over the same tiles.
  EXPECT_DOUBLE_EQ(cascade_average_precision(result.scores, 0.0),
                   full_average_precision(result.scores));
}

TEST(Cascade, DedupeKeepsHighestConfidenceWithinRadius) {
  std::vector<ScanDetection> detections;
  const auto add = [&](std::int64_t tile, double x, double y, float conf) {
    ScanDetection d;
    d.tile = tile;
    d.world_x = x;
    d.world_y = y;
    d.confidence = conf;
    detections.push_back(d);
  };
  add(0, 10.0, 10.0, 0.7f);   // cluster A
  add(1, 14.0, 10.0, 0.9f);   // cluster A winner
  add(2, 10.0, 14.0, 0.6f);   // cluster A
  add(3, 200.0, 200.0, 0.5f); // isolated
  const auto kept = dedupe_detections(detections, 24.0);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].tile, 1);  // confidence-descending order
  EXPECT_EQ(kept[1].tile, 3);

  // Equal confidences: tile id breaks the tie deterministically.
  detections.clear();
  add(5, 0.0, 0.0, 0.5f);
  add(4, 1.0, 0.0, 0.5f);
  const auto tie = dedupe_detections(detections, 24.0);
  ASSERT_EQ(tie.size(), 1u);
  EXPECT_EQ(tie[0].tile, 4);
}

// --- calibrator -------------------------------------------------------------

TileScore score_of(float screener_conf, float full_conf, bool has_object,
                   float iou) {
  TileScore score;
  score.screener_confidence = screener_conf;
  score.full_evaluated = true;
  score.full_confidence = full_conf;
  score.has_object = has_object;
  score.iou = iou;
  return score;
}

TEST(Calibrator, PicksCheapestFeasibleThreshold) {
  // Exactly representable confidences so the pinned choice is exact.
  // Positives score {0.75, 0.5}, negatives {0.25, 0.125}: any threshold
  // <= 0.5 keeps both positives (full AP preserved), and 0.5 is the
  // cheapest of those. 0.75 would be cheaper still but drops the second
  // positive, losing more than the 1.0-point budget.
  const std::vector<TileScore> scores = {
      score_of(0.75f, 0.9f, true, 0.8f),
      score_of(0.5f, 0.8f, true, 0.7f),
      score_of(0.25f, 0.1f, false, 0.0f),
      score_of(0.125f, 0.05f, false, 0.0f),
  };
  CalibratorOptions options;
  options.max_ap_drop_points = 1.0;
  options.stage1_cost_per_tile = 1.0;
  options.stage2_cost_per_tile = 10.0;
  const CalibrationResult result = calibrate_threshold(scores, options);

  EXPECT_DOUBLE_EQ(result.full_ap, 1.0);
  EXPECT_DOUBLE_EQ(result.chosen.threshold, 0.5);
  EXPECT_DOUBLE_EQ(result.chosen.cascade_ap, 1.0);
  EXPECT_DOUBLE_EQ(result.chosen.survivor_fraction, 0.5);
  EXPECT_DOUBLE_EQ(result.chosen.cost_per_tile, 1.0 + 0.5 * 10.0);
  EXPECT_TRUE(result.chosen.feasible);
  // The sweep covers threshold 0 plus every distinct confidence.
  EXPECT_EQ(result.sweep.size(), 5u);
  // Threshold 0 rejects nothing: always feasible, never cheapest here.
  EXPECT_TRUE(result.sweep.front().feasible);
  EXPECT_DOUBLE_EQ(result.sweep.front().threshold, 0.0);

  const std::string csv = sweep_to_csv(result);
  EXPECT_NE(csv.find("threshold,cascade_ap"), std::string::npos);
  EXPECT_NE(csv.find(",1,1\n"), std::string::npos);  // chosen row flagged
}

TEST(Calibrator, UnlimitedBudgetPicksCheapestOverall) {
  const std::vector<TileScore> scores = {
      score_of(0.75f, 0.9f, true, 0.8f),
      score_of(0.25f, 0.1f, false, 0.0f),
  };
  CalibratorOptions options;
  options.max_ap_drop_points = 100.0;  // constraint never binds
  const CalibrationResult result = calibrate_threshold(scores, options);
  // Cheapest operating point rejects everything below the top score.
  EXPECT_DOUBLE_EQ(result.chosen.threshold, 0.75);
  EXPECT_DOUBLE_EQ(result.chosen.survivor_fraction, 0.5);
}

TEST(Calibrator, RequiresFullModelScores) {
  std::vector<TileScore> scores = {score_of(0.5f, 0.5f, false, 0.0f)};
  scores[0].full_evaluated = false;
  CalibratorOptions options;
  EXPECT_THROW(calibrate_threshold(scores, options), ConfigError);
  EXPECT_THROW(calibrate_threshold({}, options), ConfigError);
}

TEST(Calibrator, RealPipelineChoiceIsDeterministic) {
  // Same seed => same scan => same chosen threshold, and the scan is
  // thread-count invariant, so the calibrated threshold is too.
  ScanFixture fixture = ScanFixture::make();
  CascadeOptions opts = fixture.options();
  opts.threshold = 0.0;
  opts.evaluate_all = true;
  opts.jobs = 1;
  const ScanResult one = fixture.scan(opts);
  opts.jobs = 4;
  const ScanResult four = fixture.scan(opts);

  CalibratorOptions options;
  const CalibrationResult a = calibrate_threshold(one.scores, options);
  const CalibrationResult b = calibrate_threshold(four.scores, options);
  EXPECT_EQ(a.chosen.threshold, b.chosen.threshold);
  EXPECT_EQ(sweep_to_csv(a), sweep_to_csv(b));
  EXPECT_GE(a.chosen.cascade_ap, a.full_ap - 0.01);
  // Golden pin: the calibration contract for this seed. Any change to the
  // scan order, screener scoring, or sweep construction shows up here.
  EXPECT_NEAR(a.chosen.threshold, 0.27839156985282898, 1e-12);
}

// --- serving pipeline -------------------------------------------------------

StagePlan plan_for(const graph::Graph& graph, const std::string& pool,
                   int max_batch) {
  StagePlan plan;
  plan.graph = &graph;
  ios::IosOptions options;
  options.batch = max_batch;
  plan.schedule = ios::optimize_schedule(graph, simgpu::a5500_spec(), options);
  plan.server.pool = pool;
  plan.server.batch.max_batch = max_batch;
  plan.server.device = simgpu::a5500_spec();
  return plan;
}

TEST(Pipeline, TileTraceRegimes) {
  const auto offline = tile_trace(4, 0.0);
  ASSERT_EQ(offline.size(), 4u);
  for (const serve::Request& request : offline) {
    EXPECT_DOUBLE_EQ(request.arrival, 0.0);
  }
  const auto paced = tile_trace(4, 100.0);
  EXPECT_DOUBLE_EQ(paced[1].arrival, 0.01);
  EXPECT_DOUBLE_EQ(paced[3].arrival, 0.03);
  EXPECT_LT(paced[0].id, paced[1].id);
}

TEST(Pipeline, CascadeServingLogsAreReplicaCountInvariant) {
  nas::SearchPoint point;
  point.conv1_kernel = 3;
  point.spp_first_level = 2;
  point.fc_sizes = {32};
  const graph::Graph screener_graph = graph::build_inference_graph(
      materialize_screener(point, 8, 4), kTile);
  const graph::Graph full_graph =
      graph::build_inference_graph(detect::sppnet_candidate3(), kTile);

  const StagePlan stage1 = plan_for(screener_graph, "screener", 8);
  const StagePlan stage2 = plan_for(full_graph, "full", 4);

  // Light-load regime (the serve contract's precondition for replica
  // invariance): inter-arrival many times the batch service time.
  simgpu::Device probe(simgpu::a5500_spec());
  const double service =
      ios::measure_latency(full_graph, stage2.schedule, probe, 4);
  const double rate = 1.0 / (20.0 * (service + 4.0e-3));

  std::vector<bool> survived(40, false);
  for (std::size_t i = 0; i < survived.size(); i += 3) survived[i] = true;

  const auto run = [&](int replicas) {
    StagePlan s1 = stage1;
    StagePlan s2 = stage2;
    s1.server.replicas = replicas;
    s2.server.replicas = replicas;
    return simulate_cascade_serving(s1, s2, survived, rate);
  };
  const CascadeServingReport one = run(1);
  const CascadeServingReport two = run(2);

  EXPECT_EQ(one.stage1_csv, two.stage1_csv);
  EXPECT_EQ(one.stage2_csv, two.stage2_csv);
  EXPECT_EQ(one.survivors, 14);
  EXPECT_EQ(one.stage1.completed, 40);
  EXPECT_EQ(one.stage2.completed, 14);
  EXPECT_GT(one.tiles_per_sec, 0.0);
  EXPECT_DOUBLE_EQ(one.makespan,
                   std::max(one.stage1.makespan, one.stage2.makespan));
}

TEST(Pipeline, OfflineDrainNeverRejectsAndReportsPoolCounters) {
  nas::SearchPoint point;
  point.conv1_kernel = 3;
  point.spp_first_level = 1;
  point.fc_sizes = {32};
  const graph::Graph graph = graph::build_inference_graph(
      materialize_screener(point, 8, 4), kTile);
  StagePlan plan = plan_for(graph, "screener", 8);
  plan.server.queue_capacity = 4;  // deliberately tiny: must be bumped

  profiler::reset_counters();
  std::string csv;
  const serve::ServingReport report =
      simulate_single_stage(plan, 100, 0.0, &csv);
  EXPECT_EQ(report.rejected, 0);
  EXPECT_EQ(report.completed, 100);
  EXPECT_EQ(report.pool, "screener");

  // Satellite: per-pool counters + occupancy surface in the profiler.
  const auto counters = profiler::counter_snapshot();
  EXPECT_EQ(counters.at("serve.screener.offered"), 100);
  EXPECT_EQ(counters.at("serve.screener.completed"), 100);
  EXPECT_GT(counters.at("serve.screener.occupancy_permille"), 0);
  EXPECT_LE(counters.at("serve.screener.occupancy_permille"), 1000);
  EXPECT_EQ(counters.count("serve.offered"), 0u);  // prefixed, not classic

  EXPECT_GT(report.occupancy(), 0.0);
  EXPECT_LE(report.occupancy(), 1.0);
  EXPECT_NE(report.to_string().find("[pool screener]"), std::string::npos);
  EXPECT_NE(report.to_string().find("occupancy"), std::string::npos);
  EXPECT_NE(csv.find("id,status"), std::string::npos);
}

// --- screener space ---------------------------------------------------------

TEST(Screener, SpaceEnumerationIsLexicographicAndComplete) {
  ScreenerSpace space;
  const auto points = space.enumerate();
  EXPECT_EQ(points.size(), 8u);
  EXPECT_EQ(points.front().conv1_kernel, 3);
  EXPECT_EQ(points.front().spp_first_level, 1);
  ASSERT_EQ(points.front().fc_sizes.size(), 1u);
  EXPECT_EQ(points.front().fc_sizes[0], 32);
  EXPECT_EQ(points.back().conv1_kernel, 5);
  EXPECT_EQ(points.back().spp_first_level, 2);
  EXPECT_EQ(points.back().fc_sizes[0], 64);
}

TEST(Screener, MaterializedConfigRunsAtTileSize) {
  nas::SearchPoint point;
  point.conv1_kernel = 5;
  point.spp_first_level = 2;
  point.fc_sizes = {64};
  const detect::SppNetConfig config = materialize_screener(point, 8, 4);
  EXPECT_EQ(config.spp_levels, (std::vector<std::int64_t>{2, 1}));
  EXPECT_EQ(config.trunk.size(), 4u);
  EXPECT_EQ(config.trunk[0].conv.stride, 2);

  Rng rng(3);
  detect::SppNet model(config, rng);
  model.set_training(false);
  Tensor batch(Shape{2, 4, kTile, kTile});
  const Tensor out = model.forward(batch);
  EXPECT_EQ(out.dim(0), 2);
  EXPECT_EQ(out.dim(1), 5);
}

}  // namespace
}  // namespace dcn::scan

// --- ios schedule-cache shape keys (satellite 6) ---------------------------

namespace dcn::ios {
namespace {

// Two single-op graphs whose kernels have identical cost profiles (flops,
// bytes, threads) but different tensor geometry: MaxPool k=2,s=2 over
// [4,8,8] vs [16,4,4]. Elements in = 256, out = 4*4*4 = 16*2*2 = 64 in
// both, and pooling does one compare per input element, so every
// cost-profile field the cache key used to rely on is equal.
graph::Graph pool_graph(std::int64_t channels, std::int64_t side) {
  graph::Graph g;
  const auto in = g.add_op(graph::OpKind::kInput, "in", {}, {},
                           graph::TensorDesc{{channels, side, side}});
  graph::OpAttrs pool;
  pool.kernel = 2;
  pool.stride = 2;
  const auto p = g.add_op(graph::OpKind::kMaxPool, "pool", pool, {in},
                          graph::TensorDesc{{channels, side / 2, side / 2}});
  g.add_op(graph::OpKind::kOutput, "out", {}, {p},
           graph::TensorDesc{{channels, side / 2, side / 2}});
  return g;
}

std::vector<graph::OpId> device_ops(const graph::Graph& g) {
  std::vector<graph::OpId> ops;
  for (const auto& op : g.nodes()) {
    if (op.kind != graph::OpKind::kInput &&
        op.kind != graph::OpKind::kOutput) {
      ops.push_back(op.id);
    }
  }
  return ops;
}

TEST(ScheduleCacheKeys, ShapePermutationsDoNotCollide) {
  const graph::Graph a = pool_graph(4, 8);
  const graph::Graph b = pool_graph(16, 4);
  const simgpu::DeviceSpec spec = simgpu::a5500_spec();
  const IosOptions options;

  // Precondition that makes this test meaningful: the cost profiles
  // really are identical, so only the shape component separates the keys.
  const auto desc_a = simgpu::make_kernel_desc(a, device_ops(a).front());
  const auto desc_b = simgpu::make_kernel_desc(b, device_ops(b).front());
  EXPECT_EQ(desc_a.flops_per_sample, desc_b.flops_per_sample);
  EXPECT_EQ(desc_a.activation_bytes_per_sample,
            desc_b.activation_bytes_per_sample);
  EXPECT_EQ(desc_a.weight_bytes, desc_b.weight_bytes);
  EXPECT_EQ(desc_a.threads_per_sample, desc_b.threads_per_sample);

  EXPECT_NE(block_cache_key(a, device_ops(a), spec, options),
            block_cache_key(b, device_ops(b), spec, options));

  const Schedule sched_a = optimize_schedule(a, spec, options);
  const Schedule sched_b = optimize_schedule(b, spec, options);
  EXPECT_NE(cost_cache_key(a, spec, sched_a, 1),
            cost_cache_key(b, spec, sched_b, 1));
}

TEST(ScheduleCacheKeys, ScreenerAndFullSppBlocksDiffer) {
  // The production collision risk: the cascade keeps the screener and the
  // full SPP-Net in one process-global cache. Same block structure, very
  // different shapes.
  nas::SearchPoint point;
  point.conv1_kernel = 3;
  point.spp_first_level = 2;
  point.fc_sizes = {32};
  const graph::Graph screener = graph::build_inference_graph(
      scan::materialize_screener(point, 8, 4), 48);
  const graph::Graph full =
      graph::build_inference_graph(detect::sppnet_candidate2(), 48);
  const simgpu::DeviceSpec spec = simgpu::a5500_spec();
  const IosOptions options;
  EXPECT_NE(block_cache_key(screener, device_ops(screener), spec, options),
            block_cache_key(full, device_ops(full), spec, options));
}

}  // namespace
}  // namespace dcn::ios
