// Tests for the second wave of extensions: schedule serialization, geo
// tiling, and NAS experiment persistence.
#include <gtest/gtest.h>

#include "core/error.hpp"
#include "detect/sppnet_config.hpp"
#include "geo/tiling.hpp"
#include "graph/builder.hpp"
#include "ios/scheduler.hpp"
#include "ios/serialize.hpp"
#include "nas/experiment.hpp"
#include "simgpu/spec.hpp"

namespace dcn {
namespace {

TEST(ScheduleSerialize, RoundTripsOptimizedSchedule) {
  const auto g =
      graph::build_inference_graph(detect::sppnet_candidate2(), 100);
  const auto spec = simgpu::a5500_spec();
  const ios::Schedule schedule = ios::optimize_schedule(g, spec);
  const std::string text = ios::serialize_schedule(schedule);
  const ios::Schedule back = ios::deserialize_schedule(text);
  ASSERT_EQ(back.num_stages(), schedule.num_stages());
  EXPECT_EQ(back.num_kernels(), schedule.num_kernels());
  EXPECT_EQ(ios::serialize_schedule(back), text);
  ios::validate_schedule(g, back);
}

TEST(ScheduleSerialize, FileRoundTripValidates) {
  const auto g =
      graph::build_inference_graph(detect::original_sppnet(), 64);
  const auto spec = simgpu::a5500_spec();
  const ios::Schedule schedule = ios::optimize_schedule(g, spec);
  const std::string path = testing::TempDir() + "/dcn_schedule.txt";
  ios::save_schedule(schedule, path);
  const ios::Schedule back = ios::load_schedule(g, path);
  EXPECT_EQ(back.num_stages(), schedule.num_stages());
}

TEST(ScheduleSerialize, RejectsGarbage) {
  EXPECT_THROW(ios::deserialize_schedule("nonsense"), Error);
  EXPECT_THROW(ios::deserialize_schedule("schedule v1\ngroup 1\n"), Error);
  EXPECT_THROW(ios::deserialize_schedule("schedule v1\nstage\nwat 1\n"),
               Error);
  EXPECT_THROW(ios::deserialize_schedule("schedule v1\nstage\ngroup\n"),
               Error);
}

TEST(ScheduleSerialize, LoadValidatesAgainstGraph) {
  const auto g =
      graph::build_inference_graph(detect::original_sppnet(), 64);
  const std::string path = testing::TempDir() + "/dcn_bad_schedule.txt";
  ios::save_schedule(ios::Schedule{{ios::Stage{{ios::Group{{1}}}}}}, path);
  EXPECT_THROW(ios::load_schedule(g, path), Error);  // misses most ops
}

TEST(GeoTransform, RoundTripsCoordinates) {
  geo::GeoTransform t;
  t.origin_x = 500000.0;
  t.origin_y = 4480000.0;
  t.pixel_size = 1.0;
  const auto [x, y] = t.pixel_to_world(10, 20);
  EXPECT_DOUBLE_EQ(x, 500020.5);
  EXPECT_DOUBLE_EQ(y, 4480000.0 - 10.5);
  const auto [row, col] = t.world_to_pixel(x, y);
  EXPECT_NEAR(row, 10.0, 1e-9);
  EXPECT_NEAR(col, 20.0, 1e-9);
}

TEST(Tiling, CoversSceneWithoutGaps) {
  geo::GeoTransform t;
  const auto tiles = geo::make_tiles(256, 300, 100, 0.5, t);
  ASSERT_FALSE(tiles.empty());
  // Every pixel covered by at least one tile.
  std::vector<bool> row_covered(256, false);
  std::vector<bool> col_covered(300, false);
  for (const geo::Tile& tile : tiles) {
    EXPECT_GE(tile.row, 0);
    EXPECT_LE(tile.row + tile.size, 256);
    EXPECT_LE(tile.col + tile.size, 300);
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

TEST(Tiling, RejectsOversizedTiles) {
  geo::GeoTransform t;
  EXPECT_THROW(geo::make_tiles(64, 64, 100, 0.0, t), Error);
}

TEST(Tiling, DetectionGeoreferencing) {
  geo::GeoTransform t;
  t.pixel_size = 1.0;
  geo::Tile tile;
  tile.row = 100;
  tile.col = 200;
  tile.size = 50;
  const float box[4] = {0.5f, 0.5f, 0.2f, 0.2f};  // tile center
  const auto [x, y] = geo::detection_to_world(tile, box, t);
  const auto [cx, cy] = t.pixel_to_world(125 - 0.5, 225 - 0.5);
  EXPECT_NEAR(x, cx, 1e-9);
  EXPECT_NEAR(y, cy, 1e-9);
}

nas::TrialDatabase sample_experiment() {
  nas::TrialDatabase db;
  for (int i = 0; i < 3; ++i) {
    nas::Trial t;
    t.index = i;
    t.point.conv1_kernel = 3 + 2 * i;
    t.point.spp_first_level = i + 1;
    t.point.fc_sizes = {128ll << i};
    t.metrics.average_precision = 0.9 + 0.01 * i;
    t.metrics.sequential_latency = 5e-4 + 1e-5 * i;
    t.metrics.optimized_latency = 3e-4 + 1e-5 * i;
    t.metrics.throughput = 3000.0 - 100.0 * i;
    t.metrics.parameter_count = 1000000 + i;
    db.add(t);
  }
  return db;
}

TEST(Experiment, RoundTripPreservesEverything) {
  const nas::TrialDatabase db = sample_experiment();
  const std::string text = nas::serialize_experiment(db);
  const nas::TrialDatabase back = nas::deserialize_experiment(text);
  ASSERT_EQ(back.size(), db.size());
  for (std::size_t i = 0; i < db.size(); ++i) {
    EXPECT_EQ(back.trial(i).index, db.trial(i).index);
    EXPECT_EQ(back.trial(i).point, db.trial(i).point);
    EXPECT_DOUBLE_EQ(back.trial(i).metrics.average_precision,
                     db.trial(i).metrics.average_precision);
    EXPECT_DOUBLE_EQ(back.trial(i).metrics.optimized_latency,
                     db.trial(i).metrics.optimized_latency);
    EXPECT_EQ(back.trial(i).metrics.parameter_count,
              db.trial(i).metrics.parameter_count);
  }
}

TEST(Experiment, FileRoundTrip) {
  const std::string path = testing::TempDir() + "/dcn_experiment.txt";
  nas::save_experiment(sample_experiment(), path);
  const nas::TrialDatabase back = nas::load_experiment(path);
  EXPECT_EQ(back.size(), 3u);
}

TEST(Experiment, RejectsMalformedInput) {
  EXPECT_THROW(nas::deserialize_experiment("garbage"), Error);
  EXPECT_THROW(
      nas::deserialize_experiment("nas-experiment v1\ntrial x\n"), Error);
  EXPECT_THROW(nas::deserialize_experiment(
                   "nas-experiment v1\ntrial 0 conv1 3 spp 2 fc 99\n"),
               Error);
}

}  // namespace
}  // namespace dcn
