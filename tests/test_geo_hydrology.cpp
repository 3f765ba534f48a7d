// Tests for DEM hydrology: depression filling, D8 routing, accumulation,
// and the digital-dam / culvert-breaching mechanism of the paper's §2.1.
#include "geo/hydrology.hpp"

#include <gtest/gtest.h>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "geo/dataset.hpp"
#include "geo/roads.hpp"
#include "geo/streamstats.hpp"
#include "geo/terrain.hpp"

namespace dcn::geo {
namespace {

Raster tilted_plane(std::int64_t rows, std::int64_t cols) {
  Raster dem(rows, cols);
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      dem.at(r, c) = static_cast<float>(cols - c);  // drains east
    }
  }
  return dem;
}

TEST(FillDepressions, NeverLowersAndRemovesPits) {
  Rng rng(3);
  TerrainConfig config;
  config.rows = 64;
  config.cols = 64;
  Raster dem = synthesize_terrain(config, rng);
  // Punch an artificial pit.
  dem.at(30, 30) = dem.min_value() - 10.0f;
  const Raster filled = fill_depressions(dem);
  for (std::int64_t i = 0; i < dem.size(); ++i) {
    EXPECT_GE(filled.data()[i], dem.data()[i]);
  }
  const auto dirs = flow_directions(filled);
  for (std::int64_t r = 1; r + 1 < filled.rows(); ++r) {
    for (std::int64_t c = 1; c + 1 < filled.cols(); ++c) {
      EXPECT_NE(dirs[static_cast<std::size_t>(r * filled.cols() + c)], kPit)
          << "interior pit at (" << r << ", " << c << ")";
    }
  }
}

TEST(FillDepressions, NoopOnMonotoneSurface) {
  const Raster dem = tilted_plane(16, 16);
  const Raster filled = fill_depressions(dem, 0.0f);
  for (std::int64_t i = 0; i < dem.size(); ++i) {
    EXPECT_EQ(filled.data()[i], dem.data()[i]);
  }
}

TEST(FlowDirections, TiltedPlaneDrainsEast) {
  const Raster dem = tilted_plane(8, 8);
  const auto dirs = flow_directions(dem);
  // Interior cells flow east (direction 0).
  for (std::int64_t r = 1; r < 7; ++r) {
    for (std::int64_t c = 1; c < 7; ++c) {
      EXPECT_EQ(dirs[static_cast<std::size_t>(r * 8 + c)], 0);
    }
  }
  // East-edge cells exit the grid.
  EXPECT_EQ(dirs[static_cast<std::size_t>(3 * 8 + 7)], kOutlet);
}

TEST(FlowAccumulation, ConservesMass) {
  Rng rng(11);
  TerrainConfig config;
  config.rows = 48;
  config.cols = 48;
  const Raster dem = fill_depressions(synthesize_terrain(config, rng));
  const auto dirs = flow_directions(dem);
  const Raster acc = flow_accumulation(dem, dirs);
  // Every cell contributes exactly one unit that exits somewhere: the sum
  // of accumulation over terminal cells (outlets/pits) equals the cell
  // count.
  double exit_mass = 0.0;
  for (std::int64_t i = 0; i < acc.size(); ++i) {
    const int d = dirs[static_cast<std::size_t>(i)];
    if (d == kOutlet || d == kPit) exit_mass += acc.data()[i];
  }
  EXPECT_DOUBLE_EQ(exit_mass, static_cast<double>(acc.size()));
}

TEST(FlowAccumulation, MinimumIsOneAndMonotoneDownstream) {
  const Raster dem = tilted_plane(6, 10);
  const auto dirs = flow_directions(dem);
  const Raster acc = flow_accumulation(dem, dirs);
  for (std::int64_t i = 0; i < acc.size(); ++i) {
    EXPECT_GE(acc.data()[i], 1.0f);
  }
  // Along a row of the tilted plane accumulation grows eastward.
  for (std::int64_t c = 1; c < 9; ++c) {
    EXPECT_GT(acc.at(3, c + 1), acc.at(3, c));
  }
}

TEST(FlowAccumulation, RejectsCyclicDirections) {
  const Raster dem = tilted_plane(4, 4);
  std::vector<int> dirs(16, kPit);
  dirs[5] = 0;  // (1,1) -> (1,2)
  dirs[6] = 4;  // (1,2) -> (1,1): 2-cycle
  EXPECT_THROW(flow_accumulation(dem, dirs), dcn::Error);
}

TEST(ExtractStreams, Thresholds) {
  Raster acc(2, 2);
  acc.at(0, 0) = 10.0f;
  acc.at(1, 1) = 200.0f;
  const Raster streams = extract_streams(acc, 100.0f);
  EXPECT_EQ(streams.at(0, 0), 0.0f);
  EXPECT_EQ(streams.at(1, 1), 1.0f);
}

TEST(DigitalDam, EmbankmentBlocksAndBreachRestoresFlow) {
  // A north-south road embankment across an east-draining plane creates a
  // digital dam; breaching it at one point restores the eastward flow path
  // through that point — the paper's Figure 1 mechanism.
  Raster dem = tilted_plane(32, 32);
  Raster road_mask(32, 32);
  for (std::int64_t r = 0; r < 32; ++r) road_mask.at(r, 16) = 1.0f;
  apply_embankment(dem, road_mask, 50.0f);

  {
    const Raster filled = fill_depressions(dem);
    const auto dirs = flow_directions(filled);
    const Raster acc = flow_accumulation(filled, dirs);
    // Water pooled west of the dam cannot cross it: accumulation east of
    // the dam stays at local-only values in every row.
    for (std::int64_t r = 0; r < 32; ++r) {
      EXPECT_LT(acc.at(r, 20), 8.0f) << "row " << r;
    }
  }

  breach_at(dem, {{16, 16}}, 60.0f, 1);
  {
    const Raster filled = fill_depressions(dem);
    const auto dirs = flow_directions(filled);
    const Raster acc = flow_accumulation(filled, dirs);
    // The breach funnels the dammed drainage through the culvert: some
    // cell just east of the dam now carries a large share of the basin.
    float crossing_flow = 0.0f;
    for (std::int64_t r = 0; r < 32; ++r) {
      crossing_flow = std::max(crossing_flow, acc.at(r, 18));
    }
    EXPECT_GT(crossing_flow, 100.0f);
  }
}

TEST(Embankment, RequiresMatchingSizes) {
  Raster dem(8, 8);
  Raster mask(4, 4);
  EXPECT_THROW(apply_embankment(dem, mask, 1.0f), dcn::Error);
}

TEST(Breach, LowersNeighborhood) {
  Raster dem(8, 8, 10.0f);
  breach_at(dem, {{4, 4}}, 2.0f, 1);
  EXPECT_EQ(dem.at(4, 4), 8.0f);
  EXPECT_EQ(dem.at(3, 3), 8.0f);
  EXPECT_EQ(dem.at(4, 6), 10.0f);
}

TEST(StreamStats, StrahlerOrderOnConfluence) {
  // Two order-1 headwaters meet: the downstream stem is order 2.
  //   Stream layout on a 5x5 grid draining east along rows 1 and 3,
  //   merging at (2,3) then continuing east.
  geo::Raster dem(5, 5);
  for (std::int64_t r = 0; r < 5; ++r) {
    for (std::int64_t c = 0; c < 5; ++c) {
      dem.at(r, c) = static_cast<float>(10 - c);  // east-draining
    }
  }
  // Bend both side rows into the center row at column 3.
  dem.at(2, 3) -= 0.5f;
  dem.at(2, 4) -= 1.0f;
  geo::Raster streams(5, 5);
  streams.at(1, 1) = streams.at(1, 2) = 1.0f;
  streams.at(3, 1) = streams.at(3, 2) = 1.0f;
  streams.at(2, 3) = streams.at(2, 4) = 1.0f;
  const auto dirs = geo::flow_directions(dem);
  // Force the confluence: route (1,2) and (3,2) diagonally into (2,3).
  auto set_dir = [&](std::int64_t r, std::int64_t c, int d) {
    const_cast<std::vector<int>&>(dirs)[static_cast<std::size_t>(r * 5 + c)] =
        d;
  };
  set_dir(1, 2, 1);  // SE
  set_dir(3, 2, 7);  // NE
  const geo::Raster order = geo::strahler_order(streams, dirs);
  EXPECT_EQ(order.at(1, 1), 1.0f);
  EXPECT_EQ(order.at(3, 2), 1.0f);
  EXPECT_EQ(order.at(2, 3), 2.0f);  // confluence of two order-1 streams
  EXPECT_EQ(order.at(2, 4), 2.0f);  // order persists downstream
  EXPECT_EQ(order.at(0, 0), 0.0f);  // non-stream cells are 0
}

TEST(StreamStats, SyntheticWatershedIsDendritic) {
  geo::DatasetConfig config;
  config.seed = 5;
  config.terrain.rows = config.terrain.cols = 384;
  Rng rng(config.seed);
  const geo::World world = geo::synthesize_world(config, rng);
  const geo::Raster filled = geo::fill_depressions(world.dem);
  const auto dirs = geo::flow_directions(filled);
  const auto stats = geo::watershed_stats(world.dem, world.streams, dirs,
                                          world.crossings);
  // A dendritic network: multiple orders, multiple sources, plausible
  // drainage density for the loess-plain configuration.
  EXPECT_GE(stats.max_strahler_order, 2);
  EXPECT_GT(stats.sources, 1);
  EXPECT_GT(stats.drainage_density, 0.001);
  EXPECT_LT(stats.drainage_density, 0.2);
  EXPECT_GT(stats.relief, 1.0);
  EXPECT_GT(stats.crossing_density, 0.0);
  // Order-1 cells outnumber the top order's cells (Horton-like scaling).
  EXPECT_GT(stats.cells_per_order[1],
            stats.cells_per_order[static_cast<std::size_t>(
                stats.max_strahler_order)]);
}

}  // namespace
}  // namespace dcn::geo
