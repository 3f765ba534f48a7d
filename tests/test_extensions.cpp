// Tests for the extension features: chrome-trace export, stream-network
// analytics, evolutionary NAS, latency-budget selection, and the HIOS-lite
// multi-GPU latency models.
#include <gtest/gtest.h>

#include <set>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "detect/sppnet_config.hpp"
#include "geo/dataset.hpp"
#include "geo/hydrology.hpp"
#include "geo/streamstats.hpp"
#include "graph/builder.hpp"
#include "ios/executor.hpp"
#include "ios/hios_lite.hpp"
#include "ios/scheduler.hpp"
#include "nas/selection.hpp"
#include "nas/strategy.hpp"
#include "profiler/trace.hpp"
#include "simgpu/device.hpp"

namespace dcn {
namespace {

TEST(ChromeTrace, ContainsAllSpanRows) {
  profiler::Recorder recorder;
  recorder.record_api(profiler::ApiKind::kLaunchKernel, "conv0", 0.0, 3e-6);
  recorder.record_kernel(profiler::KernelCategory::kConv, "conv0", 1e-6,
                         4e-5, 8);
  recorder.record_memop(profiler::MemopKind::kH2D, "input", 0.0, 2e-5, 1024);
  const std::string trace = profiler::to_chrome_trace(recorder);
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("cudaLaunchKernel"), std::string::npos);
  EXPECT_NE(trace.find("\"cat\": \"kernel\""), std::string::npos);
  EXPECT_NE(trace.find("\"cat\": \"memop\""), std::string::npos);
  EXPECT_NE(trace.find("\"batch\": 8"), std::string::npos);
  EXPECT_NE(trace.find("\"bytes\": 1024"), std::string::npos);
}

TEST(ChromeTrace, EscapesAndWrites) {
  profiler::Recorder recorder;
  recorder.record_api(profiler::ApiKind::kMemAlloc, "we\"ird\nname", 0.0,
                      1e-6);
  const std::string trace = profiler::to_chrome_trace(recorder);
  EXPECT_NE(trace.find("we\\\"ird\\nname"), std::string::npos);
  const std::string path = testing::TempDir() + "/dcn_trace.json";
  profiler::write_chrome_trace(recorder, path);
  SUCCEED();
}

TEST(ChromeTrace, FullSimulatedSessionExports) {
  const auto spec = simgpu::a5500_spec();
  const graph::Graph g =
      graph::build_inference_graph(detect::original_sppnet(), 64);
  profiler::Recorder recorder;
  simgpu::Device device(spec, &recorder);
  ios::InferenceSession session(g, ios::optimize_schedule(g, spec), device);
  session.initialize();
  (void)session.run(4);
  const std::string trace = profiler::to_chrome_trace(recorder);
  EXPECT_NE(trace.find("cuLibraryLoadData"), std::string::npos);
  EXPECT_NE(trace.find("spp_pool"), std::string::npos);
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

nas::SearchSpace small_space() {
  nas::SearchSpace space;
  space.conv1_kernels = {3, 5, 7};
  space.spp_first_levels = {1, 3, 5};
  space.fc_widths = {128, 512, 2048};
  return space;
}

TEST(Evolution, WarmupThenMutation) {
  nas::EvolutionStrategy::Options options;
  options.population = 4;
  options.tournament = 2;
  nas::EvolutionStrategy strategy(small_space(), 3, options);
  // Warm-up proposals, reported with a fitness that favors spp level 5.
  std::vector<nas::SearchPoint> proposed;
  for (int i = 0; i < 12; ++i) {
    const auto point = strategy.next();
    ASSERT_TRUE(point.has_value());
    proposed.push_back(*point);
    strategy.report(*point,
                    0.5 + 0.1 * static_cast<double>(point->spp_first_level));
  }
  // Children after warm-up must differ from their parents on at most one
  // axis (mutation changes exactly one axis).
  for (std::size_t i = 4; i < proposed.size(); ++i) {
    EXPECT_TRUE(small_space().contains(proposed[i]));
  }
  // Selection pressure: later proposals lean toward high spp levels.
  double early = 0.0;
  double late = 0.0;
  for (int i = 0; i < 4; ++i) early += proposed[static_cast<std::size_t>(i)].spp_first_level;
  for (int i = 8; i < 12; ++i) late += proposed[static_cast<std::size_t>(i)].spp_first_level;
  EXPECT_GE(late, early * 0.8);  // no collapse toward low-fitness region
}

TEST(Evolution, DeterministicGivenSeed) {
  nas::EvolutionStrategy a(small_space(), 7);
  nas::EvolutionStrategy b(small_space(), 7);
  for (int i = 0; i < 10; ++i) {
    const auto pa = a.next();
    const auto pb = b.next();
    ASSERT_TRUE(pa && pb);
    EXPECT_EQ(pa->to_string(), pb->to_string());
    a.report(*pa, 0.5);
    b.report(*pb, 0.5);
  }
}

TEST(Selection, LatencyBudgetPicksMostAccurateUnderBudget) {
  nas::TrialDatabase db;
  const double ap[3] = {0.98, 0.95, 0.90};
  const double lat[3] = {5e-4, 3e-4, 1e-4};
  for (int i = 0; i < 3; ++i) {
    nas::Trial t;
    t.index = i;
    t.point.fc_sizes = {128};
    t.metrics.average_precision = ap[i];
    t.metrics.optimized_latency = lat[i];
    db.add(t);
  }
  EXPECT_EQ(nas::select_latency_budget(db, 4e-4)->index, 1);
  EXPECT_EQ(nas::select_latency_budget(db, 1e-3)->index, 0);
  EXPECT_FALSE(nas::select_latency_budget(db, 5e-5).has_value());
}

class HiosLiteTest : public testing::Test {
 protected:
  void SetUp() override {
    graph_ = std::make_unique<graph::Graph>(
        graph::build_inference_graph(detect::sppnet_candidate2(), 100));
    spec_ = simgpu::a5500_spec();
    schedule_ = ios::optimize_schedule(*graph_, spec_);
  }
  std::unique_ptr<graph::Graph> graph_;
  simgpu::DeviceSpec spec_;
  ios::Schedule schedule_;
};

TEST_F(HiosLiteTest, SingleGpuDataParallelMatchesBaseline) {
  ios::MultiGpuConfig config;
  config.num_gpus = 1;
  simgpu::Device device(spec_);
  const double single =
      ios::measure_latency(*graph_, schedule_, device, 32);
  const double dp =
      ios::data_parallel_latency(*graph_, schedule_, spec_, 32, config);
  EXPECT_NEAR(dp, single, 1e-9);
}

TEST_F(HiosLiteTest, DataParallelHelpsLargeBatches) {
  ios::MultiGpuConfig config;
  config.num_gpus = 4;
  const double one_gpu = ios::data_parallel_latency(
      *graph_, schedule_, spec_, 64, ios::MultiGpuConfig{.num_gpus = 1});
  const double four_gpus =
      ios::data_parallel_latency(*graph_, schedule_, spec_, 64, config);
  EXPECT_LT(four_gpus, one_gpu);
}

TEST_F(HiosLiteTest, DataParallelHurtsBatchOne) {
  // Sharding a single image is pure overhead.
  ios::MultiGpuConfig config;
  config.num_gpus = 4;
  const double one_gpu = ios::data_parallel_latency(
      *graph_, schedule_, spec_, 1, ios::MultiGpuConfig{.num_gpus = 1});
  const double four_gpus =
      ios::data_parallel_latency(*graph_, schedule_, spec_, 1, config);
  EXPECT_GE(four_gpus, one_gpu);
}

TEST_F(HiosLiteTest, BranchParallelismDoesNotPayForSppBranches) {
  // The HIOS premise, quantified: SPP's branches are far too small to
  // amortize inter-GPU activation transfers.
  ios::MultiGpuConfig config;
  config.num_gpus = 2;
  const double single =
      ios::schedule_cost(*graph_, spec_, schedule_, 1) ;
  const double multi = ios::branch_parallel_latency(*graph_, schedule_,
                                                    spec_, 1, config);
  EXPECT_GT(multi, single);
}

TEST_F(HiosLiteTest, BranchParallelSingleGpuMatchesScheduleCost) {
  ios::MultiGpuConfig config;
  config.num_gpus = 1;
  const double cost = ios::schedule_cost(*graph_, spec_, schedule_, 8);
  const double multi =
      ios::branch_parallel_latency(*graph_, schedule_, spec_, 8, config);
  EXPECT_NEAR(multi, cost, 1e-12);
}

}  // namespace
}  // namespace dcn
