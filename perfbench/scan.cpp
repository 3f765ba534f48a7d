// scan: the production cascade over one seeded watershed per unit.
//
// Set-up trains SPP-Net #2, NAS-selects the int8 screener and synthesizes
// the benchmark watershed, all from the seed. The stage-1 threshold keeps
// a fixed survivor budget (the top 1% of screener scores, the production
// regime of ~99% negative tiles): models trained within a set-up budget
// score near chance, so a threshold calibrated on them would pass anywhere
// from 0% to 30% of the tiles depending on the seed, and the full model's
// share of a unit's work, hence its time, with it. The warm-up scans are
// the first scans of that watershed, so every batch shape a unit runs (the
// remainder batches included) is tuned before timing starts.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>

#include "core/rng.hpp"
#include "detect/sppnet.hpp"
#include "detect/sppnet_config.hpp"
#include "detect/trainer.hpp"
#include "geo/dataset.hpp"
#include "geo/tiling.hpp"
#include "graph/builder.hpp"
#include "graph/passes.hpp"
#include "ios/executor.hpp"
#include "ios/scheduler.hpp"
#include "scan/cascade.hpp"
#include "scan/pipeline.hpp"
#include "scan/screener.hpp"
#include "simgpu/device.hpp"
#include "simgpu/kernels.hpp"
#include "simgpu/spec.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace dcn;

constexpr std::int64_t kTile = 48;
constexpr double kOverlap = 0.25;
constexpr std::int64_t kScanBatch = 64;
constexpr std::int64_t kFullServeBatch = 8;
constexpr double kSurvivorBudget = 0.01;

class ScanWorkload final : public Workload {
 public:
  explicit ScanWorkload(const RunOptions& options) : options_(options) {
    samples_ = options.smoke ? 12 : 24;
    scan_terrain_ = options.smoke ? 384 : 768;
  }

  const char* work_name() const override { return "tiles"; }
  int threads() const override { return options_.threads; }

  void setup() override {
    const std::uint64_t seed = options_.seed;
    const auto spec = simgpu::a5500_spec();

    geo::DatasetConfig data;
    data.seed = seed;
    // Worlds are synthesized until the cap is reached, then trimmed to it:
    // every seed trains on the same number of patches.
    data.num_worlds = 8;
    data.max_samples = samples_;
    data.patch_size = kTile;
    data.terrain.rows = data.terrain.cols = 192;
    // Scan tiles see crossings anywhere in the tile; train to match.
    data.positive_jitter = kTile / 2 - 4;
    {
      ScopedSpan span("geo.synthesize");
      dataset_ = geo::DrainageDataset::synthesize(data);
    }
    const geo::Split split = dataset_.split(0.8, 3);

    full_config_ = detect::sppnet_candidate2();
    Rng rng(seed + 7);
    full_ = std::make_unique<detect::SppNet>(full_config_, rng);
    detect::TrainConfig train;
    train.epochs = 1;
    train.verbose = false;
    train.jobs = options_.threads;
    {
      ScopedSpan span("detect.train_detector");
      (void)detect::train_detector(*full_, dataset_, split, train);
    }

    scan::ScreenerSearchConfig screener;
    screener.space.conv_kernels = {3};
    screener.space.spp_levels = {1, 2};
    screener.space.fc_widths = {32};
    screener.runner.input_size = kTile;
    screener.runner.latency_batch = kScanBatch;
    screener.runner.device = spec;
    screener.runner.verbose = false;
    screener.train.epochs = 1;
    screener.train.verbose = false;
    screener.train.jobs = options_.threads;
    screener.seed = seed + 100;
    // Set-up-sized training leaves every candidate near chance, where the
    // AP floor would pick a seed-dependent fallback; with no floor the
    // selection is the fastest (architecture, precision) pair every time.
    screener.ap_floor = -1.0;
    {
      ScopedSpan span("scan.select_screener");
      screener_ = scan::select_screener(dataset_, split, screener);
    }
    const bool int8 = screener_.chosen.precision == simgpu::Precision::kInt8;

    {
      ScopedSpan span("graph.optimize_graph");
      screener_graph_ = graph::optimize_graph(
          graph::build_inference_graph(screener_.config, kTile));
      full_graph_ = graph::optimize_graph(
          graph::build_inference_graph(full_config_, kTile));
    }
    ios::IosOptions stage1_ios;
    stage1_ios.batch = kScanBatch;
    if (int8) stage1_ios.precision = simgpu::Precision::kInt8;
    ios::IosOptions stage2_ios;
    stage2_ios.batch = kFullServeBatch;
    stage1_.graph = &screener_graph_;
    stage2_.graph = &full_graph_;
    {
      ScopedSpan span("ios.optimize_schedule");
      stage1_.schedule =
          ios::optimize_schedule(screener_graph_, spec, stage1_ios);
      stage2_.schedule = ios::optimize_schedule(full_graph_, spec, stage2_ios);
    }
    stage1_.server.pool = "screener";
    stage1_.server.batch.max_batch = static_cast<int>(kScanBatch);
    stage1_.server.batch.timeout = 2.0e-4;
    stage1_.server.device = spec;
    if (int8) stage1_.server.precision = simgpu::Precision::kInt8;
    stage2_.server.pool = "full";
    stage2_.server.batch.max_batch = static_cast<int>(kFullServeBatch);
    stage2_.server.batch.timeout = 2.0e-4;
    stage2_.server.device = spec;

    geo::DatasetConfig water = data;
    water.seed = seed + 2;
    water.roads.spacing = 256;
    water.roads.density = 0.4;
    water.terrain.rows = water.terrain.cols = scan_terrain_;
    {
      ScopedSpan span("geo.synthesize");
      Rng world_rng(seed + 2);
      watershed_ = geo::synthesize_world(water, world_rng);
    }
    options_scan_.tile_size = kTile;
    options_scan_.overlap = kOverlap;
    options_scan_.batch_size = kScanBatch;
    options_scan_.jobs = options_.threads;

    // Warm-up 1: screen every tile with no survivors, to place the
    // threshold at the survivor budget.
    {
      ScopedSpan span("scan.scan_watershed");
      options_scan_.threshold = 2.0;
      const scan::ScanResult screened = scan_once();
      std::vector<float> scores;
      for (const scan::TileScore& t : screened.scores) {
        scores.push_back(t.screener_confidence);
      }
      std::sort(scores.begin(), scores.end(), std::greater<>());
      const auto budget = static_cast<std::size_t>(
          std::ceil(kSurvivorBudget * static_cast<double>(scores.size())));
      options_scan_.threshold = scores[std::max<std::size_t>(budget, 1) - 1];
    }
    // Warm-up 2: the reference scan. Units must reproduce it byte for byte.
    {
      ScopedSpan span("scan.scan_watershed");
      reference_ = scan_once();
    }
    reference_csv_ = scan::scan_to_csv(reference_);

    // Virtual clock: the IOS-scheduled simgpu latency of exactly the
    // batches a unit runs, the screener over every tile and the full model
    // over the survivors. Unlike the serving simulation's makespan it does
    // not depend on where in the tile order the survivors fall.
    {
      ScopedSpan span("simgpu.measure_latency");
      const auto batches_latency = [&](const graph::Graph& g,
                                       const ios::Schedule& schedule,
                                       std::int64_t count,
                                       simgpu::Precision precision) {
        simgpu::Device device(spec);
        double seconds = 0.0;
        for (std::int64_t begin = 0; begin < count; begin += kScanBatch) {
          seconds += ios::measure_latency(g, schedule, device,
                                          std::min(kScanBatch, count - begin),
                                          1, 3, precision);
        }
        return seconds;
      };
      virtual_scan_s_ =
          batches_latency(screener_graph_, stage1_.schedule, reference_.tiles,
                          int8 ? simgpu::Precision::kInt8
                               : simgpu::Precision::kFp32) +
          batches_latency(full_graph_, stage2_.schedule, reference_.survivors,
                          simgpu::Precision::kFp32);
    }
  }

  RoundResult round(UnitRunner& runner) override {
    scan::ScanResult result;
    const UnitSample s = runner.run(
        "scan.scan_watershed", [&] { result = scan_once(); },
        [&] {
          const bool same = scan::scan_to_csv(result) == reference_csv_;
          if (!same) std::fprintf(stderr, "scan: scan_to_csv changed\n");
          return same;
        });
    raw_unit_s_.push_back(s.raw_s);
    return {s.scaled_s, s.raw_s, 1, static_cast<double>(reference_.tiles)};
  }

  std::string output_digest() const override {
    return std::to_string(digest(reference_csv_));
  }

  void layer_probes() override {
    const auto tiles =
        geo::make_tiles(watershed_.photo.rows(), watershed_.photo.cols(),
                        kTile, kOverlap, transform_);
    // Tile extraction and the two stages' batches, as scan_watershed
    // composes them.
    std::vector<std::size_t> survivors;
    for (const scan::TileScore& s : reference_.scores) {
      if (s.survived) survivors.push_back(static_cast<std::size_t>(s.tile));
    }
    std::vector<std::size_t> all(tiles.size());
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
    const auto run_batches = [&](Module& model,
                                 const std::vector<std::size_t>& indices,
                                 const char* span_name) {
      for (std::size_t begin = 0; begin < indices.size();
           begin += static_cast<std::size_t>(kScanBatch)) {
        const std::size_t end = std::min(
            indices.size(), begin + static_cast<std::size_t>(kScanBatch));
        Tensor batch(Shape{static_cast<std::int64_t>(end - begin), 4, kTile,
                           kTile});
        for (std::size_t i = begin; i < end; ++i) {
          Tensor image;
          {
            ScopedSpan span("geo.extract_tile");
            image = geo::extract_tile(watershed_.photo, tiles[indices[i]]);
          }
          std::copy(image.data(), image.data() + image.numel(),
                    batch.data() + static_cast<std::int64_t>(i - begin) *
                                       image.numel());
        }
        ScopedSpan span(span_name);
        (void)model.forward(batch);
      }
    };
    run_batches(*screener_.model, all, "detect.screener_batch");
    // The survivors fit one batch; repeat it for a distribution.
    for (int rep = 0; rep < 10; ++rep) {
      run_batches(*full_, survivors, "detect.full_batch");
    }
  }

  std::int64_t finish(MetricMap& e2e, MetricMap& layers) override {
    std::vector<bool> survived;
    for (const scan::TileScore& s : reference_.scores) {
      survived.push_back(s.survived);
    }
    const scan::CascadeServingReport serving =
        scan::simulate_cascade_serving(stage1_, stage2_, survived, 0.0);
    e2e["virtual_latency"] = virtual_scan_s_ * 1e3;
    e2e["virtual_rate"] =
        static_cast<double>(reference_.tiles) / virtual_scan_s_;
    layers["scan.virtual_serving_tiles_per_s"] = serving.tiles_per_sec;

    layers["scan.survivor_fraction"] = reference_.survivor_fraction;
    layers["scan.virtual_stage1_occupancy"] = serving.stage1.occupancy();
    layers["scan.virtual_stage2_occupancy"] = serving.stage2.occupancy();
    if (!raw_unit_s_.empty()) {
      layers["host.raw_tiles_per_s"] =
          static_cast<double>(reference_.tiles) / median(raw_unit_s_);
    }
    std::fprintf(stderr,
                 "scan: %lld tiles (%.1f%% negative), screener %s (%s), "
                 "threshold %.6g, survivors %lld, detections %zu, "
                 "virtual_tiles_per_s %.6g (serving simulation %.6g)\n",
                 static_cast<long long>(reference_.tiles),
                 reference_.negative_fraction * 100.0,
                 screener_.config.name.c_str(),
                 simgpu::precision_name(screener_.chosen.precision),
                 options_scan_.threshold,
                 static_cast<long long>(reference_.survivors),
                 reference_.detections.size(),
                 static_cast<double>(reference_.tiles) / virtual_scan_s_,
                 serving.tiles_per_sec);
    return 0;
  }

 private:
  scan::ScanResult scan_once() {
    return scan::scan_watershed(watershed_.photo, transform_,
                                watershed_.crossings, *screener_.model, *full_,
                                options_scan_);
  }

  RunOptions options_;
  std::int64_t samples_ = 0;
  int scan_terrain_ = 0;

  geo::DrainageDataset dataset_;
  detect::SppNetConfig full_config_;
  std::unique_ptr<detect::SppNet> full_;
  scan::ScreenerSelection screener_;
  graph::Graph screener_graph_;
  graph::Graph full_graph_;
  scan::StagePlan stage1_;
  scan::StagePlan stage2_;
  geo::GeoTransform transform_;
  geo::World watershed_;
  scan::CascadeOptions options_scan_;
  scan::ScanResult reference_;
  std::string reference_csv_;
  double virtual_scan_s_ = 0.0;
  std::vector<double> raw_unit_s_;
};

}  // namespace

std::unique_ptr<Workload> make_scan(const RunOptions& options) {
  return std::make_unique<ScanWorkload>(options);
}

}  // namespace perfbench
