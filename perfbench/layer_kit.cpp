// The layer kit: fixed, seeded calls into each layer's public functions,
// run at the end of a traced run for every per-layer timing the workload
// itself did not record. Every traced run therefore reports a measured
// time for every layer; where the workload exercised a layer, the numbers
// are the workload's own calls.
#include <algorithm>

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
#include "nas/runner.hpp"
#include "nas/search_space.hpp"
#include "nn/sgd.hpp"
#include "scan/cascade.hpp"
#include "scan/screener.hpp"
#include "serve/server.hpp"
#include "shard/partition.hpp"
#include "simgpu/device.hpp"
#include "simgpu/spec.hpp"
#include "tensor/gemm.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace dcn;

constexpr std::int64_t kPatch = 48;       // scan tiles
constexpr std::int64_t kTrainPatch = 32;  // train-search patches

Tensor stack_tiles(const geo::Orthophoto& photo,
                   const std::vector<geo::Tile>& tiles, std::size_t count) {
  count = std::min(count, tiles.size());
  Tensor batch(Shape{static_cast<std::int64_t>(count), 4, kPatch, kPatch});
  for (std::size_t i = 0; i < count; ++i) {
    const Tensor image = geo::extract_tile(photo, tiles[i]);
    std::copy(image.data(), image.data() + image.numel(),
              batch.data() + static_cast<std::int64_t>(i) * image.numel());
  }
  return batch;
}

}  // namespace

void run_layer_kit(std::uint64_t seed,
                   const std::function<bool(const char*)>& missing) {
  const auto any = [&](std::initializer_list<const char*> spans) {
    return std::any_of(spans.begin(), spans.end(), missing);
  };
  const auto spec = simgpu::a5500_spec();

  if (missing("tensor.sgemm_tiny_x100")) {
    float a[16], b[16], c[16];
    for (int i = 0; i < 16; ++i) a[i] = b[i] = 0.25f * static_cast<float>(i);
    for (int rep = 0; rep < 200; ++rep) {
      ScopedSpan span("tensor.sgemm_tiny_x100");
      for (int call = 0; call < 100; ++call) {
        dcn::sgemm(false, false, 4, 4, 4, 1.0f, a, 4, b, 4, 0.0f, c, 4);
      }
    }
  }

  if (any({"geo.synthesize", "nn.forward", "nn.backward", "nn.sgd_step",
           "detect.evaluate_detector", "nas.trial"})) {
    geo::DatasetConfig data;
    data.seed = seed;
    data.num_worlds = 8;
    data.max_samples = 20;
    data.patch_size = kTrainPatch;
    data.terrain.rows = data.terrain.cols = 192;
    data.positive_jitter = 2;
    geo::DrainageDataset dataset;
    {
      ScopedSpan span("geo.synthesize");
      dataset = geo::DrainageDataset::synthesize(data);
    }
    const geo::Split split = dataset.split(0.8, 3);
    const nas::SearchPoint point{3, 1, {64}};
    const detect::SppNetConfig config = nas::materialize(point);
    Rng rng(seed + 7);
    detect::SppNet model(config, rng);
    model.set_training(true);
    const geo::Batch batch = dataset.make_batch(split.train);
    Sgd sgd(model.parameters(), SgdConfig{});
    for (int rep = 0; rep < 10; ++rep) {
      Tensor out;
      {
        ScopedSpan span("nn.forward");
        out = model.forward(batch.images);
      }
      const Tensor grad(out.shape(), 1.0f / static_cast<float>(out.numel()));
      {
        ScopedSpan span("nn.backward");
        (void)model.backward(grad);
      }
      ScopedSpan span("nn.sgd_step");
      sgd.step();
      sgd.zero_grad();
    }
    model.set_training(false);
    for (int rep = 0; rep < 10; ++rep) {
      ScopedSpan span("detect.evaluate_detector");
      (void)detect::evaluate_detector(model, dataset, split.test);
    }
    if (missing("nas.trial")) {
      nas::RunnerConfig runner;
      runner.input_size = kTrainPatch;
      runner.verbose = false;
      for (int rep = 0; rep < 3; ++rep) {
        ScopedSpan span("nas.trial");
        Rng trial_rng(seed + 7);
        detect::SppNet trial_model(config, trial_rng);
        detect::TrainConfig train;
        train.epochs = 1;
        train.verbose = false;
        (void)detect::train_detector(trial_model, dataset, split, train);
        (void)nas::profile_architecture(config, runner, rep, 1);
      }
    }
  }

  if (any({"geo.extract_tile", "detect.screener_batch",
           "detect.full_batch"})) {
    geo::DatasetConfig water;
    water.terrain.rows = water.terrain.cols = 256;
    Rng world_rng(seed + 2);
    const geo::World world = geo::synthesize_world(water, world_rng);
    const auto tiles = geo::make_tiles(world.photo.rows(), world.photo.cols(),
                                       kPatch, 0.25, geo::GeoTransform{});
    for (std::size_t i = 0; i < std::min<std::size_t>(200, tiles.size());
         ++i) {
      ScopedSpan span("geo.extract_tile");
      (void)geo::extract_tile(world.photo, tiles[i]);
    }
    Rng rng(seed + 9);
    detect::SppNet screener(
        scan::materialize_screener(nas::SearchPoint{3, 1, {32}}), rng);
    detect::SppNet full(detect::sppnet_candidate2(), rng);
    screener.set_training(false);
    full.set_training(false);
    const Tensor screener_batch = stack_tiles(world.photo, tiles, 64);
    const Tensor full_batch = stack_tiles(world.photo, tiles, 8);
    for (int rep = 0; rep < 10; ++rep) {
      {
        ScopedSpan span("detect.screener_batch");
        (void)screener.forward(screener_batch);
      }
      ScopedSpan span("detect.full_batch");
      (void)full.forward(full_batch);
    }
  }

  if (missing("scan.dedupe")) {
    Rng rng(seed + 11);
    std::vector<scan::ScanDetection> detections(200);
    for (std::size_t i = 0; i < detections.size(); ++i) {
      detections[i].tile = static_cast<std::int64_t>(i);
      detections[i].world_x = rng.uniform() * 1000.0;
      detections[i].world_y = rng.uniform() * 1000.0;
      detections[i].confidence = static_cast<float>(rng.uniform());
    }
    for (int rep = 0; rep < 200; ++rep) {
      ScopedSpan span("scan.dedupe");
      (void)scan::dedupe_detections(detections, 24.0);
    }
  }

  const graph::Graph g = graph::optimize_graph(
      graph::build_inference_graph(detect::sppnet_candidate2(), kPatch));
  ios::IosOptions options;
  options.batch = 8;
  const ios::Schedule schedule = ios::optimize_schedule(g, spec, options);
  const bool fuse = missing("graph.optimize_graph");
  const bool schedule_ops = missing("ios.optimize_schedule");
  const bool latency = missing("simgpu.measure_latency");
  const bool partition = missing("shard.partition_graph");
  for (int rep = 0; rep < 10; ++rep) {
    if (fuse) {
      ScopedSpan span("graph.optimize_graph");
      (void)graph::optimize_graph(
          graph::build_inference_graph(detect::sppnet_candidate2(), kPatch));
    }
    if (schedule_ops) {
      ScopedSpan span("ios.optimize_schedule");
      (void)ios::optimize_schedule(g, spec, options);
    }
    if (latency) {
      simgpu::Device device(spec);
      ScopedSpan span("simgpu.measure_latency");
      (void)ios::measure_latency(g, schedule, device, 8);
    }
    if (partition) {
      shard::PartitionOptions popts;
      popts.stages = 4;
      popts.ios.batch = 4;
      ScopedSpan span("shard.partition_graph");
      (void)shard::partition_graph(g, spec, popts);
    }
  }

  if (any({"serve.generate_trace", "serve.serve"})) {
    serve::TrafficConfig traffic;
    traffic.seed = seed;
    traffic.rate = 4000.0;
    traffic.duration = 0.5;
    traffic.deadline = 0.025;
    serve::ServerConfig config;
    config.replicas = 4;
    config.device = spec;
    for (int rep = 0; rep < 5; ++rep) {
      std::vector<serve::Request> trace;
      {
        ScopedSpan span("serve.generate_trace");
        trace = serve::generate_trace(traffic);
      }
      serve::Server server(g, schedule, config);
      ScopedSpan span("serve.serve");
      (void)server.serve(trace);
    }
  }
}

}  // namespace perfbench
