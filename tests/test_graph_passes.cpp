// Tests for the graph optimizer: pipeline mechanics (idempotence, DCE,
// canonicalization), optimized graphs pinned to digests, the
// launch-reduction acceptance floor, IOS scheduling over the fused graph,
// the semantics-preservation proof — fused vs unfused inference must be
// bit-identical at fp32 and int8, at every thread count, because fused
// nodes run through the tensor engine's existing GEMM/qgemm epilogues —
// and the int8 deployment (quantize_sppnet) pinned to output digests.
#include "graph/passes.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "core/parallel.hpp"
#include "core/rng.hpp"
#include "detect/sppnet.hpp"
#include "detect/sppnet_config.hpp"
#include "graph/builder.hpp"
#include "graph/numeric.hpp"
#include "ios/executor.hpp"
#include "ios/schedule.hpp"
#include "ios/scheduler.hpp"
#include "scan/screener.hpp"
#include "simgpu/device.hpp"
#include "simgpu/spec.hpp"

namespace dcn::graph {
namespace {

constexpr std::int64_t kInput = 40;

std::size_t count_kind(const Graph& g, OpKind kind) {
  std::size_t n = 0;
  for (const OpNode& node : g.nodes()) {
    if (node.kind == kind) ++n;
  }
  return n;
}

Tensor random_batch(std::int64_t n, std::int64_t channels, std::int64_t size,
                    std::uint64_t seed) {
  Tensor batch(Shape{{n, channels, size, size}});
  Rng rng(seed);
  batch.fill_normal(rng, 0.0f, 1.0f);
  return batch;
}

// FNV-1a-64 of a tensor's bytes: pins exact int8 outputs.
std::uint64_t digest(const Tensor& t) {
  std::uint64_t h = 14695981039346656037ull;
  const auto* bytes = reinterpret_cast<const unsigned char*>(t.data());
  const std::size_t n = sizeof(float) * static_cast<std::size_t>(t.numel());
  for (std::size_t i = 0; i < n; ++i) h = (h ^ bytes[i]) * 1099511628211ull;
  return h;
}

// Restores the global thread override even when an assertion fails.
struct ThreadGuard {
  ~ThreadGuard() { set_num_threads(0); }
};

TEST(Passes, OptimizeIsIdempotent) {
  for (const auto& model :
       {detect::original_sppnet(), detect::sppnet_candidate2()}) {
    const Graph once = optimize_graph(build_inference_graph(model, 100));
    EXPECT_EQ(once.to_string(), optimize_graph(once).to_string())
        << model.name;
  }
}

// FNV-1a-64 of optimize_graph(...).to_string() for the paper's four
// SPP-Nets at 100 px and every point of the default screener grid at 48 px,
// pinned before the optimizer became one fixed pipeline: a mismatch means
// the rewrites changed what IOS schedules, not a reason to re-pin.
// to_string() prints kinds, names, shapes and edges but no attrs, so grid
// points that differ only in conv kernel share a digest.
TEST(Passes, OptimizedGraphsMatchPinnedDigests) {
  const auto fnv1a = [](const std::string& text) {
    std::uint64_t h = 14695981039346656037ull;
    for (const unsigned char c : text) h = (h ^ c) * 1099511628211ull;
    return h;
  };
  const std::pair<detect::SppNetConfig, std::uint64_t> models[] = {
      {detect::original_sppnet(), 0x35e2e6c498a86ad0ull},
      {detect::sppnet_candidate1(), 0x35e2e6c498a86ad0ull},
      {detect::sppnet_candidate2(), 0x62fca08e9cc323ddull},
      {detect::sppnet_candidate3(), 0x1eebb4ad1e320496ull}};
  for (const auto& [model, expected] : models) {
    EXPECT_EQ(fnv1a(optimize_graph(build_inference_graph(model, 100))
                        .to_string()),
              expected)
        << model.name;
  }
  const std::map<std::string, std::uint64_t> screeners = {
      {"screener-w8-k3-l1-f32", 0x7b5f4a363b2ee2f3ull},
      {"screener-w8-k3-l1-f64", 0xdead69c7409f3f14ull},
      {"screener-w8-k3-l2-f32", 0xd61f3205551f4e7cull},
      {"screener-w8-k3-l2-f64", 0x279b6ea82c66440dull},
      {"screener-w8-k5-l1-f32", 0x7b5f4a363b2ee2f3ull},
      {"screener-w8-k5-l1-f64", 0xdead69c7409f3f14ull},
      {"screener-w8-k5-l2-f32", 0xd61f3205551f4e7cull},
      {"screener-w8-k5-l2-f64", 0x279b6ea82c66440dull}};
  const scan::ScreenerSpace space;
  const std::vector<nas::SearchPoint> points = space.enumerate();
  ASSERT_EQ(points.size(), screeners.size());
  for (const nas::SearchPoint& point : points) {
    const detect::SppNetConfig config =
        scan::materialize_screener(point, space.trunk_width);
    ASSERT_EQ(screeners.count(config.name), 1u) << config.name;
    EXPECT_EQ(fnv1a(optimize_graph(build_inference_graph(config, 48))
                        .to_string()),
              screeners.at(config.name))
        << config.name;
  }
}

TEST(Passes, FusionRewritesTheSppNetFamily) {
  for (const auto& model :
       {detect::original_sppnet(), detect::sppnet_candidate1(),
        detect::sppnet_candidate2(), detect::sppnet_candidate3()}) {
    const Graph naive = build_inference_graph(model, 100);
    const Graph fused = optimize_graph(naive);
    validate_shapes(fused);

    // Every ReLU is absorbed into its producer; flattens fold away (the
    // concat and FC read element counts, not spatial metadata).
    EXPECT_EQ(count_kind(fused, OpKind::kReLU), 0u) << model.name;
    EXPECT_EQ(count_kind(fused, OpKind::kFlatten), 0u) << model.name;
    EXPECT_GT(count_kind(fused, OpKind::kFusedConvReLU), 0u) << model.name;
    EXPECT_GT(count_kind(fused, OpKind::kFusedLinearReLU), 0u) << model.name;
    // Weight binding survives: the builder's compute-op names are intact.
    bool conv0 = false, head = false;
    for (const OpNode& node : fused.nodes()) {
      conv0 |= node.name == "conv0";
      head |= node.name == "head";
    }
    EXPECT_TRUE(conv0 && head) << model.name;
    EXPECT_EQ(fused.parameter_count(), naive.parameter_count()) << model.name;

    // The PR's acceptance floor: >= 25% fewer scheduled kernel launches.
    const double reduction =
        1.0 - static_cast<double>(device_op_count(fused)) /
                  static_cast<double>(device_op_count(naive));
    EXPECT_GE(reduction, 0.25) << model.name;
  }
}

TEST(Passes, DeadOpEliminationRemovesUnreachable) {
  Graph g;
  const OpId in = g.add_op(OpKind::kInput, "in", {}, {}, TensorDesc{{8, 8, 8}});
  OpAttrs conv;
  conv.kernel = 3;
  conv.stride = 1;
  conv.padding = 1;
  conv.out_channels = 8;
  const OpId a =
      g.add_op(OpKind::kConv2d, "a", conv, {in}, TensorDesc{{8, 8, 8}});
  // Dead branch: a ReLU nobody consumes and that does not reach the output.
  g.add_op(OpKind::kReLU, "dead", {}, {a}, TensorDesc{{8, 8, 8}});
  g.add_op(OpKind::kOutput, "out", {}, {a}, TensorDesc{{8, 8, 8}});

  // The conv has two consumers, so the fusion rule must not fire; DCE alone
  // removes the dead ReLU.
  const Graph optimized = optimize_graph(g);
  EXPECT_EQ(optimized.size(), 3u);
  EXPECT_EQ(count_kind(optimized, OpKind::kReLU), 0u);
  EXPECT_EQ(count_kind(optimized, OpKind::kConv2d), 1u);
}

TEST(Ios, DpSchedulesTheFusedGraphDirectly) {
  const auto spec = simgpu::a5500_spec();
  const Graph naive =
      build_inference_graph(detect::sppnet_candidate2(), 100);
  const Graph fused = optimize_graph(naive);

  const ios::Schedule schedule = ios::optimize_schedule(fused, spec);
  ios::validate_schedule(fused, schedule);  // covers every fused device op
  EXPECT_EQ(schedule.num_kernels(), device_op_count(fused));

  // The fused schedule executes end-to-end and beats the naive one — fewer
  // launches and no intermediate activation round-trips.
  simgpu::Device naive_device(spec);
  simgpu::Device fused_device(spec);
  const double naive_latency = ios::measure_latency(
      naive, ios::optimize_schedule(naive, spec), naive_device, 1);
  const double fused_latency =
      ios::measure_latency(fused, schedule, fused_device, 1);
  EXPECT_LT(fused_latency, naive_latency);
}

TEST(Numerics, FusedVsUnfusedBitIdenticalFp32AcrossThreadCounts) {
  Rng rng(7);
  detect::SppNet net(detect::original_sppnet(), rng);
  const WeightMap weights = extract_weights(net);
  const Graph naive = build_inference_graph(detect::original_sppnet(), kInput);
  const NumericExecutor unfused(naive, weights);
  const NumericExecutor fused(optimize_graph(naive), weights);
  const Tensor x = random_batch(3, 4, kInput, 11);

  ThreadGuard guard;
  std::vector<float> reference;
  for (const int threads : {1, 2, 5}) {
    set_num_threads(threads);
    const Tensor a = unfused.forward(x);
    const Tensor b = fused.forward(x);
    ASSERT_EQ(a.numel(), b.numel());
    // Bit-identical, not approximately equal: the fused epilogue computes
    // the very same max(x, 0) on the very same GEMM result.
    EXPECT_EQ(std::memcmp(a.data(), b.data(),
                          sizeof(float) * static_cast<std::size_t>(a.numel())),
              0)
        << "threads=" << threads;
    // And the engine's determinism contract holds across thread counts.
    if (reference.empty()) {
      reference.assign(a.data(), a.data() + a.numel());
    } else {
      EXPECT_EQ(std::memcmp(a.data(), reference.data(),
                            sizeof(float) * reference.size()),
                0)
          << "threads=" << threads;
    }
  }
}

TEST(Numerics, FusedVsUnfusedBitIdenticalInt8AcrossThreadCounts) {
  Rng rng(13);
  detect::SppNet net(detect::original_sppnet(), rng);
  const WeightMap weights = extract_weights(net);
  const Graph naive = build_inference_graph(detect::original_sppnet(), kInput);
  NumericExecutor unfused(naive, weights);
  NumericExecutor fused(optimize_graph(naive), weights);

  const Tensor calibration = random_batch(4, 4, kInput, 17);
  unfused.quantize(calibration);
  fused.quantize(calibration);
  EXPECT_TRUE(unfused.quantized() && fused.quantized());
  const Tensor x = random_batch(3, 4, kInput, 19);

  ThreadGuard guard;
  for (const int threads : {1, 2, 5}) {
    set_num_threads(threads);
    const Tensor a = unfused.forward_int8(x);
    const Tensor b = fused.forward_int8(x);
    ASSERT_EQ(a.numel(), b.numel());
    // Calibration observed bit-identical tensors on both twins (the
    // observation points — each conv/linear's float input — survive
    // fusion), so scales match and the qgemm epilogue's max(x, 0) equals
    // the standalone ReLU exactly.
    EXPECT_EQ(std::memcmp(a.data(), b.data(),
                          sizeof(float) * static_cast<std::size_t>(a.numel())),
              0)
        << "threads=" << threads;
  }
}

TEST(Numerics, ExecutorMatchesTheRealModels) {
  Rng rng(23);
  detect::SppNet net(detect::original_sppnet(), rng);
  net.set_training(false);
  const WeightMap weights = extract_weights(net);
  const Graph naive = build_inference_graph(detect::original_sppnet(), kInput);
  const NumericExecutor executor(naive, weights);
  const Tensor x = random_batch(2, 4, kInput, 29);

  // fp32: the executor walks the same layers the module stack runs.
  const Tensor expected = net.forward(x);
  const Tensor got = executor.forward(x);
  ASSERT_EQ(got.numel(), expected.numel());
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    EXPECT_EQ(got[i], expected[i]) << "fp32 element " << i;
  }

  // int8: quantize_sppnet's output bytes are pinned to the digests of the
  // layer-by-layer int8 SPP-Net it replaced (same weights, calibration and
  // input), for the paper's model and for a cascade screener at 48 px.
  // Every kernel variant must reproduce them: a mismatch is a determinism
  // bug, not a reason to re-pin.
  nas::SearchPoint point;
  point.conv1_kernel = 3;
  point.spp_first_level = 2;
  point.fc_sizes = {32};
  Rng screener_rng(43);
  detect::SppNet screener(scan::materialize_screener(point, 8, 4),
                          screener_rng);
  ThreadGuard guard;
  for (const int threads : {1, 4}) {
    set_num_threads(threads);
    EXPECT_EQ(digest(quantize_sppnet(net, random_batch(4, 4, kInput, 31))
                         ->forward(x)),
              0x76abe808a7785697ull)
        << "original_sppnet threads=" << threads;
    EXPECT_EQ(digest(quantize_sppnet(screener, random_batch(8, 4, 48, 47))
                         ->forward(random_batch(5, 4, 48, 53))),
              0xa5cf35d558bc83ffull)
        << "screener-w8-k3-l2-f32 threads=" << threads;
  }
}

TEST(Numerics, WrongInputShapeThrowsShapeError) {
  Rng rng(47);
  detect::SppNet net(detect::original_sppnet(), rng);
  const auto quantized = quantize_sppnet(net, random_batch(2, 4, kInput, 53));
  // A tile of another size, wrong channels, or a missing batch dimension.
  EXPECT_THROW(quantized->forward(random_batch(1, 4, kInput + 8, 59)),
               ShapeError);
  EXPECT_THROW(quantized->forward(random_batch(1, 3, kInput, 59)),
               ShapeError);
  EXPECT_THROW(quantized->forward(Tensor(Shape{4, kInput, kInput})),
               ShapeError);
  const NumericExecutor executor(
      build_inference_graph(detect::original_sppnet(), kInput),
      extract_weights(net));
  EXPECT_THROW(executor.forward(random_batch(1, 4, kInput + 8, 59)),
               ShapeError);
}

TEST(Numerics, QuantizeSppnetRejectsBadCalibration) {
  Rng rng(61);
  detect::SppNet net(detect::original_sppnet(), rng);
  EXPECT_THROW(quantize_sppnet(net, Tensor(Shape{2, 4, kInput, kInput + 8})),
               ConfigError);  // not square
  EXPECT_THROW(quantize_sppnet(net, Tensor(Shape{0, 4, kInput, kInput})),
               ConfigError);  // empty
  EXPECT_THROW(quantize_sppnet(net, Tensor(Shape{4, kInput, kInput})),
               ConfigError);  // not NCHW
}

TEST(Numerics, GuardsMisuse) {
  Rng rng(37);
  detect::SppNet net(detect::original_sppnet(), rng);
  const WeightMap weights = extract_weights(net);
  const Graph naive = build_inference_graph(detect::original_sppnet(), kInput);
  const NumericExecutor executor(naive, weights);
  EXPECT_THROW(executor.forward_int8(random_batch(1, 4, kInput, 41)),
               ConfigError);  // quantize() first
  NumericExecutor quantized(naive, weights);
  quantized.quantize(random_batch(2, 4, kInput, 43));
  EXPECT_THROW(quantized.forward(random_batch(1, 4, kInput, 41)),
               ConfigError);  // fp32 weights released
  EXPECT_THROW(quantized.quantize(random_batch(2, 4, kInput, 43)),
               ConfigError);
  WeightMap missing = weights;
  missing.erase("conv0");
  EXPECT_THROW(NumericExecutor(naive, missing), ConfigError);
}

}  // namespace
}  // namespace dcn::graph
