// Randomized property tests for the scheduling stack: random branched
// DAGs are pushed through block extraction, the IOS DP, and the cost
// model, checking the invariants that must hold for *every* graph —
// schedule validity, never-worse-than-sequential, brute-force lower bound,
// and cost-model monotonicity in device strength.
#include <gtest/gtest.h>

#include "core/rng.hpp"
#include "graph/blocks.hpp"
#include "graph/graph.hpp"
#include "ios/executor.hpp"
#include "ios/scheduler.hpp"
#include "simgpu/device.hpp"

namespace dcn {
namespace {

// Random "trunk + fan-out + join" graph: a conv chain, then 1..4 branches
// of 1..2 ops each, then concat and a linear head. Shapes are plausible
// (channels 4..64, sizes 8..32) so kernel costs are non-degenerate.
graph::Graph random_graph(Rng& rng) {
  graph::Graph g;
  const std::int64_t channels = 4 << rng.uniform_int(0, 3);
  const std::int64_t size = 8 << rng.uniform_int(0, 2);
  auto prev = g.add_op(graph::OpKind::kInput, "in", {}, {},
                       graph::TensorDesc{{channels, size, size}});
  const int trunk_len = static_cast<int>(rng.uniform_int(1, 3));
  for (int i = 0; i < trunk_len; ++i) {
    graph::OpAttrs conv;
    conv.kernel = 3;
    conv.stride = 1;
    conv.padding = 1;
    conv.out_channels = channels;
    prev = g.add_op(graph::OpKind::kConv2d, "t" + std::to_string(i), conv,
                    {prev}, graph::TensorDesc{{channels, size, size}});
  }
  const int branches = static_cast<int>(rng.uniform_int(1, 4));
  std::vector<graph::OpId> outs;
  std::int64_t total = 0;
  for (int b = 0; b < branches; ++b) {
    const std::int64_t level = rng.uniform_int(1, 4);
    graph::OpAttrs pool;
    pool.pool_out = level;
    auto tip = g.add_op(graph::OpKind::kAdaptivePool,
                        "p" + std::to_string(b), pool, {prev},
                        graph::TensorDesc{{channels, level, level}});
    if (rng.bernoulli(0.6)) {
      tip = g.add_op(graph::OpKind::kFlatten, "f" + std::to_string(b), {},
                     {tip},
                     graph::TensorDesc{{channels * level * level}});
      outs.push_back(tip);
      total += channels * level * level;
    } else {
      tip = g.add_op(graph::OpKind::kReLU, "r" + std::to_string(b), {},
                     {tip}, graph::TensorDesc{{channels, level, level}});
      outs.push_back(tip);
      total += channels * level * level;
    }
  }
  auto cat = g.add_op(graph::OpKind::kConcat, "cat", {}, outs,
                      graph::TensorDesc{{total}});
  graph::OpAttrs fc;
  fc.out_features = 16;
  auto head = g.add_op(graph::OpKind::kLinear, "head", fc, {cat},
                       graph::TensorDesc{{16}});
  g.add_op(graph::OpKind::kOutput, "out", {}, {head},
           graph::TensorDesc{{16}});
  return g;
}

class RandomGraphProperty : public testing::TestWithParam<int> {};

TEST_P(RandomGraphProperty, BlocksPartitionEveryOp) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const graph::Graph g = random_graph(rng);
  const auto blocks = graph::extract_blocks(g);
  std::vector<int> seen(g.size(), 0);
  for (const auto& block : blocks) {
    for (graph::OpId id : block.ops) {
      ++seen[static_cast<std::size_t>(id)];
    }
  }
  for (std::size_t i = 0; i < g.size(); ++i) {
    EXPECT_EQ(seen[i], 1) << "op " << i;
  }
}

TEST_P(RandomGraphProperty, OptimizedScheduleIsValidAndNeverWorse) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 1000);
  const graph::Graph g = random_graph(rng);
  const auto spec = simgpu::a5500_spec();
  for (std::int64_t batch : {1, 16}) {
    ios::IosOptions options;
    options.batch = batch;
    const ios::Schedule opt = ios::optimize_schedule(g, spec, options);
    ios::validate_schedule(g, opt);  // throws on any structural violation
    const double c_opt = ios::schedule_cost(g, spec, opt, batch);
    const double c_seq =
        ios::schedule_cost(g, spec, ios::sequential_schedule(g), batch);
    EXPECT_LE(c_opt, c_seq + 1e-15) << "batch " << batch;
  }
}

TEST_P(RandomGraphProperty, BruteForceIsALowerBound) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 2000);
  const graph::Graph g = random_graph(rng);
  std::size_t device_ops = 0;
  for (const auto& node : g.nodes()) {
    if (graph::is_device_op(node.kind)) ++device_ops;
  }
  if (device_ops > 12) GTEST_SKIP() << "too large for the oracle";
  const auto spec = simgpu::a5500_spec();
  const double best = ios::brute_force_best_cost(g, spec, 1);
  const ios::Schedule opt = ios::optimize_schedule(g, spec);
  EXPECT_GE(ios::schedule_cost(g, spec, opt, 1), best - 1e-15);
  // And the block decomposition stays within its boundary overhead.
  EXPECT_LE(ios::schedule_cost(g, spec, opt, 1),
            best + 4 * spec.inter_stage_gap + 1e-9);
}

TEST_P(RandomGraphProperty, ExecutorAgreesWithCostModelOrdering) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 3000);
  const graph::Graph g = random_graph(rng);
  const auto spec = simgpu::a5500_spec();
  const ios::Schedule seq = ios::sequential_schedule(g);
  const ios::Schedule opt = ios::optimize_schedule(g, spec);
  simgpu::Device d1(spec);
  simgpu::Device d2(spec);
  const double t_seq = ios::measure_latency(g, seq, d1, 1);
  const double t_opt = ios::measure_latency(g, opt, d2, 1);
  // The executor adds identical copy/sync overhead to both schedules, so
  // the cost-model ordering must survive measurement.
  EXPECT_LE(t_opt, t_seq + 1e-12);
}

TEST_P(RandomGraphProperty, StrongerDeviceIsNeverSlower) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 4000);
  const graph::Graph g = random_graph(rng);
  simgpu::DeviceSpec weak = simgpu::a5500_spec();
  weak.compute_efficiency = 0.2;
  weak.dram_bandwidth /= 2;
  const simgpu::DeviceSpec strong = simgpu::a5500_spec();
  const ios::Schedule schedule = ios::sequential_schedule(g);
  for (std::int64_t batch : {1, 32}) {
    EXPECT_LE(ios::schedule_cost(g, strong, schedule, batch),
              ios::schedule_cost(g, weak, schedule, batch) + 1e-15)
        << "batch " << batch;
  }
}

TEST_P(RandomGraphProperty, ShapesValidate) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 5000);
  const graph::Graph g = random_graph(rng);
  EXPECT_NO_THROW(graph::validate_shapes(g));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphProperty,
                         testing::Range(1, 13));

}  // namespace
}  // namespace dcn
