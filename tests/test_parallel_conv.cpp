// Determinism and correctness of the batch-parallel conv/linear path and
// the workspace arena: jobs=1 vs jobs=N must be bit-identical in forward
// outputs, gradients, and end-to-end trained weights, and gradcheck must
// hold under threading.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/logging.hpp"
#include "core/parallel.hpp"
#include "core/rng.hpp"
#include "detect/trainer.hpp"
#include "nn/conv2d.hpp"
#include "nn/gradcheck.hpp"
#include "nn/linear.hpp"
#include "tensor/workspace.hpp"

namespace dcn {
namespace {

struct ThreadGuard {
  explicit ThreadGuard(int n) { set_num_threads(n); }
  ~ThreadGuard() { set_num_threads(0); }
};

Tensor random_tensor(const Shape& shape, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t(shape);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.normal());
  }
  return t;
}

bool bit_identical(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

// --- Conv2d forward/backward across job counts ------------------------------

struct ConvPassResult {
  Tensor output;
  Tensor grad_input;
  Tensor weight_grad;
  Tensor bias_grad;
};

ConvPassResult run_conv_pass(int jobs) {
  ThreadGuard guard(jobs);
  Rng rng(123);
  Conv2d conv(3, 8, 3, 1, 1, rng);  // same weights for every jobs value
  const Tensor input = random_tensor(Shape{9, 3, 13, 11}, 99);
  const Tensor grad_out = random_tensor(Shape{9, 8, 13, 11}, 100);
  ConvPassResult r;
  r.output = conv.forward(input);
  r.grad_input = conv.backward(grad_out);
  const auto params = conv.parameters();
  r.weight_grad = *params[0].grad;
  r.bias_grad = *params[1].grad;
  return r;
}

TEST(ParallelConv, ForwardAndBackwardBitIdenticalAcrossJobs) {
  const ConvPassResult serial = run_conv_pass(1);
  for (int jobs : {2, 4, 7}) {
    const ConvPassResult parallel = run_conv_pass(jobs);
    EXPECT_TRUE(bit_identical(serial.output, parallel.output))
        << "forward, jobs=" << jobs;
    EXPECT_TRUE(bit_identical(serial.grad_input, parallel.grad_input))
        << "grad_input, jobs=" << jobs;
    EXPECT_TRUE(bit_identical(serial.weight_grad, parallel.weight_grad))
        << "weight_grad, jobs=" << jobs;
    EXPECT_TRUE(bit_identical(serial.bias_grad, parallel.bias_grad))
        << "bias_grad, jobs=" << jobs;
  }
}

TEST(ParallelConv, StridedAndSingleSampleShapesBitIdentical) {
  // batch < chunks, stride > 1, and pad 0 hit the other partition branches.
  auto run = [](int jobs) {
    ThreadGuard guard(jobs);
    Rng rng(7);
    Conv2d conv(2, 5, 3, 2, 0, rng);
    const Tensor input = random_tensor(Shape{3, 2, 17, 9}, 55);
    Tensor out = conv.forward(input);
    Tensor gi = conv.backward(random_tensor(out.shape(), 56));
    return std::pair<Tensor, Tensor>(std::move(out), std::move(gi));
  };
  const auto serial = run(1);
  const auto parallel = run(6);
  EXPECT_TRUE(bit_identical(serial.first, parallel.first));
  EXPECT_TRUE(bit_identical(serial.second, parallel.second));
}

TEST(ParallelConv, GradcheckHoldsUnderThreading) {
  ThreadGuard guard(4);
  Rng rng(11);
  Conv2d conv(2, 4, 3, 1, 1, rng);
  const Tensor input = random_tensor(Shape{4, 2, 7, 7}, 33);
  const GradCheckResult gin = check_input_gradient(conv, input);
  EXPECT_TRUE(gin.ok) << gin.detail;
  const GradCheckResult gparam = check_parameter_gradients(conv, input);
  EXPECT_TRUE(gparam.ok) << gparam.detail;
}

// --- Linear under threading -------------------------------------------------

TEST(ParallelConv, LinearFusedBiasBitIdenticalAcrossJobs) {
  auto run = [](int jobs) {
    ThreadGuard guard(jobs);
    Rng rng(17);
    Linear lin(96, 64, rng);
    const Tensor input = random_tensor(Shape{33, 96}, 44);
    Tensor out = lin.forward(input);
    Tensor gi = lin.backward(random_tensor(out.shape(), 45));
    const auto params = lin.parameters();
    return std::tuple<Tensor, Tensor, Tensor>(std::move(out), std::move(gi),
                                              *params[0].grad);
  };
  const auto serial = run(1);
  const auto parallel = run(5);
  EXPECT_TRUE(bit_identical(std::get<0>(serial), std::get<0>(parallel)));
  EXPECT_TRUE(bit_identical(std::get<1>(serial), std::get<1>(parallel)));
  EXPECT_TRUE(bit_identical(std::get<2>(serial), std::get<2>(parallel)));
}

TEST(ParallelConv, LinearGradcheckHoldsUnderThreading) {
  ThreadGuard guard(4);
  Rng rng(19);
  Linear lin(24, 12, rng);
  const Tensor input = random_tensor(Shape{6, 24}, 66);
  const GradCheckResult gin = check_input_gradient(lin, input);
  EXPECT_TRUE(gin.ok) << gin.detail;
  const GradCheckResult gparam = check_parameter_gradients(lin, input);
  EXPECT_TRUE(gparam.ok) << gparam.detail;
}

// --- Workspace arena --------------------------------------------------------

TEST(WorkspaceArena, PointersSurviveGrowthWithinScope) {
  Workspace& ws = Workspace::tls();
  Workspace::Scope scope(ws);
  float* first = ws.floats(32);
  first[0] = 42.0f;
  // Force growth well past the initial block.
  float* big = ws.floats(1 << 20);
  big[0] = 1.0f;
  EXPECT_EQ(first[0], 42.0f);  // old block untouched by growth
}

TEST(WorkspaceArena, ScopesNestAndRelease) {
  Workspace& ws = Workspace::tls();
  Workspace::Scope outer(ws);
  float* a = ws.floats(16);
  a[0] = 7.0f;
  {
    Workspace::Scope inner(ws);
    (void)ws.floats(1024);
    EXPECT_EQ(ws.depth(), 2);
  }
  // Inner allocations released; outer pointer still valid.
  EXPECT_EQ(ws.depth(), 1);
  EXPECT_EQ(a[0], 7.0f);
  // The next inner scope reuses the same storage (no growth needed).
  const std::size_t cap = ws.capacity();
  {
    Workspace::Scope inner(ws);
    (void)ws.floats(1024);
  }
  EXPECT_EQ(ws.capacity(), cap);
}

TEST(WorkspaceArena, SteadyStateReusesCapacity) {
  Workspace& ws = Workspace::tls();
  std::size_t cap_after_first = 0;
  for (int pass = 0; pass < 3; ++pass) {
    Workspace::Scope scope(ws);
    (void)ws.floats(5000);
    (void)ws.floats(300);
    if (pass == 0) {
      cap_after_first = ws.capacity();
    } else {
      EXPECT_EQ(ws.capacity(), cap_after_first) << "pass " << pass;
    }
  }
}

// --- End-to-end: one epoch of training, jobs=1 vs jobs=N --------------------

class ParallelTrainingTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    set_log_level(LogLevel::kWarn);
    geo::DatasetConfig config;
    config.seed = 11;
    config.num_worlds = 1;
    config.terrain.rows = 256;
    config.terrain.cols = 256;
    config.roads.spacing = 64;
    config.stream_threshold = 200.0;
    config.patch_size = 24;
    config.positive_jitter = 2;
    config.augment_flips = true;
    dataset_ = new geo::DrainageDataset(
        geo::DrainageDataset::synthesize(config));
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }
  static geo::DrainageDataset* dataset_;
};

geo::DrainageDataset* ParallelTrainingTest::dataset_ = nullptr;

TEST_F(ParallelTrainingTest, OneEpochWeightsBitIdenticalAcrossJobs) {
  const auto model_config = detect::parse_notation(
      "C_{6,3,1}-P_{2,2}-C_{8,3,1}-P_{2,2}-SPP_{2,1}-F_{24}", 4);
  const geo::Split split = dataset_->split(0.8, 3);
  detect::TrainConfig config;
  config.epochs = 1;
  config.verbose = false;

  auto train_weights = [&](int jobs) {
    Rng rng(5);
    detect::SppNet model(model_config, rng);
    config.jobs = jobs;
    (void)detect::train_detector(model, *dataset_, split, config);
    std::vector<Tensor> weights;
    for (const auto& p : model.parameters()) weights.push_back(*p.value);
    return weights;
  };

  const int threads_before = compute_threads();
  const auto serial = train_weights(1);
  const auto parallel = train_weights(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(bit_identical(serial[i], parallel[i])) << "parameter " << i;
  }
  EXPECT_EQ(compute_threads(), threads_before);  // restored by the trainer
}

}  // namespace
}  // namespace dcn
