// Post-training INT8 quantization: primitives, the qgemm kernel, the
// calibration pass, the quantized detector, precision-aware scheduling and
// caching, precision-expanded selection, and precision-configurable serving.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "core/error.hpp"
#include "core/logging.hpp"
#include "core/parallel.hpp"
#include "core/rng.hpp"
#include "detect/calibration.hpp"
#include "detect/sppnet_config.hpp"
#include "detect/trainer.hpp"
#include "graph/builder.hpp"
#include "graph/numeric.hpp"
#include "ios/executor.hpp"
#include "ios/schedule_cache.hpp"
#include "ios/scheduler.hpp"
#include "nas/selection.hpp"
#include "serve/server.hpp"
#include "simgpu/device.hpp"
#include "simgpu/kernels.hpp"
#include "simgpu/spec.hpp"
#include "tensor/qgemm.hpp"
#include "tensor/quantize.hpp"

namespace dcn {
namespace {

// --- Quantization primitives ------------------------------------------------

TEST(QuantParamsTest, CoversRangeAndRepresentsZeroExactly) {
  const QuantParams p = choose_quant_params(-3.5f, 10.0f);
  EXPECT_GT(p.scale, 0.0f);
  EXPECT_GE(p.zero_point, 0);
  EXPECT_LE(p.zero_point, 255);
  // 0.0 must round-trip exactly (padding zeros, ReLU outputs).
  EXPECT_EQ(p.quantize(0.0f), p.zero_point);
  EXPECT_EQ(p.dequantize(p.quantize(0.0f)), 0.0f);
  // Endpoints land within half a step.
  EXPECT_NEAR(p.dequantize(p.quantize(-3.5f)), -3.5f, 0.5f * p.scale + 1e-6f);
  EXPECT_NEAR(p.dequantize(p.quantize(10.0f)), 10.0f, 0.5f * p.scale + 1e-6f);
}

TEST(QuantParamsTest, PositiveOnlyRangeWidensThroughZero) {
  // [2, 8] widens to [0, 8] so zero_point = 0 exactly.
  const QuantParams p = choose_quant_params(2.0f, 8.0f);
  EXPECT_EQ(p.zero_point, 0);
  EXPECT_EQ(p.quantize(0.0f), 0);
}

TEST(QuantParamsTest, DegenerateRangeIsIdentityish) {
  const QuantParams p = choose_quant_params(0.0f, 0.0f);
  EXPECT_EQ(p.scale, 1.0f);
  EXPECT_EQ(p.zero_point, 0);
}

TEST(QuantParamsTest, RoundTripErrorBoundedByHalfStep) {
  Rng rng(42);
  const QuantParams p = choose_quant_params(-2.0f, 6.0f);
  for (int i = 0; i < 1000; ++i) {
    const float x = static_cast<float>(rng.uniform(-2.0, 6.0));
    const float back = p.dequantize(p.quantize(x));
    EXPECT_NEAR(back, x, 0.5f * p.scale + 1e-6f);
  }
}

TEST(QuantizeTest, BulkMatchesScalarAndSaturates) {
  const QuantParams p = choose_quant_params(-1.0f, 1.0f);
  const std::vector<float> src = {-5.0f, -1.0f, -0.25f, 0.0f,
                                  0.25f, 1.0f,  5.0f};
  std::vector<std::uint8_t> q(src.size());
  quantize_u8(src.data(), static_cast<std::int64_t>(src.size()), p, q.data());
  for (std::size_t i = 0; i < src.size(); ++i) {
    EXPECT_EQ(q[i], p.quantize(src[i]));
  }
  EXPECT_EQ(q.front(), 0);    // saturates below
  EXPECT_EQ(q.back(), 255);   // saturates above
  const auto zp = static_cast<float>(p.zero_point);
  for (std::size_t i = 1; i + 1 < src.size(); ++i) {
    const float back = p.scale * (static_cast<float>(q[i]) - zp);
    EXPECT_NEAR(back, src[i], 0.5f * p.scale + 1e-6f);
  }
}

TEST(QuantizeTest, SymmetricWeightsStayInNarrowRangeAndRoundTrip) {
  Rng rng(7);
  const std::int64_t rows = 5, cols = 13;
  std::vector<float> w(static_cast<std::size_t>(rows * cols));
  for (float& v : w) v = static_cast<float>(rng.normal(0.0, 2.0));
  const QuantizedWeights q = quantize_weights_per_channel(w.data(), rows,
                                                          cols);
  ASSERT_TRUE(q.per_channel());
  ASSERT_EQ(q.scales.size(), static_cast<std::size_t>(rows));
  for (std::int64_t r = 0; r < rows; ++r) {
    const float scale = q.scales[static_cast<std::size_t>(r)];
    for (std::int64_t c = 0; c < cols; ++c) {
      const std::int8_t iq = q.data[static_cast<std::size_t>(r * cols + c)];
      EXPECT_GE(iq, -127);  // -128 is never produced
      EXPECT_LE(iq, 127);
      EXPECT_NEAR(scale * static_cast<float>(iq),
                  w[static_cast<std::size_t>(r * cols + c)],
                  0.5f * scale + 1e-6f);
    }
  }
}

TEST(QuantizeTest, PerChannelBeatsPerTensorOnDisparateRows) {
  // Row 0 has tiny weights, row 1 huge ones: a shared scale crushes row 0's
  // resolution; per-channel scales keep both rows accurate.
  const std::int64_t rows = 2, cols = 8;
  std::vector<float> w(static_cast<std::size_t>(rows * cols));
  Rng rng(3);
  for (std::int64_t c = 0; c < cols; ++c) {
    w[static_cast<std::size_t>(c)] =
        static_cast<float>(rng.uniform(-0.01, 0.01));
    w[static_cast<std::size_t>(cols + c)] =
        static_cast<float>(rng.uniform(-100.0, 100.0));
  }
  const QuantizedWeights per_channel =
      quantize_weights_per_channel(w.data(), rows, cols);
  const QuantizedWeights per_tensor =
      quantize_weights_per_tensor(w.data(), rows, cols);
  const auto row_error = [&](const QuantizedWeights& q, std::int64_t r) {
    double err = 0.0;
    const float scale = q.per_channel()
                            ? q.scales[static_cast<std::size_t>(r)]
                            : q.scales[0];
    for (std::int64_t c = 0; c < cols; ++c) {
      const std::size_t i = static_cast<std::size_t>(r * cols + c);
      err += std::abs(scale * static_cast<float>(q.data[i]) - w[i]);
    }
    return err;
  };
  EXPECT_LT(row_error(per_channel, 0), 0.1 * row_error(per_tensor, 0));
  // The big row is fine either way.
  EXPECT_NEAR(row_error(per_channel, 1), row_error(per_tensor, 1),
              row_error(per_channel, 1) + 1.0);
}

// --- qgemm ------------------------------------------------------------------

struct QgemmProblem {
  std::int64_t m, n, k;
  std::vector<std::int8_t> a;
  std::vector<float> a_scales;  // per-channel
  std::vector<std::uint8_t> b;
  QuantParams b_params;
  std::vector<float> bias;
};

QgemmProblem make_problem(std::int64_t m, std::int64_t n, std::int64_t k,
                          std::uint64_t seed) {
  QgemmProblem p;
  p.m = m;
  p.n = n;
  p.k = k;
  Rng rng(seed);
  p.a.resize(static_cast<std::size_t>(m * k));
  for (auto& v : p.a)
    v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  p.a_scales.resize(static_cast<std::size_t>(m));
  for (auto& s : p.a_scales) s = static_cast<float>(rng.uniform(0.001, 0.1));
  p.b.resize(static_cast<std::size_t>(k * n));
  for (auto& v : p.b)
    v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  p.b_params.scale = 0.05f;
  p.b_params.zero_point = 97;
  p.bias.resize(static_cast<std::size_t>(m));
  for (auto& v : p.bias) v = static_cast<float>(rng.normal(0.0, 1.0));
  return p;
}

TEST(QgemmTest, BlockedMatchesReferenceBitExact) {
  // Sizes spanning one partial band, exactly one band, and multiple bands
  // (kQBandRows = 64), with the fused bias+ReLU epilogue on.
  const std::int64_t sizes[][3] = {
      {1, 1, 1}, {7, 5, 3}, {64, 17, 9}, {130, 33, 27}, {200, 8, 150}};
  for (const auto& s : sizes) {
    const QgemmProblem p = make_problem(s[0], s[1], s[2], 1000 + s[0]);
    QuantEpilogue epilogue;
    epilogue.row_bias = p.bias.data();
    epilogue.relu = true;
    std::vector<float> blocked(static_cast<std::size_t>(p.m * p.n), -1.0f);
    std::vector<float> reference(static_cast<std::size_t>(p.m * p.n), -2.0f);
    qgemm(p.m, p.n, p.k, p.a.data(), p.k, p.a_scales.data(), p.m, p.b.data(),
          p.n, p.b_params, blocked.data(), p.n, epilogue);
    qgemm_reference(p.m, p.n, p.k, p.a.data(), p.k, p.a_scales.data(), p.m,
                    p.b.data(), p.n, p.b_params, reference.data(), p.n,
                    epilogue);
    EXPECT_EQ(std::memcmp(blocked.data(), reference.data(),
                          blocked.size() * sizeof(float)),
              0)
        << "m=" << p.m << " n=" << p.n << " k=" << p.k;
  }
}

TEST(QgemmTest, PerTensorScaleMatchesReference) {
  const QgemmProblem p = make_problem(70, 11, 20, 55);
  const float scale = 0.03f;
  std::vector<float> blocked(static_cast<std::size_t>(p.m * p.n));
  std::vector<float> reference(static_cast<std::size_t>(p.m * p.n));
  qgemm(p.m, p.n, p.k, p.a.data(), p.k, &scale, 1, p.b.data(), p.n,
        p.b_params, blocked.data(), p.n);
  qgemm_reference(p.m, p.n, p.k, p.a.data(), p.k, &scale, 1, p.b.data(),
                  p.n, p.b_params, reference.data(), p.n);
  EXPECT_EQ(std::memcmp(blocked.data(), reference.data(),
                        blocked.size() * sizeof(float)),
            0);
}

TEST(QgemmTest, KZeroRunsOnlyTheEpilogue) {
  const std::int64_t m = 3, n = 4;
  const float scale = 1.0f;
  const float bias[3] = {1.5f, -2.0f, 0.25f};
  QuantEpilogue epilogue;
  epilogue.row_bias = bias;
  epilogue.relu = true;
  std::vector<float> c(static_cast<std::size_t>(m * n), -9.0f);
  qgemm(m, n, 0, nullptr, 0, &scale, 1, nullptr, n, QuantParams{}, c.data(),
        n, epilogue);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      EXPECT_EQ(c[static_cast<std::size_t>(i * n + j)],
                std::max(bias[i], 0.0f));
    }
  }
}

TEST(QgemmTest, MatchesFloatGemmWithinQuantizationError) {
  // Quantize a random float problem, run qgemm, and compare against the
  // float product. The error budget follows from the per-element round-off:
  // each A[m,k]*B[k,n] term carries at most (|a|*eb + |b|*ea + ea*eb) with
  // ea <= a_scale/2, eb <= b_scale/2 — summed over k.
  Rng rng(99);
  const std::int64_t m = 24, n = 18, k = 40;
  std::vector<float> a(static_cast<std::size_t>(m * k));
  std::vector<float> b(static_cast<std::size_t>(k * n));
  for (auto& v : a) v = static_cast<float>(rng.normal(0.0, 1.0));
  for (auto& v : b) v = static_cast<float>(rng.uniform(-3.0, 3.0));

  const QuantizedWeights qa = quantize_weights_per_channel(a.data(), m, k);
  const QuantParams bp = choose_quant_params(-3.0f, 3.0f);
  std::vector<std::uint8_t> qb(b.size());
  quantize_u8(b.data(), static_cast<std::int64_t>(b.size()), bp, qb.data());

  std::vector<float> quantized(static_cast<std::size_t>(m * n));
  qgemm(qa, qb.data(), n, n, bp, quantized.data(), n);

  double max_abs_error = 0.0;
  double max_budget = 0.0;
  for (std::int64_t i = 0; i < m; ++i) {
    const double ea = 0.5 * qa.scales[static_cast<std::size_t>(i)];
    const double eb = 0.5 * bp.scale;
    for (std::int64_t j = 0; j < n; ++j) {
      double exact = 0.0;
      double budget = 0.0;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const double av = a[static_cast<std::size_t>(i * k + kk)];
        const double bv = b[static_cast<std::size_t>(kk * n + j)];
        exact += av * bv;
        budget += std::abs(av) * eb + std::abs(bv) * ea + ea * eb;
      }
      const double err = std::abs(
          quantized[static_cast<std::size_t>(i * n + j)] - exact);
      max_abs_error = std::max(max_abs_error, err);
      max_budget = std::max(max_budget, budget);
      EXPECT_LE(err, budget + 1e-4) << "at (" << i << ", " << j << ")";
    }
  }
  // The bound should not be vacuous: typical error is far below it.
  EXPECT_LT(max_abs_error, max_budget);
}

TEST(QgemmTest, OutputIsBitIdenticalAcrossThreadCounts) {
  const QgemmProblem p = make_problem(192, 21, 35, 2024);  // 3 bands
  QuantEpilogue epilogue;
  epilogue.row_bias = p.bias.data();
  const auto run_with = [&](int threads) {
    set_num_threads(threads);
    std::vector<float> c(static_cast<std::size_t>(p.m * p.n));
    qgemm(p.m, p.n, p.k, p.a.data(), p.k, p.a_scales.data(), p.m, p.b.data(),
          p.n, p.b_params, c.data(), p.n, epilogue);
    return c;
  };
  const std::vector<float> c1 = run_with(1);
  const std::vector<float> c4 = run_with(4);
  set_num_threads(1);
  EXPECT_EQ(std::memcmp(c1.data(), c4.data(), c1.size() * sizeof(float)), 0);
}

// --- Calibration ------------------------------------------------------------

TEST(CalibrationTest, ObserverTracksMinMax) {
  detect::RangeObserver observer;
  EXPECT_TRUE(observer.empty());
  const float chunk1[] = {1.0f, -2.0f, 3.0f};
  const float chunk2[] = {0.5f, 7.0f};
  observer.observe(chunk1, 3);
  observer.observe(chunk2, 2);
  EXPECT_EQ(observer.count(), 5);
  EXPECT_EQ(observer.min_value(), -2.0f);
  EXPECT_EQ(observer.max_value(), 7.0f);
  detect::CalibrationOptions options;  // kMinMax
  const auto [lo, hi] = observer.range(options);
  EXPECT_EQ(lo, -2.0f);
  EXPECT_EQ(hi, 7.0f);
}

TEST(CalibrationTest, PercentileClipsOutliers) {
  detect::RangeObserver observer;
  Rng rng(17);
  std::vector<float> values(20000);
  for (float& v : values) v = static_cast<float>(rng.normal(0.0, 1.0));
  values[123] = 1000.0f;   // outliers the clip should saturate
  values[4567] = -1000.0f;
  observer.observe(values.data(), static_cast<std::int64_t>(values.size()));

  detect::CalibrationOptions minmax;
  detect::CalibrationOptions clipped;
  clipped.method = detect::CalibrationMethod::kPercentile;
  clipped.percentile = 0.99;
  const auto [mlo, mhi] = observer.range(minmax);
  const auto [clo, chi] = observer.range(clipped);
  EXPECT_EQ(mlo, -1000.0f);
  EXPECT_EQ(mhi, 1000.0f);
  // The clipped range hugs the bulk of the normal distribution.
  EXPECT_GT(clo, -10.0f);
  EXPECT_LT(chi, 10.0f);
  EXPECT_LT(clo, 0.0f);
  EXPECT_GT(chi, 0.0f);
  // And the quantization step improves by orders of magnitude.
  const QuantParams wide = observer.quant_params(minmax);
  const QuantParams tight = observer.quant_params(clipped);
  EXPECT_LT(tight.scale, 0.01f * wide.scale);
}

TEST(CalibrationTest, ObserverIsChunkingInvariant) {
  // The decimation scheme depends only on the global element index, so
  // feeding values one at a time matches feeding them all at once.
  Rng rng(23);
  std::vector<float> values(5000);
  for (float& v : values) v = static_cast<float>(rng.normal(0.0, 2.0));
  detect::RangeObserver whole;
  whole.observe(values.data(), static_cast<std::int64_t>(values.size()));
  detect::RangeObserver pieces;
  for (const float& v : values) pieces.observe(&v, 1);
  detect::CalibrationOptions options;
  options.method = detect::CalibrationMethod::kPercentile;
  options.percentile = 0.95;
  const auto [wl, wh] = whole.range(options);
  const auto [pl, ph] = pieces.range(options);
  EXPECT_EQ(wl, pl);
  EXPECT_EQ(wh, ph);
}

TEST(CalibrationTest, SplitIsSeededSortedAndBounded) {
  const auto split = detect::calibration_split(100, 10, 77);
  ASSERT_EQ(split.size(), 10u);
  for (std::size_t i = 1; i < split.size(); ++i) {
    EXPECT_LT(split[i - 1], split[i]);  // sorted, unique
  }
  for (const std::int64_t idx : split) {
    EXPECT_GE(idx, 0);
    EXPECT_LT(idx, 100);
  }
  EXPECT_EQ(split, detect::calibration_split(100, 10, 77));
  EXPECT_NE(split, detect::calibration_split(100, 10, 78));
  // 0 (or oversized) requests select everything.
  const auto all = detect::calibration_split(6, 0, 1);
  ASSERT_EQ(all.size(), 6u);
  for (std::int64_t i = 0; i < 6; ++i) EXPECT_EQ(all[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(detect::calibration_split(6, 99, 1).size(), 6u);
}

// --- Quantized SPP-Net ------------------------------------------------------

geo::DatasetConfig tiny_dataset_config() {
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
  return config;
}

detect::SppNetConfig tiny_model_config() {
  return detect::parse_notation(
      "C_{6,3,1}-P_{2,2}-C_{8,3,1}-P_{2,2}-SPP_{2,1}-F_{24}", 4);
}

class QuantizedNetTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    set_log_level(LogLevel::kWarn);
    dataset_ = new geo::DrainageDataset(
        geo::DrainageDataset::synthesize(tiny_dataset_config()));
    split_ = new geo::Split(dataset_->split(0.8, 3));
    Rng rng(5);
    model_ = new detect::SppNet(tiny_model_config(), rng);
    detect::TrainConfig config;
    config.epochs = 8;
    config.verbose = false;
    (void)detect::train_detector(*model_, *dataset_, *split_, config);
    const auto indices = detect::calibration_split(
        static_cast<std::int64_t>(split_->train.size()), 8, 11);
    std::vector<std::size_t> picks;
    for (const std::int64_t i : indices) {
      picks.push_back(split_->train[static_cast<std::size_t>(i)]);
    }
    calibration_ = new Tensor(dataset_->make_batch(picks).images);
  }
  static void TearDownTestSuite() {
    delete calibration_;
    delete model_;
    delete split_;
    delete dataset_;
    calibration_ = nullptr;
    model_ = nullptr;
    split_ = nullptr;
    dataset_ = nullptr;
  }
  static geo::DrainageDataset* dataset_;
  static geo::Split* split_;
  static detect::SppNet* model_;
  static Tensor* calibration_;
};

geo::DrainageDataset* QuantizedNetTest::dataset_ = nullptr;
geo::Split* QuantizedNetTest::split_ = nullptr;
detect::SppNet* QuantizedNetTest::model_ = nullptr;
Tensor* QuantizedNetTest::calibration_ = nullptr;

TEST_F(QuantizedNetTest, ForwardTracksFloatModel) {
  const auto quantized = graph::quantize_sppnet(*model_, *calibration_);
  model_->set_training(false);
  const Tensor expected = model_->forward(*calibration_);
  const Tensor actual = quantized->forward(*calibration_);
  ASSERT_EQ(actual.shape().to_string(), expected.shape().to_string());
  double max_error = 0.0;
  double max_magnitude = 0.0;
  for (std::int64_t i = 0; i < expected.numel(); ++i) {
    max_error = std::max(
        max_error,
        static_cast<double>(std::abs(actual.data()[i] - expected.data()[i])));
    max_magnitude = std::max(
        max_magnitude, static_cast<double>(std::abs(expected.data()[i])));
  }
  // Quantization error accumulates through the layers but should stay a
  // small fraction of the output magnitude.
  EXPECT_LT(max_error, 0.15 * max_magnitude + 0.05);
}

TEST_F(QuantizedNetTest, AccuracyDropStaysWithinOnePoint) {
  const double float_ap =
      detect::evaluate_detector(*model_, *dataset_, split_->test)
          .average_precision;
  const auto quantized = graph::quantize_sppnet(*model_, *calibration_);
  const double int8_ap =
      detect::evaluate_detector(*quantized, *dataset_, split_->test)
          .average_precision;
  EXPECT_GT(float_ap, 0.5);  // the float model actually learned something
  EXPECT_GE(int8_ap, float_ap - 0.01);  // <= 1.0 AP point drop
}

TEST_F(QuantizedNetTest, ForwardIsBitIdenticalAcrossThreadCounts) {
  const auto quantized = graph::quantize_sppnet(*model_, *calibration_);
  set_num_threads(1);
  const Tensor once = quantized->forward(*calibration_);
  set_num_threads(4);
  const Tensor again = quantized->forward(*calibration_);
  set_num_threads(1);
  ASSERT_EQ(once.numel(), again.numel());
  EXPECT_EQ(std::memcmp(once.data(), again.data(),
                        static_cast<std::size_t>(once.numel()) *
                            sizeof(float)),
            0);
}

TEST_F(QuantizedNetTest, ReQuantizingReproducesBitIdenticalOutputs) {
  const auto first = graph::quantize_sppnet(*model_, *calibration_);
  const auto second = graph::quantize_sppnet(*model_, *calibration_);
  const Tensor a = first->forward(*calibration_);
  const Tensor b = second->forward(*calibration_);
  ASSERT_EQ(a.numel(), b.numel());
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<std::size_t>(a.numel()) * sizeof(float)),
            0);
}

TEST_F(QuantizedNetTest, BackwardThrows) {
  const auto quantized = graph::quantize_sppnet(*model_, *calibration_);
  EXPECT_THROW(quantized->backward(*calibration_), Error);
}

// --- Precision-aware kernels, cost model, schedules -------------------------

TEST(PrecisionTest, NamesRoundTrip) {
  EXPECT_STREQ(simgpu::precision_name(simgpu::Precision::kFp32), "fp32");
  EXPECT_STREQ(simgpu::precision_name(simgpu::Precision::kInt8), "int8");
  EXPECT_EQ(simgpu::precision_from_name("fp32"), simgpu::Precision::kFp32);
  EXPECT_EQ(simgpu::precision_from_name("int8"), simgpu::Precision::kInt8);
  EXPECT_THROW(simgpu::precision_from_name("fp16"), ConfigError);
}

TEST(PrecisionTest, Int8DescriptorsCarryQuarterBytesSameFlops) {
  const graph::Graph g =
      graph::build_inference_graph(detect::original_sppnet(), 40);
  bool checked_conv = false;
  for (const graph::OpId id : g.topological_order()) {
    if (!simgpu::is_device_op(g.node(id).kind)) continue;
    const simgpu::KernelDesc fp32 = simgpu::make_kernel_desc(g, id);
    const simgpu::KernelDesc int8 =
        simgpu::make_kernel_desc(g, id, simgpu::Precision::kInt8);
    EXPECT_EQ(int8.precision, simgpu::Precision::kInt8);
    EXPECT_EQ(int8.flops_per_sample, fp32.flops_per_sample);
    EXPECT_EQ(int8.activation_bytes_per_sample,
              0.25 * fp32.activation_bytes_per_sample);
    EXPECT_EQ(int8.weight_bytes, 0.25 * fp32.weight_bytes);
    if (fp32.category == profiler::KernelCategory::kConv &&
        fp32.weight_bytes > 0.0) {
      checked_conv = true;
      EXPECT_TRUE(simgpu::int8_compute_eligible(fp32.category));
    }
  }
  EXPECT_TRUE(checked_conv);
}

TEST(PrecisionTest, Int8InferenceIsFasterOnTheSimulatedDevice) {
  const graph::Graph g =
      graph::build_inference_graph(detect::original_sppnet(), 100);
  const auto spec = simgpu::a5500_spec();
  const ios::Schedule schedule = ios::optimize_schedule(g, spec);
  simgpu::Device fp32_device(spec);
  simgpu::Device int8_device(spec);
  const double fp32_latency =
      ios::measure_latency(g, schedule, fp32_device, 1);
  const double int8_latency = ios::measure_latency(
      g, schedule, int8_device, 1, 1, 3, simgpu::Precision::kInt8);
  EXPECT_GT(fp32_latency, 0.0);
  EXPECT_GT(int8_latency, 0.0);
  // The acceptance floor (>= 1.5x) is asserted by bench_quant on the
  // selected model; here we pin a conservative version of it.
  EXPECT_GE(fp32_latency / int8_latency, 1.5);
}

TEST(PrecisionTest, ScheduleCostDependsOnPrecision) {
  const graph::Graph g =
      graph::build_inference_graph(detect::sppnet_candidate1(), 40);
  const auto spec = simgpu::a5500_spec();
  const ios::Schedule schedule = ios::optimize_schedule(g, spec);
  ios::ScheduleCache::global().set_enabled(false);
  const double fp32_cost = ios::schedule_cost(g, spec, schedule, 4);
  const double int8_cost = ios::schedule_cost(g, spec, schedule, 4,
                                              simgpu::Precision::kInt8);
  ios::ScheduleCache::global().set_enabled(true);
  EXPECT_LT(int8_cost, fp32_cost);
}

// --- Schedule-cache precision keys (regression: cross-precision collision) --

TEST(CacheKeyTest, CostKeysDifferByPrecision) {
  const graph::Graph g =
      graph::build_inference_graph(detect::sppnet_candidate2(), 40);
  const auto spec = simgpu::a5500_spec();
  const ios::Schedule schedule = ios::optimize_schedule(g, spec);
  const std::string fp32_key = ios::cost_cache_key(g, spec, schedule, 4);
  const std::string int8_key =
      ios::cost_cache_key(g, spec, schedule, 4, simgpu::Precision::kInt8);
  EXPECT_NE(fp32_key, int8_key);
}

TEST(CacheKeyTest, BlockKeysDifferByPrecision) {
  const graph::Graph g =
      graph::build_inference_graph(detect::sppnet_candidate2(), 40);
  const auto spec = simgpu::a5500_spec();
  std::vector<graph::OpId> ops;
  for (const graph::OpId id : g.topological_order()) {
    if (simgpu::is_device_op(g.node(id).kind)) ops.push_back(id);
  }
  ios::IosOptions fp32_options;
  ios::IosOptions int8_options;
  int8_options.precision = simgpu::Precision::kInt8;
  EXPECT_NE(ios::block_cache_key(g, ops, spec, fp32_options),
            ios::block_cache_key(g, ops, spec, int8_options));
}

TEST(CacheKeyTest, CachedCostSurvivesCrossPrecisionInterleaving) {
  // The original bug: an int8 evaluation warming the cache must not poison
  // a later fp32 lookup of the same schedule (and vice versa).
  const graph::Graph g =
      graph::build_inference_graph(detect::sppnet_candidate3(), 40);
  const auto spec = simgpu::a5500_spec();
  const ios::Schedule schedule = ios::optimize_schedule(g, spec);
  auto& cache = ios::ScheduleCache::global();

  cache.set_enabled(false);
  const double uncached_fp32 = ios::schedule_cost(g, spec, schedule, 2);
  const double uncached_int8 =
      ios::schedule_cost(g, spec, schedule, 2, simgpu::Precision::kInt8);
  cache.set_enabled(true);
  cache.clear();

  // Warm the cache with int8 first, then read fp32 (and the reverse).
  const double int8_first =
      ios::schedule_cost(g, spec, schedule, 2, simgpu::Precision::kInt8);
  const double fp32_after_int8 = ios::schedule_cost(g, spec, schedule, 2);
  const double int8_again =
      ios::schedule_cost(g, spec, schedule, 2, simgpu::Precision::kInt8);
  EXPECT_EQ(fp32_after_int8, uncached_fp32);
  EXPECT_EQ(int8_first, uncached_int8);
  EXPECT_EQ(int8_again, uncached_int8);
  cache.clear();
}

// --- Precision-expanded selection -------------------------------------------

nas::PrecisionCandidate make_candidate(int index, simgpu::Precision precision,
                                       double ap, double throughput) {
  nas::PrecisionCandidate c;
  c.trial.index = index;
  c.precision = precision;
  c.metrics.average_precision = ap;
  c.metrics.throughput = throughput;
  c.metrics.optimized_latency = 1.0 / throughput;
  return c;
}

TEST(SelectionTest, ConstraintFlipsWinnerBetweenPrecisions) {
  // int8 is 3x faster but costs 0.08 AP. Whether it wins depends only on
  // where the constraint sits.
  const std::vector<nas::PrecisionCandidate> candidates = {
      make_candidate(0, simgpu::Precision::kFp32, 0.90, 100.0),
      make_candidate(0, simgpu::Precision::kInt8, 0.82, 300.0),
  };
  const auto relaxed = nas::select_constrained_precision(candidates, 0.80);
  ASSERT_TRUE(relaxed.has_value());
  EXPECT_EQ(relaxed->precision, simgpu::Precision::kInt8);

  const auto strict = nas::select_constrained_precision(candidates, 0.85);
  ASSERT_TRUE(strict.has_value());
  EXPECT_EQ(strict->precision, simgpu::Precision::kFp32);

  EXPECT_FALSE(nas::select_constrained_precision(candidates, 0.95)
                   .has_value());
}

TEST(SelectionTest, ExpandPrecisionsSkipsFailuresAndFailedTrials) {
  nas::TrialDatabase db;
  nas::Trial good;
  good.index = 0;
  good.metrics.average_precision = 0.9;
  good.metrics.throughput = 50.0;
  db.add(good);
  nas::Trial unquantizable;
  unquantizable.index = 1;
  unquantizable.metrics.average_precision = 0.8;
  unquantizable.metrics.throughput = 60.0;
  db.add(unquantizable);
  nas::Trial failed;
  failed.index = 2;
  failed.status = nas::TrialStatus::kFailed;
  db.add(failed);

  const auto candidates = nas::expand_precisions(db, [](const nas::Trial& t) {
    if (t.index == 1) throw Error("calibration failed");
    nas::TrialMetrics metrics = t.metrics;
    metrics.average_precision -= 0.01;
    metrics.throughput *= 3.0;
    return metrics;
  });
  // trial 0 -> fp32 + int8; trial 1 -> fp32 only; trial 2 -> dropped.
  ASSERT_EQ(candidates.size(), 3u);
  EXPECT_EQ(candidates[0].trial.index, 0);
  EXPECT_EQ(candidates[0].precision, simgpu::Precision::kFp32);
  EXPECT_EQ(candidates[1].trial.index, 0);
  EXPECT_EQ(candidates[1].precision, simgpu::Precision::kInt8);
  EXPECT_DOUBLE_EQ(candidates[1].metrics.throughput, 150.0);
  EXPECT_EQ(candidates[2].trial.index, 1);
  EXPECT_EQ(candidates[2].precision, simgpu::Precision::kFp32);
}

TEST(SelectionTest, CsvRecordsPrecisionAndSelection) {
  const std::vector<nas::PrecisionCandidate> candidates = {
      make_candidate(0, simgpu::Precision::kFp32, 0.90, 100.0),
      make_candidate(0, simgpu::Precision::kInt8, 0.82, 300.0),
  };
  const auto selected = nas::select_constrained_precision(candidates, 0.8);
  const std::string csv =
      nas::precision_selection_csv(candidates, selected);
  EXPECT_NE(csv.find("trial,precision,average_precision"), std::string::npos);
  EXPECT_NE(csv.find("0,fp32,0.9000"), std::string::npos);
  EXPECT_NE(csv.find("0,int8,0.8200"), std::string::npos);
  // Exactly one row is flagged selected, and it is the int8 one.
  EXPECT_EQ(csv.find(",1\n"), csv.rfind(",1\n"));
  const std::size_t int8_row = csv.find("0,int8");
  ASSERT_NE(int8_row, std::string::npos);
  EXPECT_NE(csv.find(",1\n", int8_row), std::string::npos);
}

// --- Precision-configurable serving -----------------------------------------

TEST(ServePrecisionTest, ReplicaPrecisionLengthMismatchThrows) {
  const graph::Graph g =
      graph::build_inference_graph(detect::sppnet_candidate2(), 40);
  const auto spec = simgpu::a5500_spec();
  const ios::Schedule schedule = ios::optimize_schedule(g, spec);
  serve::ServerConfig config;
  config.replicas = 2;
  config.device = spec;
  config.replica_precisions = {simgpu::Precision::kInt8};  // wrong length
  EXPECT_THROW(serve::Server(g, schedule, config), ConfigError);
}

TEST(ServePrecisionTest, Int8FleetServesFasterThanFp32) {
  const graph::Graph g =
      graph::build_inference_graph(detect::sppnet_candidate2(), 64);
  const auto spec = simgpu::a5500_spec();
  ios::IosOptions options;
  options.batch = 4;
  const ios::Schedule schedule = ios::optimize_schedule(g, spec, options);

  serve::TrafficConfig traffic;
  traffic.seed = 5;
  traffic.duration = 1.0;
  traffic.rate = 300.0;
  traffic.burst_factor = 1.0;
  const auto trace = serve::generate_trace(traffic);

  const auto run_at = [&](simgpu::Precision precision) {
    serve::ServerConfig config;
    config.batch = {4, 2.0e-3};
    config.device = spec;
    config.precision = precision;
    serve::Server server(g, schedule, config);
    return server.serve(trace);
  };
  const serve::ServingReport fp32 = run_at(simgpu::Precision::kFp32);
  const serve::ServingReport int8 = run_at(simgpu::Precision::kInt8);
  EXPECT_GT(fp32.completed, 0);
  EXPECT_GT(int8.completed, 0);
  EXPECT_GE(int8.completed, fp32.completed);
  EXPECT_LT(int8.p50, fp32.p50);
}

TEST(ServePrecisionTest, MixedFleetRunsAndRecordsAllRequests) {
  const graph::Graph g =
      graph::build_inference_graph(detect::sppnet_candidate2(), 40);
  const auto spec = simgpu::a5500_spec();
  const ios::Schedule schedule = ios::optimize_schedule(g, spec);

  serve::TrafficConfig traffic;
  traffic.seed = 9;
  traffic.duration = 0.5;
  traffic.rate = 200.0;
  const auto trace = serve::generate_trace(traffic);

  serve::ServerConfig config;
  config.batch = {4, 2.0e-3};
  config.device = spec;
  config.replicas = 2;
  config.replica_precisions = {simgpu::Precision::kFp32,
                               simgpu::Precision::kInt8};
  serve::Server server(g, schedule, config);
  const serve::ServingReport report = server.serve(trace);
  EXPECT_EQ(report.offered, static_cast<std::int64_t>(trace.size()));
  EXPECT_EQ(report.admitted,
            report.completed + report.deadline_expired + report.failed);
  EXPECT_GT(report.completed, 0);
}

}  // namespace
}  // namespace dcn
