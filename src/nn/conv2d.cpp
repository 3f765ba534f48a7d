#include "nn/conv2d.hpp"

#include <algorithm>
#include <utility>

#include "core/error.hpp"
#include "core/parallel.hpp"
#include "nn/init.hpp"
#include "tensor/gemm.hpp"
#include "tensor/workspace.hpp"

namespace dcn {
namespace {

// Backward accumulates weight/bias gradients into this many per-chunk
// partial buffers, reduced in chunk order. The chunk partition depends only
// on the batch size — never on the thread count — so training results are
// bit-identical at any jobs setting (DESIGN.md "Tensor-engine threading
// model"). run_compute_tasks only changes which thread executes a chunk.
constexpr std::int64_t kGradChunks = 8;

}  // namespace

Tensor conv2d_forward(const Tensor& input, const Tensor& weight,
                      const float* bias, std::int64_t stride,
                      std::int64_t padding, bool relu) {
  const std::int64_t batch = input.dim(0);
  const std::int64_t out_c = weight.dim(0);
  ConvGeometry g;
  g.channels = input.dim(1);
  g.height = input.dim(2);
  g.width = input.dim(3);
  g.kernel_h = weight.dim(2);
  g.kernel_w = weight.dim(3);
  g.stride_h = g.stride_w = stride;
  g.pad_h = g.pad_w = padding;
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  DCN_CHECK(oh > 0 && ow > 0) << "Conv2d output would be empty for input "
                              << input.shape().to_string();
  const std::int64_t k = g.channels * g.kernel_h * g.kernel_w;
  const std::int64_t ohw = oh * ow;

  Tensor output(Shape{batch, out_c, oh, ow});
  const std::int64_t in_stride = g.channels * g.height * g.width;
  const std::int64_t out_stride = out_c * ohw;
  // The per-channel bias (and a fused ReLU) rides the GEMM's epilogue
  // instead of a separate sweep over the output.
  GemmEpilogue epilogue;
  epilogue.row_bias = bias;
  epilogue.relu = relu;
  // Samples are independent (disjoint output).
  for_each_sample(batch, [&](std::int64_t n) {
    Workspace& ws = Workspace::tls();
    Workspace::Scope scope(ws);
    float* col = ws.floats(static_cast<std::size_t>(k * ohw));
    im2col(input.data() + n * in_stride, g, col);
    // output[oc, ohw] = weight[oc, k] * col[k, ohw] + bias[oc]
    sgemm_ex(false, false, out_c, ohw, k, 1.0f, weight.data(), k, col, ohw,
             0.0f, output.data() + n * out_stride, ohw, epilogue);
  });
  return output;
}

Conv2d::Conv2d(std::int64_t in_channels, std::int64_t out_channels,
               std::int64_t kernel_size, std::int64_t stride,
               std::int64_t padding, Rng& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_size_(kernel_size),
      stride_(stride),
      padding_(padding),
      weight_(Shape{out_channels, in_channels, kernel_size, kernel_size}),
      bias_(Shape{out_channels}),
      weight_grad_(weight_.shape()),
      bias_grad_(bias_.shape()) {
  DCN_CHECK(in_channels > 0 && out_channels > 0) << "conv channels";
  DCN_CHECK(kernel_size > 0 && stride > 0 && padding >= 0) << "conv geometry";
  kaiming_normal(weight_, in_channels * kernel_size * kernel_size, rng);
  bias_.zero();
}

Conv2d::Conv2d(std::int64_t in_channels, std::int64_t out_channels,
               std::int64_t kernel_size, std::int64_t stride, Rng& rng)
    : Conv2d(in_channels, out_channels, kernel_size, stride, kernel_size / 2,
             rng) {}

ConvGeometry Conv2d::geometry(std::int64_t h, std::int64_t w) const {
  ConvGeometry g;
  g.channels = in_channels_;
  g.height = h;
  g.width = w;
  g.kernel_h = g.kernel_w = kernel_size_;
  g.stride_h = g.stride_w = stride_;
  g.pad_h = g.pad_w = padding_;
  return g;
}

std::pair<std::int64_t, std::int64_t> Conv2d::output_hw(std::int64_t h,
                                                        std::int64_t w) const {
  const ConvGeometry g = geometry(h, w);
  return {g.out_h(), g.out_w()};
}

Tensor Conv2d::forward(const Tensor& input) {
  DCN_CHECK(input.rank() == 4) << "Conv2d expects NCHW, got "
                               << input.shape().to_string();
  DCN_CHECK(input.dim(1) == in_channels_)
      << "Conv2d channels " << input.dim(1) << " != " << in_channels_;
  Tensor output =
      conv2d_forward(input, weight_, bias_.data(), stride_, padding_);
  cached_input_ = input;
  has_cached_input_ = true;
  return output;
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  DCN_CHECK(has_cached_input_) << "Conv2d::backward without forward";
  const Tensor& input = cached_input_;
  const std::int64_t batch = input.dim(0);
  const std::int64_t h = input.dim(2);
  const std::int64_t w = input.dim(3);
  const ConvGeometry g = geometry(h, w);
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  const std::int64_t ohw = oh * ow;
  const std::int64_t k = in_channels_ * kernel_size_ * kernel_size_;
  DCN_CHECK(grad_output.shape() ==
            Shape({batch, out_channels_, oh, ow}))
      << "Conv2d grad shape " << grad_output.shape().to_string();

  Tensor grad_input(input.shape());
  const std::int64_t in_stride = in_channels_ * h * w;
  const std::int64_t out_stride = out_channels_ * ohw;

  // Per-chunk partial buffers for the shared weight/bias gradients (the
  // grad_input rows are per-sample disjoint and need none). Member scratch
  // so steady-state training reuses one allocation.
  const std::int64_t chunks = std::min<std::int64_t>(kGradChunks, batch);
  const std::int64_t wsize = out_channels_ * k;
  const std::int64_t chunk_floats = wsize + out_channels_;
  grad_scratch_.assign(static_cast<std::size_t>(chunks * chunk_floats), 0.0f);

  const auto run_chunk = [&](int c) {
    const auto [lo, hi] = chunk_range(batch, chunks, c);
    float* wg = grad_scratch_.data() + c * chunk_floats;
    float* bg = wg + wsize;
    Workspace& ws = Workspace::tls();
    Workspace::Scope scope(ws);
    float* col = ws.floats(static_cast<std::size_t>(k * ohw));
    float* col_grad = ws.floats(static_cast<std::size_t>(k * ohw));
    for (std::int64_t n = lo; n < hi; ++n) {
      const float* go = grad_output.data() + n * out_stride;
      // Recompute the column matrix (cheaper than caching it per batch).
      im2col(input.data() + n * in_stride, g, col);
      // chunk grad_w[oc, k] += go[oc, ohw] * col[k, ohw]^T
      sgemm(false, true, out_channels_, k, ohw, 1.0f, go, ohw, col, ohw,
            1.0f, wg, k);
      // grad_col[k, ohw] = weight[oc, k]^T * go[oc, ohw]
      sgemm(true, false, k, ohw, out_channels_, 1.0f, weight_.data(), k, go,
            ohw, 0.0f, col_grad, ohw);
      col2im(col_grad, g, grad_input.data() + n * in_stride);
      // chunk grad_b[oc] += sum over spatial of go
      for (std::int64_t oc = 0; oc < out_channels_; ++oc) {
        double acc = 0.0;
        const float* row = go + oc * ohw;
        for (std::int64_t i = 0; i < ohw; ++i) acc += row[i];
        bg[oc] += static_cast<float>(acc);
      }
    }
  };
  run_compute_tasks(static_cast<int>(chunks), run_chunk);

  // Reduce the partials in fixed chunk order into the shared gradients.
  for (std::int64_t c = 0; c < chunks; ++c) {
    const float* __restrict wg = grad_scratch_.data() + c * chunk_floats;
    const float* __restrict bg = wg + wsize;
    float* __restrict wdst = weight_grad_.data();
    for (std::int64_t i = 0; i < wsize; ++i) wdst[i] += wg[i];
    for (std::int64_t oc = 0; oc < out_channels_; ++oc) {
      bias_grad_[oc] += bg[oc];
    }
  }
  return grad_input;
}

std::vector<ParamRef> Conv2d::parameters() {
  return {{"weight", &weight_, &weight_grad_},
          {"bias", &bias_, &bias_grad_}};
}

}  // namespace dcn
