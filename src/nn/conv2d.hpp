// 2-D convolution layer (NCHW), lowered onto im2col + GEMM.
#pragma once

#include "nn/module.hpp"
#include "tensor/im2col.hpp"

namespace dcn {

class Rng;

/// The conv forward over NCHW `input` with a [out_c, in_c, k, k] `weight`,
/// shared by Conv2d and the graph executor: per sample, im2col then one
/// GEMM whose epilogue adds the per-channel `bias` (and, when `relu`,
/// applies max(x, 0) in the same store); samples run via for_each_sample.
Tensor conv2d_forward(const Tensor& input, const Tensor& weight,
                      const float* bias, std::int64_t stride,
                      std::int64_t padding, bool relu = false);

/// Convolution over NCHW inputs. Matches the paper's C_{filters,size,stride}
/// notation; padding defaults to "same-ish" (kernel/2) like the reference
/// implementation so spatial size is preserved for stride 1.
class Conv2d : public Module {
 public:
  Conv2d(std::int64_t in_channels, std::int64_t out_channels,
         std::int64_t kernel_size, std::int64_t stride, std::int64_t padding,
         Rng& rng);

  /// Convenience: padding = kernel_size / 2.
  Conv2d(std::int64_t in_channels, std::int64_t out_channels,
         std::int64_t kernel_size, std::int64_t stride, Rng& rng);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<ParamRef> parameters() override;
  std::string name() const override { return "Conv2d"; }

  /// Output spatial size for a given input height/width.
  std::pair<std::int64_t, std::int64_t> output_hw(std::int64_t h,
                                                  std::int64_t w) const;

  std::int64_t in_channels() const { return in_channels_; }
  std::int64_t out_channels() const { return out_channels_; }
  std::int64_t kernel_size() const { return kernel_size_; }
  std::int64_t stride() const { return stride_; }
  std::int64_t padding() const { return padding_; }

  Tensor& weight() { return weight_; }
  Tensor& bias() { return bias_; }

 private:
  ConvGeometry geometry(std::int64_t h, std::int64_t w) const;

  std::int64_t in_channels_;
  std::int64_t out_channels_;
  std::int64_t kernel_size_;
  std::int64_t stride_;
  std::int64_t padding_;

  Tensor weight_;       // [out_c, in_c, k, k]
  Tensor bias_;         // [out_c]
  Tensor weight_grad_;  // same shape as weight_
  Tensor bias_grad_;    // same shape as bias_

  // Per-chunk weight/bias gradient partials for the deterministic parallel
  // backward pass; retained between steps to avoid per-call allocation.
  std::vector<float> grad_scratch_;

  Tensor cached_input_;  // saved by forward for the backward pass
  bool has_cached_input_ = false;
};

}  // namespace dcn
