// Fully-connected layer (paper's F_{neurons}).
#pragma once

#include "nn/module.hpp"

namespace dcn {

class Rng;

/// y = x W^T + b for x [N, in] and `weight` [out, in], shared by Linear and
/// the graph executor: one GEMM whose epilogue adds the per-feature `bias`
/// (and, when `relu`, applies max(y, 0) in the same store).
Tensor linear_forward(const Tensor& input, const Tensor& weight,
                      const float* bias, bool relu = false);

/// y = x W^T + b over rank-2 inputs [N, in_features].
class Linear : public Module {
 public:
  Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<ParamRef> parameters() override;
  std::string name() const override { return "Linear"; }

  std::int64_t in_features() const { return in_features_; }
  std::int64_t out_features() const { return out_features_; }

  Tensor& weight() { return weight_; }
  Tensor& bias() { return bias_; }

 private:
  std::int64_t in_features_;
  std::int64_t out_features_;
  Tensor weight_;       // [out, in]
  Tensor bias_;         // [out]
  Tensor weight_grad_;
  Tensor bias_grad_;
  Tensor cached_input_;
  bool has_cached_input_ = false;
};

}  // namespace dcn
