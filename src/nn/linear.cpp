#include "nn/linear.hpp"

#include "core/error.hpp"
#include "nn/init.hpp"
#include "tensor/gemm.hpp"

namespace dcn {

Tensor linear_forward(const Tensor& input, const Tensor& weight,
                      const float* bias, bool relu) {
  const std::int64_t batch = input.dim(0);
  const std::int64_t out_f = weight.dim(0);
  const std::int64_t in_f = weight.dim(1);
  Tensor output(Shape{batch, out_f});
  // y[N, out] = x[N, in] * W[out, in]^T + b, the per-feature bias (and a
  // fused ReLU) in the GEMM's epilogue instead of a second sweep.
  GemmEpilogue epilogue;
  epilogue.col_bias = bias;
  epilogue.relu = relu;
  sgemm_ex(false, true, batch, out_f, in_f, 1.0f, input.data(), in_f,
           weight.data(), in_f, 0.0f, output.data(), out_f, epilogue);
  return output;
}

Linear::Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng)
    : in_features_(in_features),
      out_features_(out_features),
      weight_(Shape{out_features, in_features}),
      bias_(Shape{out_features}),
      weight_grad_(weight_.shape()),
      bias_grad_(bias_.shape()) {
  DCN_CHECK(in_features > 0 && out_features > 0) << "linear features";
  kaiming_normal(weight_, in_features, rng);
  bias_.zero();
}

Tensor Linear::forward(const Tensor& input) {
  DCN_CHECK(input.rank() == 2) << "Linear expects [N, in], got "
                               << input.shape().to_string();
  DCN_CHECK(input.dim(1) == in_features_)
      << "Linear in_features " << input.dim(1) << " != " << in_features_;
  Tensor output = linear_forward(input, weight_, bias_.data());
  cached_input_ = input;
  has_cached_input_ = true;
  return output;
}

Tensor Linear::backward(const Tensor& grad_output) {
  DCN_CHECK(has_cached_input_) << "Linear::backward without forward";
  const std::int64_t batch = cached_input_.dim(0);
  DCN_CHECK(grad_output.shape() == Shape({batch, out_features_}))
      << "Linear grad shape " << grad_output.shape().to_string();
  // grad_W[out, in] += go[N, out]^T * x[N, in]
  sgemm(true, false, out_features_, in_features_, batch, 1.0f,
        grad_output.data(), out_features_, cached_input_.data(), in_features_,
        1.0f, weight_grad_.data(), in_features_);
  // grad_b[out] += column sums of go
  for (std::int64_t n = 0; n < batch; ++n) {
    const float* row = grad_output.data() + n * out_features_;
    for (std::int64_t o = 0; o < out_features_; ++o) bias_grad_[o] += row[o];
  }
  // grad_x[N, in] = go[N, out] * W[out, in]
  Tensor grad_input(cached_input_.shape());
  matmul(false, false, batch, in_features_, out_features_, grad_output.data(),
         weight_.data(), grad_input.data());
  return grad_input;
}

std::vector<ParamRef> Linear::parameters() {
  return {{"weight", &weight_, &weight_grad_},
          {"bias", &bias_, &bias_grad_}};
}

}  // namespace dcn
