#include "graph/numeric.hpp"

#include <algorithm>
#include <utility>

#include "core/error.hpp"
#include "core/parallel.hpp"
#include "graph/builder.hpp"
#include "graph/passes.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pool.hpp"
#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"
#include "tensor/qgemm.hpp"
#include "tensor/workspace.hpp"

namespace dcn::graph {
namespace {

bool is_conv_kind(OpKind kind) {
  return kind == OpKind::kConv2d || kind == OpKind::kFusedConvReLU;
}

bool is_linear_kind(OpKind kind) {
  return kind == OpKind::kLinear || kind == OpKind::kFusedLinearReLU;
}

// The standalone ReLU node must agree bit-for-bit with the fused stores:
// GemmEpilogue computes `v < 0 ? 0 : v` and QuantEpilogue `max(x, 0)`, both
// of which pass -0.0 through unchanged — so this must too, or a fused graph
// and its unfused twin would diverge on negative zeros.
void relu_exact(const float* src, std::int64_t n, float* dst) {
  for (std::int64_t i = 0; i < n; ++i) {
    const float v = src[i];
    dst[i] = v < 0.0f ? 0.0f : v;
  }
}

ConvGeometry conv_geometry(const OpNode& node, const Tensor& x) {
  ConvGeometry g;
  g.channels = x.dim(1);
  g.height = x.dim(2);
  g.width = x.dim(3);
  g.kernel_h = g.kernel_w = node.attrs.kernel;
  g.stride_h = g.stride_w = node.attrs.stride;
  g.pad_h = g.pad_w = node.attrs.padding;
  return g;
}

// Batch-parallel sample loop shared by the conv paths; identical to
// Conv2d::forward's partition so thread count never changes what a sample
// computes.
void for_each_sample(std::int64_t batch,
                     const std::function<void(std::int64_t)>& run_sample) {
  const int tasks =
      static_cast<int>(std::min<std::int64_t>(compute_threads(), batch));
  if (tasks <= 1) {
    for (std::int64_t n = 0; n < batch; ++n) run_sample(n);
  } else {
    run_compute_tasks(tasks, [&](int t) {
      const auto [lo, hi] = chunk_range(batch, tasks, t);
      for (std::int64_t n = lo; n < hi; ++n) run_sample(n);
    });
  }
}

Tensor run_conv_fp32(const OpNode& node, const Tensor& x,
                     const Tensor& weight, const Tensor& bias, bool fused) {
  const std::int64_t batch = x.dim(0);
  const ConvGeometry g = conv_geometry(node, x);
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  const std::int64_t out_c = node.attrs.out_channels;
  const std::int64_t k = g.channels * g.kernel_h * g.kernel_w;
  const std::int64_t ohw = oh * ow;
  Tensor out(Shape{batch, out_c, oh, ow});
  const std::int64_t in_stride = g.channels * g.height * g.width;
  const std::int64_t out_stride = out_c * ohw;
  GemmEpilogue epilogue;
  epilogue.row_bias = bias.data();
  epilogue.relu = fused;  // FusedConvReLU: the ReLU rides the C-tile store
  for_each_sample(batch, [&](std::int64_t n) {
    Workspace& ws = Workspace::tls();
    Workspace::Scope scope(ws);
    float* col = ws.floats(static_cast<std::size_t>(k * ohw));
    im2col(x.data() + n * in_stride, g, col);
    sgemm_ex(false, false, out_c, ohw, k, 1.0f, weight.data(), k, col, ohw,
             0.0f, out.data() + n * out_stride, ohw, epilogue);
  });
  return out;
}

Tensor run_conv_int8(const OpNode& node, const Tensor& x,
                     const QuantizedWeights& weights, const float* bias,
                     const QuantParams& input_params, bool fused) {
  const std::int64_t batch = x.dim(0);
  const ConvGeometry g = conv_geometry(node, x);
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  const std::int64_t out_c = weights.rows;
  const std::int64_t k = weights.cols;
  const std::int64_t ohw = oh * ow;
  Tensor out(Shape{batch, out_c, oh, ow});
  const std::int64_t in_stride = g.channels * g.height * g.width;
  const std::int64_t out_stride = out_c * ohw;
  QuantEpilogue epilogue;
  epilogue.row_bias = bias;
  epilogue.relu = fused;
  for_each_sample(batch, [&](std::int64_t n) {
    Workspace& ws = Workspace::tls();
    Workspace::Scope scope(ws);
    // im2col in float, then quantize the columns — padding taps lower to
    // exact 0.0f, which hits the integer zero point exactly.
    float* col = ws.floats(static_cast<std::size_t>(k * ohw));
    im2col(x.data() + n * in_stride, g, col);
    std::uint8_t* qcol = ws.bytes(static_cast<std::size_t>(k * ohw));
    quantize_u8(col, k * ohw, input_params, qcol);
    qgemm(weights, qcol, ohw, ohw, input_params,
          out.data() + n * out_stride, ohw, epilogue);
  });
  return out;
}

Tensor run_linear_fp32(const Tensor& x, const Tensor& weight,
                       const Tensor& bias, bool fused) {
  const std::int64_t batch = x.dim(0);
  const std::int64_t out_f = weight.dim(0);
  const std::int64_t in_f = weight.dim(1);
  Tensor out(Shape{batch, out_f});
  GemmEpilogue epilogue;
  epilogue.col_bias = bias.data();
  epilogue.relu = fused;
  sgemm_ex(false, true, batch, out_f, in_f, 1.0f, x.data(), in_f,
           weight.data(), in_f, 0.0f, out.data(), out_f, epilogue);
  return out;
}

Tensor run_linear_int8(const Tensor& x, const QuantizedWeights& weights,
                       const float* bias, const QuantParams& input_params,
                       bool fused) {
  const std::int64_t n = x.dim(0);
  const std::int64_t features = weights.cols;
  const std::int64_t out = weights.rows;
  Tensor output(Shape{n, out});
  Workspace& ws = Workspace::tls();
  Workspace::Scope scope(ws);
  // y^T[out, n] = W[out, f] x^T[f, n]: quantize the input, transpose it into
  // the activations-on-the-right orientation, and transpose the result back.
  // The bias is per output feature — a per-row bias of the transposed
  // product, so it still rides the fused epilogue.
  std::uint8_t* qx = ws.bytes(static_cast<std::size_t>(n * features));
  quantize_u8(x.data(), n * features, input_params, qx);
  std::uint8_t* qxt = ws.bytes(static_cast<std::size_t>(features * n));
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < features; ++j) {
      qxt[j * n + i] = qx[i * features + j];
    }
  }
  float* yt = ws.floats(static_cast<std::size_t>(out * n));
  QuantEpilogue epilogue;
  epilogue.row_bias = bias;
  epilogue.relu = fused;
  qgemm(weights, qxt, n, n, input_params, yt, n, epilogue);
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t o = 0; o < out; ++o) {
      output.data()[i * out + o] = yt[o * n + i];
    }
  }
  return output;
}

}  // namespace

WeightMap extract_weights(detect::SppNet& net) {
  WeightMap map;
  Sequential& trunk = net.trunk();
  int conv_index = 0;
  for (std::size_t i = 0; i < trunk.size(); ++i) {
    if (auto* conv = dynamic_cast<Conv2d*>(&trunk.layer(i))) {
      map.emplace("conv" + std::to_string(conv_index),
                  OpWeights{&conv->weight(), conv->bias()});
      ++conv_index;
    }
  }
  Sequential& head = net.head();
  std::vector<Linear*> linears;
  for (std::size_t i = 0; i < head.size(); ++i) {
    if (auto* linear = dynamic_cast<Linear*>(&head.layer(i))) {
      linears.push_back(linear);
    }
  }
  DCN_CHECK(!linears.empty()) << "SPP-Net head has no linear layers";
  for (std::size_t i = 0; i < linears.size(); ++i) {
    const std::string name =
        i + 1 == linears.size() ? "head" : "fc" + std::to_string(i);
    map.emplace(name, OpWeights{&linears[i]->weight(), linears[i]->bias()});
  }
  return map;
}

NumericExecutor::NumericExecutor(const Graph& graph, WeightMap weights)
    : graph_(graph), weights_(std::move(weights)), quant_(graph.size()) {
  validate_shapes(graph_);
  int inputs = 0;
  int outputs = 0;
  for (const OpNode& node : graph_.nodes()) {
    if (node.kind == OpKind::kInput) ++inputs;
    if (node.kind == OpKind::kOutput) ++outputs;
    if (node.kind == OpKind::kConstant) {
      throw ConfigError("NumericExecutor: op '" + node.name +
                        "' is a folded Constant; the cost IR carries no "
                        "constant tensor values to execute");
    }
    if (is_conv_kind(node.kind)) {
      const auto it = weights_.find(node.name);
      if (it == weights_.end()) {
        throw ConfigError("NumericExecutor: no weights bound for conv op '" +
                          node.name + "'");
      }
      const Tensor* w = it->second.weight;
      const TensorDesc in = graph_.input_desc(node.id);
      if (w == nullptr || w->rank() != 4 ||
          w->dim(0) != node.attrs.out_channels || w->dim(1) != in.dims[0] ||
          w->dim(2) != node.attrs.kernel || w->dim(3) != node.attrs.kernel ||
          it->second.bias.numel() != node.attrs.out_channels) {
        throw ConfigError("NumericExecutor: weight shape mismatch for conv "
                          "op '" + node.name + "'");
      }
    } else if (is_linear_kind(node.kind)) {
      const auto it = weights_.find(node.name);
      if (it == weights_.end()) {
        throw ConfigError("NumericExecutor: no weights bound for linear op '" +
                          node.name + "'");
      }
      const Tensor* w = it->second.weight;
      if (w == nullptr || w->rank() != 2 ||
          w->dim(0) != node.attrs.out_features ||
          w->dim(1) != graph_.input_desc(node.id).numel() ||
          it->second.bias.numel() != node.attrs.out_features) {
        throw ConfigError("NumericExecutor: weight shape mismatch for linear "
                          "op '" + node.name + "'");
      }
    }
  }
  if (inputs != 1) {
    throw ConfigError("NumericExecutor: graph must have exactly one Input, "
                      "got " + std::to_string(inputs));
  }
  if (outputs > 1) {
    throw ConfigError("NumericExecutor: graph must have at most one Output, "
                      "got " + std::to_string(outputs));
  }
}

Tensor NumericExecutor::run(const Tensor& input, bool int8,
                            std::vector<detect::RangeObserver>* observers)
    const {
  const std::int64_t batch = input.rank() > 0 ? input.dim(0) : 0;
  std::vector<Tensor> values(graph_.size());
  OpId output_id = kInvalidOp;
  OpId last_id = kInvalidOp;
  // Insertion order is topological by Graph::add_op's construction.
  for (const OpNode& node : graph_.nodes()) {
    const auto idx = static_cast<std::size_t>(node.id);
    last_id = node.id;
    switch (node.kind) {
      case OpKind::kInput: {
        bool matches = input.rank() == node.output.dims.size() + 1;
        for (std::size_t d = 0; matches && d < node.output.dims.size(); ++d) {
          matches = input.dim(d + 1) == node.output.dims[d];
        }
        if (!matches) {
          throw ShapeError("NumericExecutor: input " +
                           input.shape().to_string() +
                           " does not match the graph's per-sample shape " +
                           node.output.to_string());
        }
        if (batch < 1) {
          throw ConfigError("NumericExecutor: batch must be >= 1");
        }
        values[idx] = input;
        break;
      }
      case OpKind::kConv2d:
      case OpKind::kFusedConvReLU: {
        const Tensor& x = values[static_cast<std::size_t>(node.inputs[0])];
        if (observers != nullptr) {
          (*observers)[idx].observe(x.data(), x.numel());
        }
        const bool fused = node.kind == OpKind::kFusedConvReLU;
        if (int8) {
          const QuantOp& q = quant_[idx];
          values[idx] = run_conv_int8(node, x, q.weights,
                                      weights_.at(node.name).bias.data(),
                                      q.input_params, fused);
        } else {
          const OpWeights& w = weights_.at(node.name);
          values[idx] = run_conv_fp32(node, x, *w.weight, w.bias, fused);
        }
        break;
      }
      case OpKind::kLinear:
      case OpKind::kFusedLinearReLU: {
        const Tensor& raw = values[static_cast<std::size_t>(node.inputs[0])];
        if (observers != nullptr) {
          (*observers)[idx].observe(raw.data(), raw.numel());
        }
        // A folded Flatten may leave the producer rank-3+; the buffer is
        // contiguous row-major, so the flatten really is metadata-only.
        const Tensor x = raw.rank() == 2
                             ? raw
                             : raw.reshaped(Shape{batch, raw.numel() / batch});
        const bool fused = node.kind == OpKind::kFusedLinearReLU;
        if (int8) {
          const QuantOp& q = quant_[idx];
          values[idx] = run_linear_int8(x, q.weights,
                                        weights_.at(node.name).bias.data(),
                                        q.input_params, fused);
        } else {
          const OpWeights& w = weights_.at(node.name);
          values[idx] = run_linear_fp32(x, *w.weight, w.bias, fused);
        }
        break;
      }
      case OpKind::kMaxPool: {
        MaxPool2d pool(node.attrs.kernel, node.attrs.stride);
        values[idx] =
            pool.forward(values[static_cast<std::size_t>(node.inputs[0])]);
        break;
      }
      case OpKind::kAdaptivePool: {
        AdaptiveMaxPool2d pool(node.attrs.pool_out, node.attrs.pool_out);
        values[idx] =
            pool.forward(values[static_cast<std::size_t>(node.inputs[0])]);
        break;
      }
      case OpKind::kReLU: {
        const Tensor& x = values[static_cast<std::size_t>(node.inputs[0])];
        Tensor out(x.shape());
        relu_exact(x.data(), x.numel(), out.data());
        values[idx] = std::move(out);
        break;
      }
      case OpKind::kFlatten: {
        const Tensor& x = values[static_cast<std::size_t>(node.inputs[0])];
        values[idx] = x.reshaped(Shape{batch, node.output.numel()});
        break;
      }
      case OpKind::kConcat: {
        const std::int64_t total = node.output.numel();
        Tensor out(Shape{batch, total});
        std::int64_t offset = 0;
        // Per-sample contiguous branch blocks, in input order — byte-for-
        // byte the SpatialPyramidPool layout, whether or not the branches
        // still carry their Flatten nodes.
        for (OpId in : node.inputs) {
          const Tensor& v = values[static_cast<std::size_t>(in)];
          const std::int64_t feat = v.numel() / batch;
          for (std::int64_t s = 0; s < batch; ++s) {
            const float* src = v.data() + s * feat;
            float* dst = out.data() + s * total + offset;
            std::copy(src, src + feat, dst);
          }
          offset += feat;
        }
        values[idx] = std::move(out);
        break;
      }
      case OpKind::kOutput: {
        values[idx] = values[static_cast<std::size_t>(node.inputs[0])];
        output_id = node.id;
        break;
      }
      case OpKind::kConstant:
        // Rejected in the constructor.
        break;
    }
  }
  const OpId result = output_id != kInvalidOp ? output_id : last_id;
  DCN_CHECK(result != kInvalidOp) << "empty graph";
  return values[static_cast<std::size_t>(result)];
}

Tensor NumericExecutor::forward(const Tensor& input) const {
  if (quantized_) {
    throw ConfigError("NumericExecutor::forward after quantize() released "
                      "the fp32 weights");
  }
  return run(input, /*int8=*/false, nullptr);
}

void NumericExecutor::quantize(const Tensor& calibration,
                               const detect::CalibrationOptions& options) {
  if (quantized_) {
    throw ConfigError("NumericExecutor::quantize: already quantized");
  }
  if (calibration.rank() != 4 || calibration.dim(0) < 1) {
    throw ConfigError("NumericExecutor::quantize: calibration batch must be "
                      "non-empty NCHW, got " +
                      calibration.shape().to_string());
  }
  std::vector<detect::RangeObserver> observers(graph_.size());
  (void)run(calibration, /*int8=*/false, &observers);
  for (const OpNode& node : graph_.nodes()) {
    if (!is_conv_kind(node.kind) && !is_linear_kind(node.kind)) continue;
    OpWeights& w = weights_.at(node.name);
    QuantOp q;
    const std::int64_t rows = w.weight->dim(0);
    q.weights = quantize_weights_per_channel(w.weight->data(), rows,
                                             w.weight->numel() / rows);
    q.input_params =
        observers[static_cast<std::size_t>(node.id)].quant_params(options);
    quant_[static_cast<std::size_t>(node.id)] = std::move(q);
    // int8 inference reads only the bias and the int8 copy, so a deployed
    // model drops the borrowed fp32 weight and outlives its source net.
    w.weight = nullptr;
  }
  quantized_ = true;
}

Tensor NumericExecutor::forward_int8(const Tensor& input) const {
  if (!quantized_) {
    throw ConfigError("NumericExecutor::forward_int8 before quantize()");
  }
  return run(input, /*int8=*/true, nullptr);
}

namespace {

// The int8 deployment as a Module, so evaluate_detector and scan_watershed
// score it through the same path as the float SppNet.
class QuantizedModel final : public Module {
 public:
  explicit QuantizedModel(NumericExecutor executor)
      : executor_(std::move(executor)) {}

  Tensor forward(const Tensor& input) override {
    return executor_.forward_int8(input);
  }
  Tensor backward(const Tensor&) override {
    throw Error("quantized SPP-Net is inference-only; train the float model "
                "and re-quantize instead");
  }
  std::string name() const override { return "Int8SppNet"; }

 private:
  NumericExecutor executor_;
};

}  // namespace

std::unique_ptr<Module> quantize_sppnet(
    detect::SppNet& net, const Tensor& calibration,
    const detect::CalibrationOptions& options) {
  if (calibration.rank() != 4 || calibration.dim(0) < 1 ||
      calibration.dim(2) != calibration.dim(3)) {
    throw ConfigError("quantize_sppnet: calibration batch must be non-empty "
                      "square NCHW, got " + calibration.shape().to_string());
  }
  NumericExecutor executor(
      optimize_graph(build_inference_graph(net.config(), calibration.dim(2))),
      extract_weights(net));
  executor.quantize(calibration, options);
  return std::make_unique<QuantizedModel>(std::move(executor));
}

}  // namespace dcn::graph
