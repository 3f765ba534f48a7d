// Numeric execution of inference graphs on the host tensor engine.
//
// NumericExecutor interprets a graph::Graph with real trained weights, so
// the *same* DAG the IOS scheduler partitions and the simulated device
// prices is the one that runs: it is the library's int8 inference path
// (quantize_sppnet below), and it lets tests prove that the optimizer
// passes are semantics-preserving instead of assuming it.
// Fused nodes (FusedConvReLU / FusedLinearReLU) execute through the tensor
// engine's existing fused epilogues (GemmEpilogue / QuantEpilogue): the
// ReLU is applied in the GEMM's C-tile store, exactly as the unfused
// graph's standalone ReLU node computes it, so a fused graph's outputs are
// bit-identical to its unfused twin's — at fp32 and int8, at any thread
// count (the engine's determinism contract, DESIGN.md "Tensor-engine
// threading model").
//
// Weights bind by op name (the builder's conv<i> / fc<i> / head naming),
// which the fusion passes preserve: a weight map extracted once serves the
// naive graph, the optimized graph, and anything in between.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "detect/calibration.hpp"
#include "detect/sppnet.hpp"
#include "graph/graph.hpp"
#include "nn/module.hpp"
#include "tensor/quantize.hpp"
#include "tensor/tensor.hpp"

namespace dcn::graph {

/// Learnable parameters of one compute op. The weight is borrowed: the
/// tensor it points to must stay alive and unchanged while an executor
/// bound to it runs fp32 or calibrates (quantize() drops the pointer). The
/// bias is a copy, since int8 inference still reads it.
struct OpWeights {
  const Tensor* weight = nullptr;  // conv: [out_c, in_c, k, k];
                                   // linear: [out, in]
  Tensor bias;                     // [out_c] / [out]
};

/// Op name -> parameters.
using WeightMap = std::unordered_map<std::string, OpWeights>;

/// Bind a trained SPP-Net's parameters under the graph builder's op names
/// (conv0, conv1, ..., fc0, ..., head): the weights are borrowed from `net`
/// in place, the biases copied (OpWeights). The returned map binds to the
/// naive inference graph and to any pass-optimized graph derived from it.
WeightMap extract_weights(detect::SppNet& net);

class NumericExecutor {
 public:
  /// `graph` is copied; `weights` must cover every compute op by name with
  /// shapes matching the op's attributes (throws ConfigError otherwise).
  /// Graphs containing Constant nodes are rejected: this cost IR does not
  /// carry folded tensor values.
  NumericExecutor(const Graph& graph, WeightMap weights);

  /// fp32 inference: [N, C, H, W] -> the Output node's value, [N, ...].
  /// Throws ShapeError when the input is not [N] + the graph's Input shape
  /// (e.g. a tile of another size), ConfigError when N < 1 or after
  /// quantize().
  Tensor forward(const Tensor& input) const;

  /// Calibrate activation ranges with an fp32 walk of `calibration` (each
  /// conv/linear observes the float tensor feeding it) and freeze
  /// conv/linear weights to symmetric per-channel int8, dropping the
  /// borrowed fp32 weights: the executor is int8-only afterwards. Throws
  /// ConfigError when already quantized.
  void quantize(const Tensor& calibration,
                const detect::CalibrationOptions& options = {});
  bool quantized() const { return quantized_; }

  /// INT8 inference (requires quantize()): conv/linear run as qgemm with
  /// the fused dequant+bias+ReLU epilogue; pools, concat, and standalone
  /// ReLU stay float — pooling is order-preserving, so quantizing it would
  /// add error without saving meaningful work. Same input contract and
  /// throws as forward().
  Tensor forward_int8(const Tensor& input) const;

  const Graph& graph() const { return graph_; }

 private:
  struct QuantOp {
    QuantizedWeights weights;
    QuantParams input_params;
  };

  Tensor run(const Tensor& input, bool int8,
             std::vector<detect::RangeObserver>* observers) const;

  Graph graph_;
  WeightMap weights_;
  std::vector<QuantOp> quant_;  // indexed by OpId; unused for non-compute ops
  bool quantized_ = false;
};

/// Post-training int8 quantization of a trained SPP-Net: the model that
/// deploys is the pass-optimized inference graph of `net.config()` at the
/// calibration batch's spatial size, bound to `net`'s weights and
/// calibrated on `calibration` (NumericExecutor::quantize). The returned
/// Module's forward is NumericExecutor::forward_int8, [N,C,S,S] float in ->
/// [N,5] raw head outputs (SppNet::forward's eval contract), bit-identical
/// across thread counts and runs; other tile sizes throw ShapeError.
/// backward throws: the model is frozen. `net` is only read during the
/// call: its weights are read in place, only its biases are copied.
/// Throws ConfigError unless `calibration` is a non-empty square NCHW
/// batch.
std::unique_ptr<Module> quantize_sppnet(
    detect::SppNet& net, const Tensor& calibration,
    const detect::CalibrationOptions& options = {});

}  // namespace dcn::graph
