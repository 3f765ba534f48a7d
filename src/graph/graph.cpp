#include "graph/graph.hpp"

#include <sstream>

#include "core/error.hpp"

namespace dcn::graph {

OpId Graph::add_op(OpKind kind, std::string name, OpAttrs attrs,
                   std::vector<OpId> inputs, TensorDesc output) {
  const OpId id = static_cast<OpId>(nodes_.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const OpId in = inputs[i];
    if (in < 0 || in >= id) {
      throw ConfigError("op '" + name + "' references dangling input op id " +
                        std::to_string(in) + " (existing ids are [0, " +
                        std::to_string(id) + "))");
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (inputs[j] == in) {
        throw ConfigError("op '" + name + "' lists input op id " +
                          std::to_string(in) +
                          " more than once; edges must be unique");
      }
    }
  }
  OpNode node;
  node.id = id;
  node.kind = kind;
  node.name = std::move(name);
  node.attrs = attrs;
  node.inputs = std::move(inputs);
  node.output = std::move(output);
  nodes_.push_back(std::move(node));
  return id;
}

const OpNode& Graph::node(OpId id) const {
  DCN_CHECK(id >= 0 && static_cast<std::size_t>(id) < nodes_.size())
      << "op id " << id;
  return nodes_[static_cast<std::size_t>(id)];
}

std::vector<OpId> Graph::successors(OpId id) const {
  std::vector<OpId> out;
  for (const OpNode& n : nodes_) {
    for (OpId in : n.inputs) {
      if (in == id) {
        out.push_back(n.id);
        break;
      }
    }
  }
  return out;
}

std::vector<OpId> Graph::topological_order() const {
  std::vector<int> indeg(nodes_.size(), 0);
  for (const OpNode& n : nodes_) {
    indeg[static_cast<std::size_t>(n.id)] =
        static_cast<int>(n.inputs.size());
  }
  std::vector<OpId> ready;
  for (const OpNode& n : nodes_) {
    if (n.inputs.empty()) ready.push_back(n.id);
  }
  std::vector<OpId> order;
  order.reserve(nodes_.size());
  while (!ready.empty()) {
    const OpId id = ready.back();
    ready.pop_back();
    order.push_back(id);
    for (OpId succ : successors(id)) {
      if (--indeg[static_cast<std::size_t>(succ)] == 0) {
        ready.push_back(succ);
      }
    }
  }
  DCN_CHECK(order.size() == nodes_.size()) << "graph contains a cycle";
  return order;
}

TensorDesc Graph::input_desc(OpId id) const {
  const OpNode& n = node(id);
  if (n.inputs.empty()) return n.output;
  return node(n.inputs.front()).output;
}

std::int64_t Graph::parameter_count() const {
  std::int64_t total = 0;
  for (const OpNode& n : nodes_) {
    total += n.parameter_count(input_desc(n.id));
  }
  return total;
}

double Graph::total_flops() const {
  double total = 0.0;
  for (const OpNode& n : nodes_) total += n.flops(input_desc(n.id));
  return total;
}

std::string Graph::to_string() const {
  std::ostringstream os;
  for (const OpNode& n : nodes_) {
    os << '#' << n.id << ' ' << op_kind_name(n.kind) << " '" << n.name
       << "' -> " << n.output.to_string();
    if (!n.inputs.empty()) {
      os << " inputs[";
      for (std::size_t i = 0; i < n.inputs.size(); ++i) {
        if (i) os << ", ";
        os << n.inputs[i];
      }
      os << ']';
    }
    os << '\n';
  }
  return os.str();
}

std::string Graph::to_dot() const {
  std::ostringstream os;
  os << "digraph inference {\n  rankdir=TB;\n";
  for (const OpNode& n : nodes_) {
    os << "  n" << n.id << " [label=\"" << op_kind_name(n.kind) << "\\n"
       << n.name << ' ' << n.output.to_string() << "\"];\n";
  }
  for (const OpNode& n : nodes_) {
    for (OpId in : n.inputs) {
      os << "  n" << in << " -> n" << n.id << ";\n";
    }
  }
  os << "}\n";
  return os.str();
}

void validate_shapes(const Graph& graph) {
  auto fail = [](const OpNode& node, const std::string& why) {
    throw Error("shape validation failed at op '" + node.name + "' (#" +
                std::to_string(node.id) + "): " + why);
  };
  for (const OpNode& node : graph.nodes()) {
    const std::size_t arity = node.inputs.size();
    switch (node.kind) {
      case OpKind::kInput: {
        if (arity != 0) fail(node, "input must have no producers");
        break;
      }
      case OpKind::kConv2d:
      case OpKind::kFusedConvReLU: {
        if (arity != 1) fail(node, "conv takes one input");
        const TensorDesc in = graph.input_desc(node.id);
        if (in.dims.size() != 3 || node.output.dims.size() != 3) {
          fail(node, "conv expects CHW in and out");
        }
        if (node.output.dims[0] != node.attrs.out_channels) {
          fail(node, "output channels != attrs.out_channels");
        }
        for (int axis = 1; axis <= 2; ++axis) {
          const std::int64_t expect =
              (in.dims[static_cast<std::size_t>(axis)] +
               2 * node.attrs.padding - node.attrs.kernel) /
                  node.attrs.stride +
              1;
          if (node.output.dims[static_cast<std::size_t>(axis)] != expect) {
            fail(node, "conv spatial arithmetic mismatch");
          }
        }
        break;
      }
      case OpKind::kMaxPool: {
        if (arity != 1) fail(node, "pool takes one input");
        const TensorDesc in = graph.input_desc(node.id);
        if (in.dims.size() != 3 || node.output.dims.size() != 3) {
          fail(node, "pool expects CHW in and out");
        }
        if (node.output.dims[0] != in.dims[0]) {
          fail(node, "pool must preserve channels");
        }
        for (int axis = 1; axis <= 2; ++axis) {
          const std::int64_t expect =
              (in.dims[static_cast<std::size_t>(axis)] - node.attrs.kernel) /
                  node.attrs.stride +
              1;
          if (node.output.dims[static_cast<std::size_t>(axis)] != expect) {
            fail(node, "pool spatial arithmetic mismatch");
          }
        }
        break;
      }
      case OpKind::kAdaptivePool: {
        if (arity != 1) fail(node, "adaptive pool takes one input");
        const TensorDesc in = graph.input_desc(node.id);
        if (in.dims.size() != 3 || node.output.dims.size() != 3) {
          fail(node, "adaptive pool expects CHW in and out");
        }
        if (node.output.dims[0] != in.dims[0]) {
          fail(node, "adaptive pool must preserve channels");
        }
        if (node.output.dims[1] != node.attrs.pool_out ||
            node.output.dims[2] != node.attrs.pool_out) {
          fail(node, "adaptive pool grid != attrs.pool_out");
        }
        break;
      }
      case OpKind::kReLU: {
        if (arity != 1) fail(node, "relu takes one input");
        if (graph.input_desc(node.id).dims != node.output.dims) {
          fail(node, "relu must preserve shape");
        }
        break;
      }
      case OpKind::kFlatten: {
        if (arity != 1) fail(node, "flatten takes one input");
        if (node.output.dims.size() != 1 ||
            node.output.numel() != graph.input_desc(node.id).numel()) {
          fail(node, "flatten must preserve element count into rank 1");
        }
        break;
      }
      case OpKind::kConcat: {
        if (arity < 1) fail(node, "concat needs inputs");
        std::int64_t total = 0;
        for (OpId in : node.inputs) {
          total += graph.node(in).output.numel();
        }
        if (node.output.numel() != total) {
          fail(node, "concat output != sum of input elements");
        }
        break;
      }
      case OpKind::kLinear:
      case OpKind::kFusedLinearReLU: {
        if (arity != 1) fail(node, "linear takes one input");
        if (node.output.dims.size() != 1 ||
            node.output.dims[0] != node.attrs.out_features) {
          fail(node, "linear output width != attrs.out_features");
        }
        break;
      }
      case OpKind::kOutput: {
        if (arity != 1) fail(node, "output takes one input");
        if (graph.input_desc(node.id).dims != node.output.dims) {
          fail(node, "output must mirror its producer");
        }
        break;
      }
    }
  }
}

}  // namespace dcn::graph
