#include "graph/passes.hpp"

#include <algorithm>
#include <vector>

#include "core/error.hpp"

namespace dcn::graph {
namespace {

// Full pipeline sweeps before optimize_graph stops even without a fixpoint:
// a safety net against a pair of rewrites that undo each other.
constexpr int kMaxSweeps = 8;

/// Scratch rewrite view over a Graph. Node ids stay stable while rewrites
/// mutate; erased nodes become tombstones skipped by live_ids(); build()
/// compacts survivors (in original insertion order, which every rewrite
/// here preserves as a topological order) into a fresh validated Graph.
class MutableGraph {
 public:
  explicit MutableGraph(const Graph& graph)
      : nodes_(graph.nodes()), alive_(graph.size(), true) {}

  /// Ids ever allocated (live or dead); valid id range is [0, capacity()).
  std::size_t capacity() const { return nodes_.size(); }

  OpNode& node(OpId id);
  const OpNode& node(OpId id) const;
  bool alive(OpId id) const;

  /// Live ids in insertion order.
  std::vector<OpId> live_ids() const;

  /// Live consumers of `id`'s output, ascending.
  std::vector<OpId> consumers(OpId id) const;

  /// Whether redirecting `from` -> `to` keeps all input lists duplicate-free
  /// (a consumer reading both tensors would end up with a double edge).
  bool can_redirect(OpId from, OpId to) const;

  /// Point every live consumer of `from` at `to`. Requires can_redirect().
  void redirect(OpId from, OpId to);

  /// Tombstone a node; its consumers must have been redirected already.
  void erase(OpId id);

  /// Compact into a validated Graph (Graph::add_op re-checks every edge).
  Graph build() const;

 private:
  std::vector<OpNode> nodes_;
  std::vector<bool> alive_;
};

OpNode& MutableGraph::node(OpId id) {
  DCN_CHECK(alive(id)) << "rewrite touched dead/invalid op id " << id;
  return nodes_[static_cast<std::size_t>(id)];
}

const OpNode& MutableGraph::node(OpId id) const {
  DCN_CHECK(alive(id)) << "rewrite touched dead/invalid op id " << id;
  return nodes_[static_cast<std::size_t>(id)];
}

bool MutableGraph::alive(OpId id) const {
  return id >= 0 && static_cast<std::size_t>(id) < nodes_.size() &&
         alive_[static_cast<std::size_t>(id)];
}

std::vector<OpId> MutableGraph::live_ids() const {
  std::vector<OpId> ids;
  ids.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (alive_[i]) ids.push_back(static_cast<OpId>(i));
  }
  return ids;
}

std::vector<OpId> MutableGraph::consumers(OpId id) const {
  std::vector<OpId> out;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (!alive_[i]) continue;
    const OpNode& n = nodes_[i];
    if (std::find(n.inputs.begin(), n.inputs.end(), id) != n.inputs.end()) {
      out.push_back(static_cast<OpId>(i));
    }
  }
  return out;
}

bool MutableGraph::can_redirect(OpId from, OpId to) const {
  if (from == to) return false;
  for (OpId c : consumers(from)) {
    const std::vector<OpId>& ins = node(c).inputs;
    if (std::find(ins.begin(), ins.end(), to) != ins.end()) return false;
  }
  return true;
}

void MutableGraph::redirect(OpId from, OpId to) {
  DCN_CHECK(alive(from) && alive(to)) << "redirect over dead ops";
  DCN_CHECK(can_redirect(from, to))
      << "redirect " << from << " -> " << to << " would duplicate an edge";
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (!alive_[i]) continue;
    for (OpId& in : nodes_[i].inputs) {
      if (in == from) in = to;
    }
  }
}

void MutableGraph::erase(OpId id) {
  DCN_CHECK(alive(id)) << "erase of dead/invalid op id " << id;
  DCN_CHECK(consumers(id).empty())
      << "erase of op " << id << " with live consumers";
  alive_[static_cast<std::size_t>(id)] = false;
}

Graph MutableGraph::build() const {
  std::vector<OpId> remap(nodes_.size(), kInvalidOp);
  Graph out;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (!alive_[i]) continue;
    const OpNode& n = nodes_[i];
    std::vector<OpId> inputs;
    inputs.reserve(n.inputs.size());
    for (OpId in : n.inputs) {
      DCN_CHECK(alive(in) && remap[static_cast<std::size_t>(in)] != kInvalidOp)
          << "op '" << n.name << "' kept an edge to erased op " << in;
      inputs.push_back(remap[static_cast<std::size_t>(in)]);
    }
    remap[i] = out.add_op(n.kind, n.name, n.attrs, std::move(inputs), n.output);
  }
  return out;
}

bool attrs_equal(const OpAttrs& a, const OpAttrs& b) {
  return a.kernel == b.kernel && a.stride == b.stride &&
         a.padding == b.padding && a.out_channels == b.out_channels &&
         a.out_features == b.out_features && a.pool_out == b.pool_out;
}

// Attrs with only the fields `kind` reads; everything else at defaults, so
// two structurally identical ops always compare (and key) identically no
// matter what stray values a builder left behind.
OpAttrs canonical_attrs(const OpNode& node) {
  OpAttrs out;
  switch (node.kind) {
    case OpKind::kConv2d:
    case OpKind::kFusedConvReLU:
      out.kernel = node.attrs.kernel;
      out.stride = node.attrs.stride;
      out.padding = node.attrs.padding;
      out.out_channels = node.attrs.out_channels;
      break;
    case OpKind::kMaxPool:
      out.kernel = node.attrs.kernel;
      out.stride = node.attrs.stride;
      break;
    case OpKind::kAdaptivePool:
      out.pool_out = node.attrs.pool_out;
      break;
    case OpKind::kLinear:
    case OpKind::kFusedLinearReLU:
      out.out_features = node.attrs.out_features;
      break;
    default:
      break;  // attr-free kinds keep the defaults
  }
  return out;
}

// Consumers for which a producer's rank is irrelevant — they read a flat
// contiguous buffer and only element counts matter. A Flatten feeding only
// these is a pure metadata op (the IR is contiguous CHW row-major), i.e. a
// kernel launch and a full activation round-trip for a no-op.
bool numel_only_consumer(OpKind kind) {
  return kind == OpKind::kFlatten || kind == OpKind::kConcat ||
         kind == OpKind::kLinear || kind == OpKind::kFusedLinearReLU;
}

/// Layout/attr canonicalization: scrub meaningless attr fields, drop
/// Flatten ops that only feed flat-buffer consumers, collapse identity
/// Concats (single input, same descriptor) and ReLU-of-ReLU chains.
bool canonicalize(MutableGraph& g) {
  bool changed = false;
  for (OpId id : g.live_ids()) {
    if (!g.alive(id)) continue;  // erased earlier in this sweep
    OpNode& n = g.node(id);
    const OpAttrs canon = canonical_attrs(n);
    if (!attrs_equal(n.attrs, canon)) {
      n.attrs = canon;
      changed = true;
    }
    switch (n.kind) {
      case OpKind::kFlatten: {
        const std::vector<OpId> cons = g.consumers(id);
        if (cons.empty()) break;  // dead; DCE's job
        const bool foldable =
            std::all_of(cons.begin(), cons.end(), [&](OpId c) {
              return numel_only_consumer(g.node(c).kind);
            });
        const OpId producer = n.inputs.front();
        if (foldable && g.can_redirect(id, producer)) {
          g.redirect(id, producer);
          g.erase(id);
          changed = true;
        }
        break;
      }
      case OpKind::kConcat: {
        if (n.inputs.size() != 1) break;
        const OpId producer = n.inputs.front();
        if (g.node(producer).output.dims != n.output.dims) break;
        if (!g.consumers(id).empty() && !g.can_redirect(id, producer)) break;
        g.redirect(id, producer);
        g.erase(id);
        changed = true;
        break;
      }
      case OpKind::kReLU: {
        // relu(relu(x)) == relu(x): consumers read the inner one.
        const OpId producer = n.inputs.front();
        if (g.node(producer).kind != OpKind::kReLU) break;
        if (!g.consumers(id).empty() && !g.can_redirect(id, producer)) break;
        g.redirect(id, producer);
        g.erase(id);
        changed = true;
        break;
      }
      default:
        break;
    }
  }
  return changed;
}

/// Fuse a `base` compute op with its trailing ReLU into a `fused` op when
/// the ReLU is the op's sole consumer. The fused node keeps the compute
/// op's name (weights bind by name) and position; the ReLU's consumers are
/// redirected onto it.
bool fuse_relu(MutableGraph& g, OpKind base, OpKind fused) {
  bool changed = false;
  for (OpId id : g.live_ids()) {
    if (!g.alive(id)) continue;
    if (g.node(id).kind != base) continue;
    const std::vector<OpId> cons = g.consumers(id);
    if (cons.size() != 1) continue;  // the intermediate must be private
    const OpId relu = cons.front();
    if (g.node(relu).kind != OpKind::kReLU) continue;
    if (!g.consumers(relu).empty() && !g.can_redirect(relu, id)) continue;
    OpNode& n = g.node(id);
    n.kind = fused;
    n.output = g.node(relu).output;  // same descriptor by relu's contract
    g.redirect(relu, id);
    g.erase(relu);
    changed = true;
  }
  return changed;
}

/// Remove ops not backward-reachable from any Output (or, in headless
/// graphs like hand-built test fixtures, from any sink).
bool eliminate_dead_ops(MutableGraph& g) {
  const std::vector<OpId> live = g.live_ids();
  std::vector<OpId> roots;
  for (OpId id : live) {
    if (g.node(id).kind == OpKind::kOutput) roots.push_back(id);
  }
  if (roots.empty()) {
    for (OpId id : live) {
      if (g.consumers(id).empty()) roots.push_back(id);
    }
  }
  std::vector<bool> reachable(g.capacity(), false);
  std::vector<OpId> stack = roots;
  while (!stack.empty()) {
    const OpId id = stack.back();
    stack.pop_back();
    if (reachable[static_cast<std::size_t>(id)]) continue;
    reachable[static_cast<std::size_t>(id)] = true;
    for (OpId in : g.node(id).inputs) stack.push_back(in);
  }
  bool changed = false;
  // Descending id order: insertion order is topological, so a dead op's
  // consumers (all dead too) are erased before it.
  for (auto it = live.rbegin(); it != live.rend(); ++it) {
    if (!reachable[static_cast<std::size_t>(*it)]) {
      g.erase(*it);
      changed = true;
    }
  }
  return changed;
}

}  // namespace

Graph optimize_graph(const Graph& graph) {
  MutableGraph g(graph);
  bool changed = true;
  for (int sweep = 0; changed && sweep < kMaxSweeps; ++sweep) {
    // Every rewrite runs in every sweep, in this order.
    changed = canonicalize(g);
    changed |= fuse_relu(g, OpKind::kConv2d, OpKind::kFusedConvReLU);
    changed |= fuse_relu(g, OpKind::kLinear, OpKind::kFusedLinearReLU);
    changed |= eliminate_dead_ops(g);
  }
  Graph out = g.build();
  validate_shapes(out);
  return out;
}

std::size_t device_op_count(const Graph& graph) {
  std::size_t count = 0;
  for (const OpNode& node : graph.nodes()) {
    if (is_device_op(node.kind)) ++count;
  }
  return count;
}

}  // namespace dcn::graph
