// Graph optimizer: one fixed rewrite pipeline over the inference DAG.
//
// optimize_graph runs four rewrites in order — canonicalization, conv+ReLU
// fusion, linear+ReLU fusion, dead-op elimination — and repeats the whole
// sweep until none of them changes the graph. The result is an immutable
// graph::Graph that IOS schedules directly.
//
// Why this matters: the tensor engine already fuses bias+ReLU into GEMM
// epilogue stores, but the graph handed to the IOS scheduler still carried
// one node per op — so the cost model priced a kernel launch and a DRAM
// round-trip of the pre-activation tensor that the engine never performs.
// Optimizing *before* IOS DP makes schedules, simulated costs, and
// schedule-cache keys all see the fused reality.
//
// Determinism: every rewrite visits nodes in ascending id order and the
// pipeline order is fixed, so optimization is a pure function of the input
// graph — the same graph always optimizes to the same graph.
#pragma once

#include <cstddef>

#include "graph/graph.hpp"

namespace dcn::graph {

/// Optimize `graph`; the input is untouched. The result is shape-validated
/// before it is returned.
Graph optimize_graph(const Graph& graph);

/// Scheduled kernel launches of a graph: its device ops (what one inference
/// costs in launches — the paper's Fig. 7 x-axis).
std::size_t device_op_count(const Graph& graph);

}  // namespace dcn::graph
