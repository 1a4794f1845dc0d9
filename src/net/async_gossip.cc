#include "net/async_gossip.h"

#include <utility>

#include "gossip/gossip_state.h"

namespace dgt {

// --- Scalar ------------------------------------------------------------

AsyncPushSum::AsyncPushSum(const Graph* graph, AsyncGossipOptions options)
    : graph_(graph), options_(options) {}

Result<AsyncGossipResult> AsyncPushSum::Run(const std::vector<double>& y0,
                                            const std::vector<double>& g0) {
  const uint32_t n = graph_->num_nodes();
  if (y0.size() != n || g0.size() != n) {
    return Status::InvalidArgument("y0/g0 must have num_nodes entries");
  }
  std::vector<ScalarGossipPolicy::Value> init(n);
  for (uint32_t i = 0; i < n; ++i) init[i] = {y0[i], g0[i]};
  DGT_RETURN_IF_ERROR(ValidateInitialState<ScalarGossipPolicy>(init, n, false));

  AsyncEventEngine<ScalarGossipPolicy> engine(graph_, options_);
  DGT_ASSIGN_OR_RETURN(auto out, engine.Run(std::move(init)));

  AsyncGossipResult res;
  res.converged = out.stats.converged;
  res.sim_time = out.stats.sim_time;
  res.gossip_messages = out.stats.gossip_messages;
  res.control_messages = out.stats.control_messages;
  res.events = out.stats.events;
  res.max_node_firings = out.stats.max_node_firings;
  res.ratios.resize(n);
  res.values.resize(n);
  res.weights.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    res.values[i] = out.values[i].y;
    res.weights[i] = out.values[i].g;
    res.ratios[i] =
        ScalarGossipPolicy::Estimate(out.values[i], options_.ratio_sentinel);
  }
  return res;
}

// --- Dense vector ------------------------------------------------------

AsyncVectorPushSum::AsyncVectorPushSum(const Graph* graph,
                                       AsyncGossipOptions options)
    : graph_(graph), options_(options) {}

Result<AsyncVectorGossipResult> AsyncVectorPushSum::Run(
    const std::vector<std::vector<double>>& y0,
    const std::vector<std::vector<double>>& g0,
    const std::vector<std::vector<double>>& c0) {
  const uint32_t n = graph_->num_nodes();
  if (y0.size() != n || g0.size() != n || (!c0.empty() && c0.size() != n)) {
    return Status::InvalidArgument("y0/g0/c0 must have num_nodes rows");
  }
  std::vector<DenseVectorGossipPolicy::Value> init(n);
  for (uint32_t i = 0; i < n; ++i) {
    init[i].y = y0[i];
    init[i].g = g0[i];
    if (!c0.empty()) init[i].c = c0[i];
  }
  DGT_RETURN_IF_ERROR(
      ValidateInitialState<DenseVectorGossipPolicy>(init, n, !c0.empty()));

  AsyncEventEngine<DenseVectorGossipPolicy> engine(graph_, options_);
  DGT_ASSIGN_OR_RETURN(auto out, engine.Run(std::move(init)));

  AsyncVectorGossipResult res;
  res.stats = out.stats;
  res.y.resize(n);
  res.g.resize(n);
  if (!c0.empty()) res.c.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    res.y[i] = std::move(out.values[i].y);
    res.g[i] = std::move(out.values[i].g);
    if (!c0.empty()) res.c[i] = std::move(out.values[i].c);
  }
  return res;
}

// --- CSR sparse --------------------------------------------------------

AsyncSparsePushSum::AsyncSparsePushSum(const Graph* graph,
                                       AsyncGossipOptions options)
    : graph_(graph), options_(options) {}

Result<AsyncSparseGossipResult> AsyncSparsePushSum::Run(
    std::vector<SparseVectorRow> init, bool use_count) {
  DGT_RETURN_IF_ERROR(ValidateInitialState<SparseVectorGossipPolicy>(
      init, graph_->num_nodes(), use_count));

  AsyncEventEngine<SparseVectorGossipPolicy> engine(graph_, options_);
  DGT_ASSIGN_OR_RETURN(auto out, engine.Run(std::move(init)));

  AsyncSparseGossipResult res;
  res.stats = out.stats;
  res.rows = std::move(out.values);
  return res;
}

}  // namespace dgt
