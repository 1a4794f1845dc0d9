// ScalarPushSum: synchronous differential push-sum gossip for one scalar
// aggregate (the machinery of the paper's Algorithm 1 / 2).
//
// Every node i holds a gossip pair (y_i, g_i) and an optional count
// channel c_i. Each step it splits all channels into k_i + 1 equal shares,
// keeps one, and pushes one to each of k_i randomly chosen neighbours
// (k_i per PushStrategy). The ratio y_i/g_i converges to
// sum(y0)/sum(g0); with g0 one-hot this estimates the sum, with g0 = 1 on
// a subset it estimates the subset average.
//
// The step loop and the paper's announce/stop termination protocol are
// SyncPushSum<ScalarGossipPolicy> (gossip/sync_push_sum.h); this class
// converts to and from its state.

#ifndef DGT_GOSSIP_SCALAR_ENGINE_H_
#define DGT_GOSSIP_SCALAR_ENGINE_H_

#include <vector>

#include "common/result.h"
#include "gossip/options.h"
#include "gossip/sync_push_sum.h"
#include "graph/graph.h"

namespace dgt {

class ScalarPushSum {
 public:
  // `graph` must outlive the engine. Disconnected graphs are allowed; each
  // component converges to its own aggregate.
  ScalarPushSum(const Graph* graph, GossipOptions options)
      : engine_(graph, options) {}

  // Runs to convergence (or options.max_steps). y0/g0 must have
  // num_nodes entries; c0 may be empty (count channel disabled) or
  // num_nodes entries. Fails with InvalidArgument on size mismatch or
  // negative g0.
  Result<GossipResult> Run(const std::vector<double>& y0,
                           const std::vector<double>& g0,
                           const std::vector<double>& c0 = {});

  // Per-node push counts under the configured strategy.
  const std::vector<uint32_t>& push_counts() const {
    return engine_.push_counts();
  }

 private:
  SyncPushSum<ScalarGossipPolicy> engine_;
};

}  // namespace dgt

#endif  // DGT_GOSSIP_SCALAR_ENGINE_H_
