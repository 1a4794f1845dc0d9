// Event-driven push-sum gossip over the paper's section-3 link model —
// relaxing the "time is discrete" assumption (its assumption ii) to
// message-level asynchrony. Three front-ends over the same executor
// (net/async_engine.h), one per value policy (gossip/gossip_state.h):
//
//   AsyncPushSum        — scalar state (paper variants 1/2).
//   AsyncVectorPushSum  — dense vector state (variants 3/4 at small N,
//                         kept for cross-validation).
//   AsyncSparsePushSum  — CSR sparse rows (variant 4 / GCLR at scale),
//                         the production path for event-driven
//                         reputation aggregation.
//
// Each node runs a local timer that fires every push_period (with
// per-firing jitter); on firing it splits its gossip state into k_i + 1
// shares, keeps one, and sends one to each of k_i random neighbours.
// Shares arrive after link latency, so mass is conserved only as
// node mass + in-flight mass (a property the tests verify). Convergence
// uses the same evidence-streak protocol as the synchronous engines,
// evaluated at each node's own firings; convergence announcements travel
// as messages too. All engines accept any AsyncGossipOptions::num_threads
// and return bit-for-bit identical results at every thread count.

#ifndef DGT_NET_ASYNC_GOSSIP_H_
#define DGT_NET_ASYNC_GOSSIP_H_

#include <vector>

#include "common/result.h"
#include "gossip/gossip_state.h"
#include "graph/graph.h"
#include "net/async_engine.h"

namespace dgt {

struct AsyncGossipResult {
  std::vector<double> ratios;   // final per-node estimate
  std::vector<double> values;   // final y (node-resident mass)
  std::vector<double> weights;  // final g
  bool converged = false;       // all nodes stopped before max_time
  double sim_time = 0.0;        // when the last node stopped (or max_time)
  uint64_t gossip_messages = 0;
  uint64_t control_messages = 0;
  uint64_t events = 0;  // DES events processed
  // Firings of the slowest node until it stopped — comparable to the
  // synchronous engine's step count.
  uint32_t max_node_firings = 0;
};

class AsyncPushSum {
 public:
  // `graph` must outlive the engine.
  AsyncPushSum(const Graph* graph, AsyncGossipOptions options);

  // Runs to convergence or options.max_time. y0/g0 must have num_nodes
  // entries, g0 non-negative.
  Result<AsyncGossipResult> Run(const std::vector<double>& y0,
                                const std::vector<double>& g0);

 private:
  const Graph* graph_;
  AsyncGossipOptions options_;
};

struct AsyncVectorGossipResult {
  // Final per-node dense state (one row per node; c empty when the count
  // channel is unused).
  std::vector<std::vector<double>> y;
  std::vector<std::vector<double>> g;
  std::vector<std::vector<double>> c;
  AsyncEngineStats stats;
};

class AsyncVectorPushSum {
 public:
  AsyncVectorPushSum(const Graph* graph, AsyncGossipOptions options);

  // y0/g0 are num_nodes x num_nodes; c0 must either be empty (count
  // channel off) or have the same shape.
  Result<AsyncVectorGossipResult> Run(
      const std::vector<std::vector<double>>& y0,
      const std::vector<std::vector<double>>& g0,
      const std::vector<std::vector<double>>& c0);

 private:
  const Graph* graph_;
  AsyncGossipOptions options_;
};

struct AsyncSparseGossipResult {
  // Final node-resident rows (cols sorted; y/g, and c when use_count).
  std::vector<SparseVectorRow> rows;
  AsyncEngineStats stats;
};

class AsyncSparsePushSum {
 public:
  AsyncSparsePushSum(const Graph* graph, AsyncGossipOptions options);

  // `init` as in SparseVectorPushSum::Run: one row per node, cols
  // strictly increasing and in [0, num_nodes), y/g parallel to cols, and
  // c parallel exactly when use_count.
  Result<AsyncSparseGossipResult> Run(std::vector<SparseVectorRow> init,
                                      bool use_count);

 private:
  const Graph* graph_;
  AsyncGossipOptions options_;
};

}  // namespace dgt

#endif  // DGT_NET_ASYNC_GOSSIP_H_
