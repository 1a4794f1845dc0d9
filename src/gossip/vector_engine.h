// VectorPushSum: simultaneous push-sum gossip for all N aggregates at once
// (the machinery of the paper's algorithm variants 3 and 4).
//
// Every node holds dense vectors y_i, g_i and count_i of length N (entry j
// concerns target node j); a push transmits the whole shared vector with
// the sender's id attached, so the time complexity matches the scalar case
// while communication grows with the vector size (paper, end of §4.1.2).
//
// Convergence uses the paper's eq. (7): node i declares convergence when
//   sum_j |ratio_ij(n) - ratio_ij(n-1)| <= N * xi
// in a step where it heard from at least one other node, followed by the
// same announce/stop protocol as the scalar engine: both are
// SyncPushSum (gossip/sync_push_sum.h), here over DenseVectorGossipPolicy.
// The dense instance is the small-N reference the sparse one is checked
// against; it needs N x N doubles per channel.

#ifndef DGT_GOSSIP_VECTOR_ENGINE_H_
#define DGT_GOSSIP_VECTOR_ENGINE_H_

#include <vector>

#include "common/result.h"
#include "gossip/options.h"
#include "gossip/sync_push_sum.h"
#include "graph/graph.h"

namespace dgt {

struct VectorGossipResult : GossipRunStats {
  // estimates[i][j]: node i's final ratio y_ij/g_ij for target j
  // (options.ratio_sentinel where g_ij == 0).
  std::vector<std::vector<double>> estimates;
  // count_estimates[i][j]: count_ij/g_ij — converges to the number of
  // nodes that held an opinion about j (when the count channel is used).
  // Like estimates, holds options.ratio_sentinel where g_ij == 0.
  std::vector<std::vector<double>> count_estimates;
};

class VectorPushSum {
 public:
  VectorPushSum(const Graph* graph, GossipOptions options)
      : engine_(graph, options) {}

  // y0/g0 (and c0 if nonempty) are N x N row-major matrices: row i is node
  // i's initial vector. Fails with InvalidArgument on dimension mismatch,
  // a non-finite entry, a negative gossip weight, or an xi that is not
  // positive and finite.
  Result<VectorGossipResult> Run(const std::vector<std::vector<double>>& y0,
                                 const std::vector<std::vector<double>>& g0,
                                 const std::vector<std::vector<double>>& c0 =
                                     {});

  const std::vector<uint32_t>& push_counts() const {
    return engine_.push_counts();
  }

 private:
  SyncPushSum<DenseVectorGossipPolicy> engine_;
};

}  // namespace dgt

#endif  // DGT_GOSSIP_VECTOR_ENGINE_H_
