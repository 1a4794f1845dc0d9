// SparseVectorPushSum: the vector push-sum gossip (paper variants 3 and 4)
// with each node's state stored as a sparse row instead of dense length-N
// vectors.
//
// Motivation: the dense VectorPushSum allocates six N x N double arrays
// (~120 GB at the paper's N = 50,000), so the headline configuration —
// GCLR of all nodes at all observers — can never run at paper scale. But
// trust matrices are sparse (a node only holds direct trust in the few
// peers it transacted with), so early gossip state is sparse too; rows
// only fill in as mass mixes across the overlay. This engine's per-step
// cost is proportional to the nonzeros actually pushed, not to N per
// message, and its memory footprint tracks the live nonzero count. Under
// variant 4 every row does fill in (peak about 1.15 N^2 nonzeros), so the
// saving is in the mixing phase, not in the asymptote; docs/ARCHITECTURE.md
// records the scale model.
//
// State layout: each node holds one SparseVectorRow (gossip/gossip_state.h)
// and the receive side merges a step's contributions with a k-way
// sorted-column walk, without ever materialising a dense inbox. The
// protocol is SyncPushSum<SparseVectorGossipPolicy>
// (gossip/sync_push_sum.h), the same executor the dense VectorPushSum
// instantiates, and the sparse fold reproduces the dense fold's float
// order, so for identical options and initial state the two are
// bit-for-bit identical (tests/gossip/sparse_vector_engine_test.cc).

#ifndef DGT_GOSSIP_SPARSE_VECTOR_ENGINE_H_
#define DGT_GOSSIP_SPARSE_VECTOR_ENGINE_H_

#include <vector>

#include "common/result.h"
#include "gossip/gossip_state.h"
#include "gossip/options.h"
#include "gossip/sync_push_sum.h"
#include "graph/graph.h"

namespace dgt {

struct SparseVectorGossipResult : GossipRunStats {
  // Per node: sorted columns where gossip weight arrived (g != 0), with
  // the final ratio y/g and count ratio c/g. Columns absent from a row
  // are at options.ratio_sentinel (no weight reached the node), exactly
  // like the dense engine's estimates.
  struct Row {
    std::vector<uint32_t> cols;
    std::vector<double> estimates;
    std::vector<double> count_estimates;  // empty when count unused
  };
  std::vector<Row> rows;

  // Densified estimates (sentinel where no weight arrived) — for small-N
  // cross-validation against VectorPushSum; O(rows * N) memory.
  std::vector<std::vector<double>> DenseEstimates(double sentinel) const;
  std::vector<std::vector<double>> DenseCountEstimates(double sentinel) const;
};

class SparseVectorPushSum {
 public:
  SparseVectorPushSum(const Graph* graph, GossipOptions options)
      : engine_(graph, options) {}

  // `init` holds one row per node (exactly num_nodes rows). Each row's
  // cols must be strictly increasing and in [0, num_nodes); y/g must be
  // parallel to cols, and c must be parallel when `use_count` is true and
  // empty otherwise, every entry must be finite, and gossip weights must
  // be >= 0. Fails with InvalidArgument on any violation or on an xi that
  // is not positive and finite.
  Result<SparseVectorGossipResult> Run(std::vector<SparseVectorRow> init,
                                       bool use_count);

  const std::vector<uint32_t>& push_counts() const {
    return engine_.push_counts();
  }

 private:
  SyncPushSum<SparseVectorGossipPolicy> engine_;
};

}  // namespace dgt

#endif  // DGT_GOSSIP_SPARSE_VECTOR_ENGINE_H_
