#include "gossip/vector_engine.h"

#include <utility>

#include "common/thread_pool.h"

namespace dgt {

Result<VectorGossipResult> VectorPushSum::Run(
    const std::vector<std::vector<double>>& y0,
    const std::vector<std::vector<double>>& g0,
    const std::vector<std::vector<double>>& c0) {
  const uint32_t n = engine_.graph().num_nodes();
  const bool use_count = !c0.empty();
  if (y0.size() != n || g0.size() != n || (use_count && c0.size() != n)) {
    return Status::InvalidArgument("initial matrices must have N rows");
  }
  std::vector<DenseGossipData> init(n);
  for (NodeId i = 0; i < n; ++i) {
    init[i].y = y0[i];
    init[i].g = g0[i];
    if (use_count) init[i].c = c0[i];
  }
  ThreadPool pool(engine_.options().num_threads);
  DGT_ASSIGN_OR_RETURN(auto run,
                       engine_.Run(std::move(init), use_count, pool));

  VectorGossipResult res;
  static_cast<GossipRunStats&>(res) = run.stats;
  const double sentinel = engine_.options().ratio_sentinel;
  res.estimates.resize(n);
  if (use_count) res.count_estimates.resize(n);
  for (NodeId i = 0; i < n; ++i) {
    const DenseGossipData& v = run.values[i];
    res.estimates[i] = ColumnRatios(v.y, v.g, sentinel);
    if (use_count) res.count_estimates[i] = ColumnRatios(v.c, v.g, sentinel);
  }
  return res;
}

}  // namespace dgt
