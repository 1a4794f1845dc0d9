#include "gossip/push_pull.h"

#include <cmath>
#include <numeric>

#include "gossip/gossip_state.h"

namespace dgt {

Result<PushPullResult> RunPushPullAveraging(const Graph& graph,
                                            const std::vector<double>& v0,
                                            const PushPullOptions& options) {
  const uint32_t n = graph.num_nodes();
  if (v0.size() != n) {
    return Status::InvalidArgument("v0 must have num_nodes entries");
  }
  DGT_RETURN_IF_ERROR(ValidateXi(options.xi));

  PushPullResult res;
  res.values = v0;
  if (n == 0) {
    res.converged = true;
    return res;
  }

  const double mean =
      std::accumulate(v0.begin(), v0.end(), 0.0) / static_cast<double>(n);
  Rng rng(options.seed);

  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), 0);

  auto max_dev = [&]() {
    double m = 0.0;
    for (double v : res.values) m = std::max(m, std::fabs(v - mean));
    return m;
  };

  // Isolated nodes can never mix; only a single-node graph is trivially
  // converged.
  while (res.steps < options.max_steps) {
    if (max_dev() <= options.xi) {
      res.converged = true;
      return res;
    }
    ++res.steps;
    rng.Shuffle(order);
    for (NodeId i : order) {
      const auto& nbrs = graph.Neighbors(i);
      if (nbrs.empty()) continue;
      NodeId t = nbrs[rng.NextBelow(nbrs.size())];
      double avg = 0.5 * (res.values[i] + res.values[t]);
      res.values[i] = avg;
      res.values[t] = avg;
      res.messages += 2;
    }
  }
  res.converged = max_dev() <= options.xi;
  return res;
}

}  // namespace dgt
