#include "gossip/scalar_engine.h"

#include <utility>

#include "common/thread_pool.h"

namespace dgt {

Result<GossipResult> ScalarPushSum::Run(const std::vector<double>& y0,
                                        const std::vector<double>& g0,
                                        const std::vector<double>& c0) {
  using Value = ScalarGossipPolicy::Value;
  const uint32_t n = engine_.graph().num_nodes();
  const GossipOptions& options = engine_.options();
  if (y0.size() != n || g0.size() != n) {
    return Status::InvalidArgument("y0/g0 must have num_nodes entries");
  }
  const bool use_count = !c0.empty();
  if (use_count && c0.size() != n) {
    return Status::InvalidArgument("c0 must be empty or num_nodes entries");
  }
  std::vector<Value> init(n);
  for (NodeId i = 0; i < n; ++i) {
    init[i] = {y0[i], g0[i], use_count ? c0[i] : 0.0};
  }

  GossipResult res;
  auto ratios = [&](const std::vector<Value>& state) {
    std::vector<double> row(state.size());
    for (size_t i = 0; i < state.size(); ++i) {
      row[i] = ScalarGossipPolicy::Estimate(state[i], options.ratio_sentinel);
    }
    return row;
  };
  SyncPushSum<ScalarGossipPolicy>::StepObserver on_step;
  if (options.track_trace) {
    on_step = [&](const std::vector<Value>& state) {
      res.trace.push_back(ratios(state));
    };
  }
  ThreadPool pool(options.num_threads);
  DGT_ASSIGN_OR_RETURN(
      auto run, engine_.Run(std::move(init), use_count, pool, on_step));

  static_cast<GossipRunStats&>(res) = run.stats;
  res.ratios = ratios(run.values);
  res.values.resize(n);
  res.weights.resize(n);
  res.counts.resize(n);
  for (NodeId i = 0; i < n; ++i) {
    res.values[i] = run.values[i].y;
    res.weights[i] = run.values[i].g;
    res.counts[i] = run.values[i].c;
  }
  return res;
}

}  // namespace dgt
